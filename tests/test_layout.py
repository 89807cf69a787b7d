"""The test tree's own layout guard (``tests/conftest.py``)."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent


def _conftest():
    """``tests/conftest.py`` by path (several modules are named conftest)."""
    spec = importlib.util.spec_from_file_location("tests_root_conftest",
                                                  TESTS_DIR / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_test_tree_has_unique_module_basenames():
    assert _conftest().duplicate_test_modules(TESTS_DIR) == []


def test_duplicate_basenames_are_found_with_both_paths(tmp_path):
    for directory in ("encoding", "learning", "snn"):
        (tmp_path / directory).mkdir()
    (tmp_path / "encoding" / "test_base.py").write_text("")
    (tmp_path / "learning" / "test_base.py").write_text("")
    (tmp_path / "snn" / "test_other.py").write_text("")
    (tmp_path / "snn" / "helpers.py").write_text("")
    (tmp_path / "learning" / "helpers.py").write_text("")
    assert _conftest().duplicate_test_modules(tmp_path) == [
        (tmp_path / "encoding" / "test_base.py", tmp_path / "learning" / "test_base.py"),
    ]


# -- reachability ---------------------------------------------------------

REPO = TESTS_DIR.parent
PACKAGE = REPO / "src" / "repro"
#: Non-test trees whose names keep a ``repro`` definition alive.
ENTRY_TREES = ("benchmarks", "scripts", "examples", "perfbench")
#: Modules exempt from the scan: ``repro.runner.testing`` holds the crash and
#: hang drivers that the scheduler tests address by string in spawned workers.
REACHABILITY_ALLOWLIST = ("repro.runner.testing",)


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _names_in(node) -> set:
    """Every identifier ``node`` names: variables, attributes, imported names
    and the identifier-like words of non-docstring string constants (a driver
    may be addressed as ``"module:function"``)."""
    names, stack = set(), [node]
    while stack:
        current = stack.pop()
        if _is_docstring(current):
            continue
        if isinstance(current, ast.Name):
            names.add(current.id)
        elif isinstance(current, ast.Attribute):
            names.add(current.attr)
        elif isinstance(current, ast.alias):
            names.add(current.name.rpartition(".")[2])
        elif isinstance(current, ast.Constant) and isinstance(current.value, str):
            names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", current.value))
        stack.extend(ast.iter_child_nodes(current))
    return names


def _is_reexport(node) -> bool:
    """An ``__init__`` statement that only re-exports: an import or ``__all__``."""
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "__all__" for target in node.targets))


def unreached_definitions(package: Path = PACKAGE, entry_roots=None) -> list:
    """``module.name`` of every public top-level function and class in
    ``package`` that no non-test file names outside its own definition.

    Counted as naming it: the rest of its own module, any other module of
    ``package`` (an ``__init__`` only outside its re-exports) and every
    ``*.py`` under ``entry_roots`` (default: :data:`ENTRY_TREES`)."""
    if entry_roots is None:
        entry_roots = [REPO / tree for tree in ENTRY_TREES]
    names = set()
    for root in entry_roots:
        for path in sorted(Path(root).rglob("*.py")):
            names |= _names_in(ast.parse(path.read_text(), str(path)))
    # Per module: the names of each top-level statement, so a definition's
    # own statement can be left out of its own reach.
    statements = {}
    for path in sorted(package.rglob("*.py")):
        body = ast.parse(path.read_text(), str(path)).body
        if path.name == "__init__.py":
            body = [node for node in body if not _is_reexport(node)]
        statements[path] = [(node, _names_in(node)) for node in body]
        names_by_module = set().union(*(used for _, used in statements[path]))
        statements[path].append((None, names_by_module))
    unreached = []
    for path, nodes in statements.items():
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        if module in REACHABILITY_ALLOWLIST:
            continue
        elsewhere = names.union(*(other[-1][1] for other_path, other in statements.items()
                                  if other_path != path))
        for node, _ in nodes[:-1]:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in elsewhere):
                continue
            if not any(node.name in used for other, used in nodes[:-1] if other is not node):
                unreached.append(f"{module}.{node.name}")
    return unreached


def test_every_public_definition_is_reached_outside_the_tests():
    """A public function or class stays only while a non-test file names it:
    an experiment, the CLI, the server, a benchmark, a script, an example or
    perfbench. Delete what only tests reach, with its tests."""
    assert unreached_definitions() == []


def _package(tmp_path, **modules):
    """A throwaway package ``pkg`` under ``tmp_path`` with ``modules``
    (name -> source); returns its path."""
    package = tmp_path / "pkg"
    package.mkdir()
    for name, source in {"__init__": "", **modules}.items():
        (package / f"{name}.py").write_text(source)
    return package


def test_reachability_scan_finds_test_only_and_reexport_only_names(tmp_path):
    package = _package(
        tmp_path,
        __init__="from .a import used, reexported\n__all__ = ['used', 'reexported']\n",
        a="def used():\n    return 1\n\ndef reexported():\n    return 2\n",
    )
    entry = tmp_path / "examples"
    entry.mkdir()
    (entry / "demo.py").write_text("from pkg import used\nused()\n")
    assert unreached_definitions(package, [entry]) == ["pkg.a.reexported"]


def test_a_definition_does_not_reach_itself(tmp_path):
    package = _package(
        tmp_path,
        a="def recursive(n):\n    return recursive(n - 1)\n\n"
          "class Orphan:\n    def clone(self):\n        return Orphan()\n",
    )
    assert unreached_definitions(package, []) == ["pkg.a.recursive", "pkg.a.Orphan"]


def test_the_rest_of_the_module_and_other_modules_reach(tmp_path):
    package = _package(
        tmp_path,
        a="def helper():\n    return 1\n\ndef caller():\n    return helper()\n",
        b="from pkg.a import caller\nVALUE = caller()\n",
    )
    assert unreached_definitions(package, []) == []


def test_a_string_reference_reaches_but_a_docstring_does_not(tmp_path):
    package = _package(
        tmp_path,
        a='"""Mentions documented only."""\n\n'
          "def by_string():\n    return 1\n\ndef documented():\n    return 2\n",
        b="DRIVER = 'pkg.a:by_string'\n",
    )
    assert unreached_definitions(package, []) == ["pkg.a.documented"]


def test_code_in_an_init_reaches_but_its_exports_do_not(tmp_path):
    package = _package(
        tmp_path,
        __init__="from .a import exported, called\n__all__ = ['exported']\n"
                 "DEFAULT = called()\n",
        a="def exported():\n    return 1\n\ndef called():\n    return 2\n",
    )
    assert unreached_definitions(package, []) == ["pkg.a.exported"]


def test_private_names_are_not_scanned(tmp_path):
    package = _package(tmp_path, a="def _helper():\n    return 1\n\nclass _Impl:\n    pass\n")
    assert unreached_definitions(package, []) == []


def test_the_allowlist_names_only_the_scheduler_test_drivers():
    """``repro.runner.testing`` is addressed by string from spawned workers
    in the scheduler tests; nothing else is exempt."""
    assert REACHABILITY_ALLOWLIST == ("repro.runner.testing",)
    assert (PACKAGE / "runner" / "testing.py").is_file()


# -- deleted API stays deleted ------------------------------------------------

#: Methods only tests reached, deleted with them (the scan above covers
#: top-level names, not methods).
DELETED_METHODS = [
    ("repro.core.config", "SpikeDynConfig", "paper_n200"),
    ("repro.core.config", "SpikeDynConfig", "paper_n400"),
    ("repro.core.weight_decay", "SynapticWeightDecay", "for_network_size"),
    ("repro.encoding.events", "EventStreamEncoder", "encode_events_batch"),
    ("repro.estimation.energy", "EnergyModel", "estimate_phase"),
    ("repro.evaluation.continual", "ContinualResult", "final_accuracies"),
    ("repro.experiments.fig05_analytical", "AnalyticalValidationResult", "max_error"),
    ("repro.experiments.fig06_sweep", "DecayThetaSweepResult", "accuracy_by_label"),
    ("repro.models.base", "UnsupervisedDigitClassifier", "reset_counter"),
    ("repro.observability.structlog", "StructLogger", "unbind"),
    ("repro.observability.tracing", "TraceContext", "to_headers"),
    ("repro.runner.jobs", "JobSpec", "with_seed"),
    ("repro.runner.manifest", "RunManifest", "completed_keys"),
    ("repro.runner.manifest", "RunManifest", "pending_jobs"),
    ("repro.scenarios.spec", "ScenarioSpec", "canonical_json"),
    ("repro.serving.drift", "SpikeCountDriftDetector", "reset_alarm"),
    ("repro.snn.neurons", "AdaptiveLIFGroup", "theta_decay_rate"),
]


@pytest.mark.parametrize("module,cls,name", DELETED_METHODS,
                         ids=[f"{cls}.{name}" for _, cls, name in DELETED_METHODS])
def test_deleted_methods_stay_deleted(module, cls, name):
    assert not hasattr(getattr(importlib.import_module(module), cls), name)


def test_the_learning_rule_keeps_no_spike_counts_of_its_own():
    """SpikeDyn reads the record its driver hands over; the fallback that
    counted spikes for a driver handing none is gone."""
    from repro.core.learning import SpikeDynLearningRule

    rule = SpikeDynLearningRule()
    assert not hasattr(rule, "_kept_counts")
    assert not hasattr(rule, "_open_record")


@pytest.mark.parametrize("module", ["repro.core.framework", "repro.datasets.mnist",
                                    "repro.analysis.pareto"])
def test_deleted_modules_stay_deleted(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
