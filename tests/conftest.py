"""Shared fixtures for the test suite.

The fixtures provide small, deterministic building blocks: a tiny
configuration (14x14 input, a handful of excitatory neurons, short
presentation window), a synthetic digit source, and pre-built models.  All
stochastic components are seeded so test outcomes are reproducible.

A session hook also guards the layout: ``tests/`` has no ``__init__.py``
files, so pytest imports each test module by its basename, and two modules
sharing one would abort the whole collection with an opaque "import file
mismatch".
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SpikeDynConfig
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.experiments.common import ExperimentScale

TESTS_DIR = Path(__file__).resolve().parent


def duplicate_test_modules(root: Path) -> list:
    """``(first, second)`` path pairs of test modules under ``root`` that
    share a basename, in sorted path order."""
    seen, duplicates = {}, []
    for path in sorted(root.rglob("*.py")):
        if path.name.startswith(("test_", "bench_")):
            first = seen.setdefault(path.name, path)
            if first != path:
                duplicates.append((first, path))
    return duplicates


def pytest_sessionstart(session) -> None:
    """Fail fast, naming both files, when two test modules share a basename."""
    duplicates = duplicate_test_modules(TESTS_DIR)
    if duplicates:
        lines = [f"  {first} and {second}" for first, second in duplicates]
        raise pytest.UsageError(
            "test modules must have unique basenames (tests/ is not a "
            "package, so pytest imports them by name); rename one of:\n"
            + "\n".join(lines))


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_config() -> SpikeDynConfig:
    """A laptop-scale configuration (14x14 input, 12 excitatory neurons)."""
    return SpikeDynConfig.scaled_down(n_input=196, n_exc=12, t_sim=40.0, seed=0)


@pytest.fixture
def tiny_source() -> SyntheticDigits:
    """A 14x14 synthetic digit source with a fixed seed."""
    return SyntheticDigits(image_size=14, seed=0)


@pytest.fixture
def micro_scale() -> ExperimentScale:
    """The smallest valid scale — used for job payloads and cheap drivers."""
    return ExperimentScale.tiny(
        network_sizes=(8,),
        class_sequence=(0, 1),
        samples_per_task=2,
        eval_samples_per_class=2,
        nondynamic_checkpoints=(2,),
        t_sim=30.0,
    )


@pytest.fixture
def tiny_scale() -> ExperimentScale:
    """The smallest experiment scale used by the experiment-driver tests."""
    return ExperimentScale.tiny(
        network_sizes=(8, 12),
        class_sequence=(0, 1),
        samples_per_task=2,
        eval_samples_per_class=2,
        nondynamic_checkpoints=(2, 4),
        t_sim=30.0,
    )


@pytest.fixture
def digit_image(tiny_source: SyntheticDigits,
                rng: np.random.Generator) -> np.ndarray:
    """One 14x14 synthetic digit-3 image."""
    return tiny_source.generate(3, 1, rng=rng)[0]


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    """Point the execution ledger at a per-test directory.

    The CLI attaches a ledger by default, so without this every test that
    goes through ``repro.cli.main`` would append to the developer's real
    ``~/.cache/repro/ledger``."""
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
