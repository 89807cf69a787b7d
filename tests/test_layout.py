"""The test tree's own layout guard (``tests/conftest.py``)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
