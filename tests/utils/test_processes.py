"""The one worker-process seam: both pools start from one preloaded context."""

from __future__ import annotations

import importlib
import os
import re
from pathlib import Path

import pytest

from repro.models.spikedyn_model import SpikeDynModel
from repro.runner import ParallelRunner
from repro.serving.shards import ShardProcessPool
from repro.utils import processes
from repro.utils.processes import PRELOAD, WORKER_CONTEXT, adopt_environment

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.mark.parametrize("name", PRELOAD)
def test_every_preload_name_imports(name):
    """The forkserver skips a module it cannot import without a word, and
    every worker then starts as slowly as a fresh interpreter."""
    importlib.import_module(name)


def test_both_pools_start_from_the_one_context(tiny_config, tmp_path):
    artifact_dir = SpikeDynModel(tiny_config).save(tmp_path / "artifact")
    pool = ShardProcessPool(artifact_dir, shards=1)
    assert pool._context is ParallelRunner(1)._context is WORKER_CONTEXT
    assert WORKER_CONTEXT.get_start_method() == "forkserver"


def test_no_other_process_context_in_the_package():
    seam = Path(processes.__file__).resolve()
    offenders = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if path.resolve() != seam
        and re.search(r"get_context\(|set_start_method\(", path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_adopt_environment_adds_replaces_and_removes(monkeypatch):
    monkeypatch.setenv("REPRO_PROBE_GONE", "old")
    saved = dict(os.environ)
    target = {key: value for key, value in saved.items() if key != "REPRO_PROBE_GONE"}
    target["REPRO_PROBE_NEW"] = "new"
    try:
        adopt_environment(target)
        assert dict(os.environ) == target
    finally:
        adopt_environment(saved)
