"""The benchmark's own tests: every workload at tiny size, and run hygiene.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

from common import END_TO_END, PER_LAYER, SIZES, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
TINY = SIZES["tiny"]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, env=None, seed: int = 3):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    completed = run_bench(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], float)
    if not trace:
        for name in ("throughput_per_s", "latency_p50_ms", "latency_tail_ms", "ok_frac",
                     "setup_s", "peak_rss_mb", "energy_j_per_sample"):
            assert result["metrics"][name]["value"] > 0, name


def test_same_seed_gives_same_inputs_and_outputs():
    first, second = (json.loads(run_bench("event_stream", 0).stdout.splitlines()[-1])
                     for _ in range(2))
    for name in ("energy_j_per_sample", "accuracy"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def processes_with(token: str) -> list:
    """PIDs whose environment carries ``token``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            environ = Path(f"/proc/{entry}/environ").read_bytes()
        except OSError:
            continue
        if token.encode() in environ:
            found.append(int(entry))
    return found


def test_serve_http_run_leaves_no_process():
    token = f"PERFBENCH_TEST_TOKEN={uuid.uuid4().hex}"
    name, value = token.split("=")
    completed = run_bench("serve_http", 0, env={**os.environ, name: value})
    assert completed.returncode == 0, completed.stderr
    assert processes_with(token) == []


def test_survivors_are_killed_and_reaped():
    import run

    leaked = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                              start_new_session=True)
    try:
        survivors = run.clear_group(leaked.pid)
        assert leaked.pid in survivors
        assert run.group_members(leaked.pid) == []
        assert not Path(f"/proc/{leaked.pid}").exists()
    finally:
        if leaked.poll() is None:
            leaked.kill()
            leaked.wait()


def test_run_without_program_sources_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = run_bench("continual_train", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


@pytest.mark.parametrize("workload", ["continual_train", "batch_infer", "event_stream"])
def test_layer_rows_add_up_to_the_traced_unit_time(workload):
    import workloads

    outcome = getattr(workloads, workload)(ROOT, TINY, 5, 0.2, True)
    assert outcome.correct
    rows = dict(outcome.layer_rows)
    assert "unattributed" in rows
    assert sum(rows.values()) == pytest.approx(outcome.unit_ms, rel=1e-9)
    assert outcome.unit_ms == pytest.approx(
        statistics.fmean(outcome.latencies_ms[::2]), rel=1e-9)
    metrics = outcome.layer_metrics
    assert metrics["backends.lif_step.calls_per_sample"] > 0
    assert metrics["snn.engine_ms_per_sample"] > 0
    assert 0 < metrics["snn.orchestration_pct"] < 100


def test_event_stream_skips_silent_steps():
    import workloads

    metrics = workloads.event_stream(ROOT, TINY, 5, 0.2, True).layer_metrics
    assert metrics["snn.events.steps_skipped_frac"] > 0.5
    assert metrics["snn.events.events_per_stream"] > 0


def test_host_speed_scaling_is_identity_at_nominal_speed():
    import hostspeed

    probe = hostspeed.EventProbe()
    nominal = probe.NOMINAL_MS
    assert probe.scales([nominal, nominal, 2 * nominal]) == pytest.approx([1.0, 2 / 3])
    assert probe() > 0
    result, seconds = probe.measure(lambda: "built")
    assert result == "built" and seconds >= 0


def test_timed_out_run_is_killed_and_leaves_no_process(monkeypatch, capsys):
    import run

    token = uuid.uuid4().hex
    monkeypatch.setenv("PERFBENCH_TEST_TOKEN", token)
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "DEADLINE_S", 2.0)
    monkeypatch.setattr(run, "FIRST_RUN_DEADLINE_S", 2.0)
    args = run.parse_args(["--workload", "serve_http", "--seed", "1", "--seconds", "30",
                           "--size", "tiny"])
    assert run.supervise(args) == 1
    assert capsys.readouterr().out == ""
    assert processes_with(f"PERFBENCH_TEST_TOKEN={token}") == []
