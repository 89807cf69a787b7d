"""Tests of the repository scripts (benchmark history, run-all, serving smoke).

The benchmark-history writer is driven through its functions, with a stand-in
for the perfbench command that prints fabricated result lines; its ``--check``
mode and the other scripts also run in a subprocess, as CI invokes them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SCRIPTS_DIR = Path(__file__).resolve().parents[2] / "scripts"
SPEC = json.loads((SCRIPTS_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Stand-in for ``perfbench/run.py``, run in the writer's root: logs its
#: arguments, then prints a comment line and a result line holding every
#: metric of its section (and fails for the workload ``fail``).
FAKE_PERFBENCH = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open("calls.jsonl", "a") as log:
    log.write(json.dumps(args) + "\\n")
section = "per_layer" if args["--trace"] == "1" else "end_to_end"
spec = json.load(open("BENCHMARK.json"))
metrics = {m["name"]: {"value": 0.5, "unit": m["unit"]} for m in spec[section]}
print("# perfbench", args["--workload"])
print(json.dumps({"correct": True, "attempted": 11, "failed": 0, "metrics": metrics}))
sys.exit(int(args["--workload"] == "fail"))
"""


def run_script(script: str, *arguments: str, expect_code: int = 0) -> subprocess.CompletedProcess:
    command = [sys.executable, str(SCRIPTS_DIR / script), *arguments]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
    assert completed.returncode == expect_code, (
        f"{script} exited with {completed.returncode} (expected {expect_code}):\n"
        f"{completed.stdout}\n{completed.stderr}"
    )
    return completed


@pytest.fixture(scope="module")
def history():
    sys.path.insert(0, str(SCRIPTS_DIR))
    try:
        import bench_history
    finally:
        sys.path.remove(str(SCRIPTS_DIR))
    return bench_history


def fake_spec(root: Path, workloads=None) -> dict:
    """``BENCHMARK.json`` with its command swapped for :data:`FAKE_PERFBENCH`."""
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    (root / "fake_perfbench.py").write_text(FAKE_PERFBENCH, encoding="utf-8")
    spec = dict(SPEC, command=[sys.executable, str(root / "fake_perfbench.py")])
    if workloads is not None:
        spec["workloads"] = [{"name": name} for name in workloads]
    return spec


def write_snapshot(history, root: Path, snapshot: dict) -> Path:
    path = history.snapshot_path(snapshot["version"], root)
    path.write_text(json.dumps(snapshot), encoding="utf-8")
    return path


@pytest.fixture
def snapshot(history, tmp_path):
    """A snapshot built from fabricated result lines, every value 0.5."""
    spec = fake_spec(tmp_path)
    return history.build_snapshot(spec, repro.__version__, history.measure(spec, tmp_path))


@pytest.mark.integration
class TestBenchHistory:
    def test_result_line_is_the_last_json_line(self, history):
        stdout = '# perfbench\n{"n": 1}\nlayer row\n{"n": 2}\n'
        assert history.result_line(stdout) == {"n": 2}
        with pytest.raises(ValueError, match="no JSON result line"):
            history.result_line("# perfbench: run failed\n")

    def test_measure_runs_every_workload_at_both_traces(self, history, tmp_path):
        results = history.measure(fake_spec(tmp_path), tmp_path)
        calls = (tmp_path / "calls.jsonl").read_text().splitlines()
        calls = [json.loads(call) for call in calls]
        names = [workload["name"] for workload in SPEC["workloads"]]
        assert [(call["--workload"], call["--trace"]) for call in calls] == [
            (name, trace) for name in names for trace in ("0", "1")
        ]
        assert {call["--seed"] for call in calls} == {str(history.SEED)}
        assert {call["--seconds"] for call in calls} == {str(SPEC["run_seconds"])}
        assert sorted(results) == sorted(names)

    def test_a_failed_run_stops_the_writer(self, history, tmp_path):
        with pytest.raises(RuntimeError, match="fail --trace 0 failed with code 1"):
            history.measure(fake_spec(tmp_path, workloads=["fail"]), tmp_path)

    def test_snapshot_holds_every_named_metric(self, history, snapshot):
        assert snapshot["version"] == repro.__version__
        assert sorted(snapshot["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
        names = {metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
        for metrics in snapshot["workloads"].values():
            assert metrics == {name: 0.5 for name in names}

    def test_check_passes_on_a_built_snapshot(self, history, snapshot, tmp_path):
        path = write_snapshot(history, tmp_path, snapshot)
        assert history.check(path, repro.__version__, SPEC) == []

    def test_check_fails_on_a_missing_file(self, history, tmp_path):
        path = history.snapshot_path(repro.__version__, tmp_path)
        assert history.check(path, repro.__version__, SPEC) == [
            f"no snapshot at {path}; write it with scripts/bench_history.py"
        ]

    def test_check_fails_on_a_wrong_version(self, history, snapshot, tmp_path):
        path = write_snapshot(history, tmp_path, dict(snapshot, version="0.0.1"))
        problems = history.check(path, repro.__version__, SPEC)
        assert problems == [
            f"{path.name} records version '0.0.1', the package is {repro.__version__!r}"
        ]

    def test_check_fails_on_a_missing_workload(self, history, snapshot, tmp_path):
        del snapshot["workloads"]["event_stream"]
        path = write_snapshot(history, tmp_path, snapshot)
        problems = history.check(path, repro.__version__, SPEC)
        assert problems == ["workload event_stream is missing"]

    def test_check_fails_on_a_missing_metric(self, history, snapshot, tmp_path):
        del snapshot["workloads"]["serve_http"]["snn.engine_ms_per_sample"]
        path = write_snapshot(history, tmp_path, snapshot)
        assert history.check(path, repro.__version__, SPEC) == [
            "serve_http: metric snn.engine_ms_per_sample is missing"
        ]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "fast", True])
    def test_check_fails_on_a_non_finite_value(self, history, snapshot, tmp_path, value):
        snapshot["workloads"]["batch_infer"]["latency_p50_ms"] = value
        path = write_snapshot(history, tmp_path, snapshot)
        assert history.check(path, repro.__version__, SPEC) == [
            f"batch_infer: metric latency_p50_ms is not finite ({value!r})"
        ]

    def test_committed_snapshot_passes_the_check(self):
        completed = run_script("bench_history.py", "--check")
        assert f"BENCH_v{repro.__version__}.json" in completed.stdout

    def test_result_line_rejects_a_malformed_json_line(self, history):
        with pytest.raises(json.JSONDecodeError):
            history.result_line('{"n": 1}\n{"truncated": \n')
        with pytest.raises(ValueError, match="no JSON result line"):
            history.result_line("")

    def test_snapshot_takes_each_section_from_its_trace(self, history):
        spec = dict(SPEC, workloads=[{"name": "w"}])
        lines = {
            trace: {"metrics": {m["name"]: {"value": float(trace)} for m in spec[section]}}
            for trace, section in history.SECTIONS.items()
        }
        # Both runs report every metric; only the section's own run may count.
        for line in lines.values():
            for section in history.SECTIONS.values():
                for metric in spec[section]:
                    line["metrics"].setdefault(metric["name"], {"value": -1.0})
        metrics = history.build_snapshot(spec, "9.9.9", {"w": lines})["workloads"]["w"]
        assert {metrics[m["name"]] for m in spec["end_to_end"]} == {0.0}
        assert {metrics[m["name"]] for m in spec["per_layer"]} == {1.0}

    def test_snapshot_records_its_seed_and_run_length(self, history, snapshot):
        assert snapshot["seed"] == history.SEED
        assert snapshot["run_seconds"] == SPEC["run_seconds"]

    def test_a_result_line_without_a_named_metric_stops_the_writer(self, history):
        spec = dict(SPEC, workloads=[{"name": "w"}])
        full = {m["name"]: {"value": 1.0} for m in spec["end_to_end"] + spec["per_layer"]}
        short = {name: value for name, value in full.items() if name != "accuracy"}
        results = {"w": {0: {"metrics": short}, 1: {"metrics": full}}}
        with pytest.raises(KeyError, match="accuracy"):
            history.build_snapshot(spec, "9.9.9", results)

    def test_check_reports_every_workload_of_a_snapshot_without_workloads(
        self, history, snapshot, tmp_path
    ):
        del snapshot["workloads"]
        path = write_snapshot(history, tmp_path, snapshot)
        assert history.check(path, repro.__version__, SPEC) == [
            f"workload {workload['name']} is missing" for workload in SPEC["workloads"]
        ]

    def test_check_reports_every_problem_in_spec_order(self, history, snapshot, tmp_path):
        del snapshot["workloads"]["serve_http"]["accuracy"]
        snapshot["workloads"]["continual_train"]["perfbench.tracing_overhead_pct"] = None
        path = write_snapshot(history, tmp_path, snapshot)
        assert history.check(path, repro.__version__, SPEC) == [
            "continual_train: metric perfbench.tracing_overhead_pct is missing",
            "serve_http: metric accuracy is missing",
        ]

    def test_check_ignores_what_the_benchmark_does_not_name(self, history, snapshot, tmp_path):
        snapshot["workloads"]["batch_infer"]["retired_metric_s"] = "n/a"
        snapshot["workloads"]["retired_workload"] = {}
        path = write_snapshot(history, tmp_path, snapshot)
        assert history.check(path, repro.__version__, SPEC) == []

    def test_check_mode_fails_when_this_version_has_no_snapshot(self, history, monkeypatch, capsys):
        monkeypatch.setattr(repro, "__version__", "0.0.0")
        assert history.main(["--check"]) == 1
        assert "error: no snapshot at " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "retired", ["--root", "--list", "--from-report", "--baseline", "--tolerance"]
    )
    def test_check_is_the_only_option(self, history, retired, capsys):
        with pytest.raises(SystemExit) as exited:
            history.main(["--check", retired, "x"])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {retired}" in capsys.readouterr().err


HISTORY = sorted(SCRIPTS_DIR.parent.glob("BENCH_v*.json"))


@pytest.mark.integration
class TestCommittedHistory:
    """The committed ``BENCH_v*.json`` files, old layouts included."""

    @pytest.mark.parametrize("path", HISTORY, ids=[path.stem for path in HISTORY])
    def test_each_snapshot_records_the_version_of_its_name(self, history, path):
        version = json.loads(path.read_text(encoding="utf-8"))["version"]
        assert history.snapshot_path(version, path.parent) == path

    def test_the_current_snapshot_used_the_writer_settings(self, history):
        path = history.snapshot_path(repro.__version__)
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        assert snapshot["seed"] == history.SEED
        assert snapshot["run_seconds"] == SPEC["run_seconds"]

    @pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
    def test_the_current_snapshot_holds_exactly_the_named_metrics(self, history, workload):
        path = history.snapshot_path(repro.__version__)
        metrics = json.loads(path.read_text(encoding="utf-8"))["workloads"][workload]
        names = {metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
        assert set(metrics) == names

    @pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
    def test_every_operation_of_the_current_snapshot_succeeded(self, history, workload):
        path = history.snapshot_path(repro.__version__)
        metrics = json.loads(path.read_text(encoding="utf-8"))["workloads"][workload]
        assert metrics["ok_frac"] == 1.0


@pytest.mark.integration
class TestRunAllExperiments:
    def test_script_delegates_to_the_cli(self):
        # The script is a flag-mapping wrapper over `repro run-all`; check
        # the mapping without paying for a full suite run.
        sys.path.insert(0, str(SCRIPTS_DIR))
        try:
            import run_all_experiments as script
        finally:
            sys.path.remove(str(SCRIPTS_DIR))
        seen = {}

        def fake_cli(cli_args):
            seen["args"] = cli_args
            return 0

        original = script.cli_main
        script.cli_main = fake_cli
        try:
            assert script.main(["--quick", "--workers", "3", "--no-cache"]) == 0
        finally:
            script.cli_main = original
        args = seen["args"]
        assert args[:3] == ["run-all", "--scale", "tiny"]
        assert "--no-cache" in args
        assert args[args.index("--workers") + 1] == "3"

    def test_quick_subset_end_to_end(self, tmp_path):
        # The script exposes no driver filter (it always runs the full
        # suite), so keep this cheap by pointing the cache at a temp dir and
        # running the two fastest drivers through the CLI equivalent instead.
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "run-all",
            "--scale",
            "tiny",
            "--workers",
            "2",
            "--drivers",
            "table1",
            "table2",
            "--out",
            str(tmp_path / "results"),
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
        assert completed.returncode == 0, completed.stderr
        manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
        assert len(manifest["jobs"]) == 2
        assert all(job["status"] == "completed" for job in manifest["jobs"].values())


@pytest.mark.integration
class TestServingSmoke:
    def test_self_contained_smoke_passes(self):
        completed = run_script(
            "serving_smoke.py", "--requests", "12", "--concurrency", "4", "--n-exc", "10"
        )
        assert "prediction-identical to offline evaluation" in completed.stdout
        assert "GET /v1/metrics: valid Prometheus text exposition" in completed.stdout

    def test_url_without_artifact_is_a_usage_error(self):
        completed = run_script("serving_smoke.py", "--url", "http://127.0.0.1:1", expect_code=2)
        assert "--url requires --artifact" in completed.stderr
