"""Runner metrics tests: aggregation, Prometheus rendering, HTTP endpoint."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.observability.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus_text,
    render_prometheus,
)
from repro.observability.runmetrics import (
    JOB_WINDOW,
    RUNNER_METRIC_PREFIX,
    RunnerMetrics,
    RunnerMetricsServer,
)


def _record(status="completed", source="run", experiment="fig5", elapsed=0.5):
    return SimpleNamespace(status=status, source=source,
                           experiment=experiment, elapsed=elapsed)


class TestRunnerMetrics:
    def test_initial_snapshot_is_all_zero(self):
        snapshot = RunnerMetrics().snapshot()
        assert snapshot["jobs_started_total"] == 0
        assert snapshot["jobs_completed_total"] == 0
        assert snapshot["worker_utilization"] == 0.0
        assert snapshot["experiments"] == {}
        assert snapshot["uptime_s"] >= 0.0

    def test_terminal_outcomes_route_to_their_counters(self):
        metrics = RunnerMetrics()
        for _ in range(3):
            metrics.record_started()
        metrics.record_finished(_record(status="completed"))
        metrics.record_finished(_record(status="failed"))
        metrics.record_finished(_record(status="timeout"))
        metrics.record_finished(_record(source="cache"))
        metrics.record_finished(_record(source="manifest"))
        snapshot = metrics.snapshot()
        assert snapshot["jobs_started_total"] == 3
        assert snapshot["jobs_completed_total"] == 1
        assert snapshot["jobs_failed_total"] == 1
        assert snapshot["jobs_timeout_total"] == 1
        assert snapshot["jobs_cached_total"] == 1
        assert snapshot["jobs_resumed_total"] == 1

    def test_cache_and_manifest_shortcuts_skip_latency_windows(self):
        metrics = RunnerMetrics()
        metrics.record_finished(_record(source="cache", elapsed=9.0))
        assert metrics.snapshot()["experiments"] == {}

    def test_per_experiment_latency_stats(self):
        metrics = RunnerMetrics()
        for elapsed in (0.1, 0.2, 0.3, 0.4):
            metrics.record_finished(_record(experiment="fig5", elapsed=elapsed))
        metrics.record_finished(_record(experiment="alg1", elapsed=1.0))
        experiments = metrics.snapshot()["experiments"]
        assert set(experiments) == {"alg1", "fig5"}
        fig5 = experiments["fig5"]
        assert fig5["count"] == 4
        assert fig5["mean_s"] == pytest.approx(0.25)
        assert fig5["max_s"] == pytest.approx(0.4)
        assert 0.1 <= fig5["p50_s"] <= fig5["p95_s"] <= 0.4
        # A single sample reports itself as every quantile.
        assert experiments["alg1"]["p50_s"] == experiments["alg1"]["p95_s"] == 1.0

    def test_latency_window_is_bounded(self):
        assert RunnerMetrics().job_seconds.size == JOB_WINDOW

    def test_progress_and_utilization(self):
        metrics = RunnerMetrics()
        metrics.set_workers(4)
        metrics.set_progress(queue_depth=7, running=2)
        snapshot = metrics.snapshot()
        assert snapshot["queue_depth"] == 7
        assert snapshot["running"] == 2
        assert snapshot["worker_utilization"] == pytest.approx(0.5)


class TestPrometheusRendering:
    def test_round_trips_through_the_strict_parser(self):
        metrics = RunnerMetrics()
        metrics.set_workers(2)
        metrics.record_started()
        metrics.record_finished(_record())
        text = render_prometheus([(metrics, None)])
        assert "# TYPE repro_runner_jobs_started_total counter" in text
        families = parse_prometheus_text(text)
        assert families[f"{RUNNER_METRIC_PREFIX}_jobs_started_total"][()] == 1.0
        assert families[f"{RUNNER_METRIC_PREFIX}_workers"][()] == 2.0

    def test_quantiles_are_labelled_per_experiment(self):
        metrics = RunnerMetrics()
        metrics.record_finished(_record(experiment="fig5", elapsed=0.5))
        families = parse_prometheus_text(render_prometheus([(metrics, None)]))
        samples = families[f"{RUNNER_METRIC_PREFIX}_job_seconds"]
        assert set(samples) == {
            (("experiment", "fig5"), ("quantile", "0.5")),
            (("experiment", "fig5"), ("quantile", "0.95")),
        }
        assert all(value == pytest.approx(0.5) for value in samples.values())


class TestRunnerMetricsServer:
    @pytest.fixture
    def server(self):
        metrics = RunnerMetrics()
        metrics.set_workers(1)
        metrics.record_finished(_record())
        with RunnerMetricsServer(metrics) as running:
            yield running

    def _get(self, server, path):
        with urllib.request.urlopen(f"{server.url}{path}", timeout=5) as response:
            return response.status, response.headers, response.read()

    def test_metrics_endpoint_serves_prometheus_text(self, server):
        status, headers, body = self._get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        families = parse_prometheus_text(body.decode("utf-8"))
        assert families[f"{RUNNER_METRIC_PREFIX}_jobs_completed_total"][()] == 1.0

    def test_metrics_json_endpoint(self, server):
        status, headers, body = self._get(server, "/metrics.json")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        snapshot = json.loads(body)
        assert snapshot["jobs_completed_total"] == 1
        assert "experiments" in snapshot

    def test_healthz_and_unknown_path(self, server):
        status, _, body = self._get(server, "/healthz")
        assert status == 200 and json.loads(body) == {"status": "ok"}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/nope")
        assert excinfo.value.code == 404

    def test_stop_is_idempotent(self):
        server = RunnerMetricsServer(RunnerMetrics()).start()
        server.stop()
        server.stop()
