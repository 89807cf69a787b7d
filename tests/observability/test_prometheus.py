"""Prometheus renderer/parser tests: round-trips, headers, strict rejection."""

from __future__ import annotations

import math
import urllib.request
from types import SimpleNamespace

import pytest

from repro.core.config import SpikeDynConfig
from repro.models.spikedyn_model import SpikeDynModel
from repro.observability.prometheus import (
    METRIC_PREFIX,
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus_text,
    render_prometheus,
)
from repro.observability.runmetrics import RunnerMetrics, RunnerMetricsServer
from repro.serving import ModelRouter, ModelServer, ReplicaPool
from repro.serving.artifacts import load_artifact
from repro.serving.metrics import ServingMetrics


@pytest.fixture
def metrics():
    """Serving metrics with the gauges a pool declares next to them."""
    metrics = ServingMetrics()
    metrics.record_request()
    metrics.record_request()
    metrics.record_batch(2, [0.001, 0.004])
    metrics.record_batch(4, [0.002, 0.002, 0.003, 0.008])
    metrics.record_rejected()
    metrics.record_errors(1)
    metrics.gauge("queue_depth", "Requests currently waiting in the queue.", value=3)
    metrics.gauge(
        "drift", "Spike-count drift detector field", read=lambda: {"observed": 6, "alerts": 1}
    )
    identity = {"backend": "dense", "model": "spikedyn"}
    metrics.gauge("info", "Identity.", key=None, value=1, labels=lambda: identity)
    return metrics


def _series(metrics):
    return parse_prometheus_text(render_prometheus([(metrics, None)]))


class TestRender:
    def test_round_trip_through_the_parser(self, metrics):
        series = _series(metrics)
        assert series[f"{METRIC_PREFIX}_requests_total"][()] == 2.0
        assert series[f"{METRIC_PREFIX}_responses_total"][()] == 6.0
        assert series[f"{METRIC_PREFIX}_errors_total"][()] == 1.0
        assert series[f"{METRIC_PREFIX}_rejected_total"][()] == 1.0
        assert series[f"{METRIC_PREFIX}_batches_total"][()] == 2.0
        assert series[f"{METRIC_PREFIX}_queue_depth"][()] == 3.0

    def test_histogram_buckets_are_cumulative(self, metrics):
        series = _series(metrics)
        buckets = series[f"{METRIC_PREFIX}_batch_size_bucket"]
        assert buckets[(("le", "2"),)] == 1.0
        assert buckets[(("le", "4"),)] == 2.0
        assert buckets[(("le", "+Inf"),)] == 2.0
        assert series[f"{METRIC_PREFIX}_batch_size_count"][()] == 2.0
        assert series[f"{METRIC_PREFIX}_batch_size_sum"][()] == 6.0

    def test_latency_quantiles_use_quantile_labels(self, metrics):
        series = _series(metrics)
        quantiles = series[f"{METRIC_PREFIX}_latency_ms"]
        labels = {key[0][1] for key in quantiles}
        assert labels == {"0.5", "0.95", "0.99"}
        assert all(value >= 0.0 for value in quantiles.values())
        assert series[f"{METRIC_PREFIX}_latency_window"][()] == 6.0
        assert series[f"{METRIC_PREFIX}_latency_mean_ms"][()] > 0.0
        assert series[f"{METRIC_PREFIX}_latency_max_ms"][()] == pytest.approx(8.0)

    def test_info_gauge_carries_identity_labels(self, metrics):
        info = _series(metrics)[f"{METRIC_PREFIX}_info"]
        ((labels, value),) = info.items()
        assert dict(labels) == {"backend": "dense", "model": "spikedyn"}
        assert value == 1.0

    def test_drift_fields_become_gauges(self, metrics):
        series = _series(metrics)
        assert series[f"{METRIC_PREFIX}_drift_observed"][()] == 6.0
        assert series[f"{METRIC_PREFIX}_drift_alerts"][()] == 1.0

    def test_empty_metrics_render_without_histogram(self):
        series = _series(ServingMetrics())
        assert f"{METRIC_PREFIX}_batch_size_bucket" not in series
        assert f"{METRIC_PREFIX}_mean_batch_size" not in series
        assert series[f"{METRIC_PREFIX}_latency_window"][()] == 0.0

    def test_text_agrees_with_the_json_snapshot(self, metrics):
        snapshot, series = metrics.snapshot(), _series(metrics)
        for key in ("requests_total", "responses_total", "errors_total", "batches_total"):
            assert series[f"{METRIC_PREFIX}_{key}"][()] == snapshot[key]
        assert series[f"{METRIC_PREFIX}_mean_batch_size"][()] == snapshot["mean_batch_size"]
        assert series[f"{METRIC_PREFIX}_latency_ms"][(("quantile", "0.99"),)] == (
            snapshot["latency"]["p99_ms"]
        )

    def test_content_type_pins_exposition_version(self):
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


def assert_every_sample_has_its_own_header(text: str) -> None:
    """Each sample sits under a ``# HELP``/``# TYPE`` pair of its own family,
    declared before the family's first sample; a ``_bucket``/``_sum``/
    ``_count`` sample belongs to its base family only if that is a real
    ``histogram``."""
    helped, kinds = set(), {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split()
            assert family in helped, f"# TYPE {family} without its # HELP"
            kinds[family] = kind
            continue
        name = line.split("{")[0].split()[0]
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and kinds.get(name[: -len(suffix)]) == "histogram":
                family = name[: -len(suffix)]
        assert family in kinds, f"sample {name} precedes a header of its own family"


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read().decode("utf-8")


class TestHeaders:
    """Every exposition endpoint, fetched as a scraper sees it."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        config = SpikeDynConfig.scaled_down(n_input=196, n_exc=8, t_sim=20.0, seed=0)
        return load_artifact(SpikeDynModel(config).save(tmp_path_factory.mktemp("m") / "m"))

    def _pool(self, artifact):
        pool = ReplicaPool.from_artifact(artifact, workers=1)
        pool.metrics.record_request()
        pool.metrics.record_batch(1, [0.002])
        return pool

    def test_serving_exposition(self, artifact):
        with ModelServer(self._pool(artifact)) as server:
            assert_every_sample_has_its_own_header(_get(f"{server.url}/v1/metrics"))

    def test_multi_model_exposition(self, artifact):
        router = ModelRouter()
        router.add_pool("alpha", self._pool(artifact))
        router.add_pool("beta", self._pool(artifact))
        with ModelServer(router) as server:
            text = _get(f"{server.url}/v1/metrics")
        assert_every_sample_has_its_own_header(text)
        assert text.count("# TYPE repro_serving_batch_size histogram") == 1

    def test_runner_exposition_with_one_finished_job(self):
        metrics = RunnerMetrics()
        metrics.record_finished(
            SimpleNamespace(status="completed", source="run", experiment="fig5", elapsed=0.5)
        )
        with RunnerMetricsServer(metrics) as server:
            text = _get(f"{server.url}/metrics")
        assert_every_sample_has_its_own_header(text)
        assert "# TYPE repro_runner_job_seconds_count gauge" in text

    def test_checker_tells_histogram_children_from_own_families(self):
        assert_every_sample_has_its_own_header("# HELP h h\n# TYPE h histogram\nh_count 1\n")
        with pytest.raises(AssertionError, match="a_count"):
            assert_every_sample_has_its_own_header("# HELP a a\n# TYPE a gauge\na_count 1\n")


class TestParserRejections:
    def test_accepts_inf_and_nan_values(self):
        series = parse_prometheus_text("a 1\nb +Inf\nc -Inf\nd NaN\n")
        assert series["b"][()] == math.inf
        assert series["c"][()] == -math.inf
        assert math.isnan(series["d"][()])

    def test_rejects_unknown_comment(self):
        with pytest.raises(ValueError, match="neither # HELP nor # TYPE"):
            parse_prometheus_text("# COMMENT something\n")

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="invalid metric type"):
            parse_prometheus_text("# TYPE a frobnicator\n")

    def test_rejects_bad_metric_name_in_header(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            parse_prometheus_text("# HELP 9bad help text\n")

    def test_rejects_malformed_sample(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus_text("9starts_with_digit 1\n")

    def test_rejects_missing_value(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus_text("lonely_name\n")

    def test_rejects_malformed_label(self):
        with pytest.raises(ValueError, match="malformed label"):
            parse_prometheus_text("a{key=unquoted} 1\n")

    def test_rejects_non_numeric_value(self):
        with pytest.raises(ValueError, match="not a number"):
            parse_prometheus_text("a{} twelve\n")

    def test_rejects_unterminated_label_value(self):
        with pytest.raises(ValueError, match="unterminated|malformed"):
            parse_prometheus_text('a{key="open 1\n')

    def test_error_messages_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_prometheus_text("a 1\nb 2\nbroken line here extra\n")

    def test_labels_with_escaped_quotes_and_commas(self):
        series = parse_prometheus_text('a{k="x,y",j="a\\"b"} 4\n')
        ((labels, value),) = series["a"].items()
        assert dict(labels) == {"k": "x,y", "j": 'a\\"b'}
        assert value == 4.0

    def test_blank_lines_are_ignored(self):
        assert parse_prometheus_text("\n\na 1\n\n")["a"][()] == 1.0

    def test_accepts_untyped_info_samples(self):
        # Exporters may emit bare "info" samples with no # TYPE header at
        # all; any number of them parse fine.
        series = parse_prometheus_text("build_info{rev=\"abc\"} 1\nuptime 3\n")
        assert series["build_info"][(("rev", "abc"),)] == 1.0
        assert series["uptime"][()] == 3.0

    def test_rejects_duplicate_type_for_one_family(self):
        text = ("# TYPE a counter\na 1\n"
                "# TYPE b gauge\nb 2\n"
                "# TYPE a counter\na 3\n")
        with pytest.raises(ValueError, match="line 5.*duplicate metric family 'a'"):
            parse_prometheus_text(text)

    def test_duplicate_rejection_names_the_first_declaration(self):
        text = "# TYPE a counter\n# TYPE a gauge\n"
        with pytest.raises(ValueError, match="already declared on line 1"):
            parse_prometheus_text(text)

    def test_retyping_is_fine_across_separate_documents(self):
        # The duplicate-family check is per parse, not global state.
        for _ in range(2):
            assert parse_prometheus_text("# TYPE a counter\na 1\n")["a"][()] == 1.0
