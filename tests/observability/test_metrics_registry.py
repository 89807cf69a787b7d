"""MetricsRegistry tests: the four metric kinds and both of their views.

The rolling window is the one quantile implementation behind the serving
latency and the runner's per-experiment job latency, so its edge cases are
pinned here once, at small sizes: the size bound, and windows that are empty
(an explicit ``0.0``, never NaN), hold one sample, are exactly full, and
overflow.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.observability.metrics import MetricsRegistry
from repro.observability.prometheus import parse_prometheus_text, render_prometheus

QUANTILES = (50, 95, 99)
STAT_KEYS = ("mean_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms")


def _window(size=8, label=None):
    registry = MetricsRegistry("t")
    window = registry.window(
        "latency",
        "Latency (ms)",
        size=size,
        quantiles=QUANTILES,
        unit="ms",
        count_key="window",
        families=("latency_window", "latency_ms", "latency_mean_ms", "latency_max_ms"),
        label=label,
    )
    return registry, window


def _text(registry, labels=None) -> str:
    return render_prometheus([(registry, labels)])


def _series(registry, labels=None):
    return parse_prometheus_text(_text(registry, labels))


class TestWindow:
    def test_empty_window_is_all_zeros_not_nan(self):
        registry, _ = _window()
        stats = registry.snapshot()["latency"]
        assert stats["window"] == 0.0
        for key in STAT_KEYS:
            assert stats[key] == 0.0
            assert not math.isnan(stats[key])
        series = _series(registry)
        assert series["t_latency_window"][()] == 0.0
        assert set(series["t_latency_ms"].values()) == {0.0}

    def test_schema_is_stable_from_first_scrape(self):
        empty, _ = _window()
        loaded, window = _window()
        window.extend([1.0, 2.0, 3.0, 4.0])
        assert set(loaded.snapshot()["latency"]) == set(empty.snapshot()["latency"])

    def test_single_sample_window_reports_that_sample_everywhere(self):
        registry, window = _window()
        window.extend([12.5])
        stats = registry.snapshot()["latency"]
        assert stats["window"] == 1.0
        for key in STAT_KEYS:
            assert stats[key] == 12.5

    def test_exactly_full_window(self):
        registry, window = _window(size=8)
        samples = [float(value) for value in range(1, 9)]
        window.extend(samples)
        stats = registry.snapshot()["latency"]
        assert stats["window"] == 8.0
        assert stats["max_ms"] == 8.0
        assert stats["mean_ms"] == pytest.approx(np.mean(samples))
        for quantile in QUANTILES:
            assert stats[f"p{quantile}_ms"] == float(np.percentile(samples, quantile))
        assert stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]

    def test_overfull_window_keeps_most_recent_samples(self):
        registry, window = _window(size=4)
        window.extend([100.0] * 4)  # old, evicted
        for value in range(10):
            window.extend([float(value)])
        stats = registry.snapshot()["latency"]
        assert stats["window"] == 4.0
        assert stats["max_ms"] == 9.0
        assert stats["mean_ms"] == pytest.approx((6 + 7 + 8 + 9) / 4)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            _window(size=0)

    def test_labelled_windows_are_per_label_and_sorted(self):
        registry, window = _window(label="experiment")
        assert registry.snapshot()["latency"] == {}
        assert "t_latency_window" not in _series(registry)
        window.extend([0.1, 0.2, 0.3, 0.4], label="fig5")
        window.extend([1.0], label="alg1")
        stats = registry.snapshot()["latency"]
        assert list(stats) == ["alg1", "fig5"]
        assert stats["fig5"]["window"] == 4.0
        assert stats["fig5"]["mean_ms"] == pytest.approx(0.25)
        assert 0.1 <= stats["fig5"]["p50_ms"] <= stats["fig5"]["p95_ms"] <= 0.4
        series = _series(registry)
        assert series["t_latency_window"] == {
            (("experiment", "alg1"),): 1.0,
            (("experiment", "fig5"),): 4.0,
        }
        assert series["t_latency_ms"][(("experiment", "alg1"), ("quantile", "0.95"))] == 1.0
        assert len(series["t_latency_ms"]) == 2 * len(QUANTILES)


class TestScalars:
    def test_counter_in_both_views(self):
        registry = MetricsRegistry("t")
        hits = registry.counter("hits_total", "Hits.")
        hits.inc()
        hits.inc(2)
        assert hits.value == 3
        assert registry.snapshot() == {"hits_total": 3}
        assert "# TYPE t_hits_total counter" in _text(registry)
        assert _series(registry)["t_hits_total"][()] == 3.0

    def test_read_counter_reports_the_owner_value(self):
        registry = MetricsRegistry("t")
        owned = {"opened": 4}
        counter = registry.counter("opened_total", "Opened.", read=lambda: owned["opened"])
        assert counter.value == 4
        assert registry.snapshot() == {"opened_total": 4}

    def test_gauge_set_read_and_absent(self):
        registry = MetricsRegistry("t")
        depth = registry.gauge("depth", "Depth.")
        registry.gauge("unknown", "Not known yet.", read=lambda: None)
        registry.gauge("read", "Read at scrape time.", read=lambda: 7)
        depth.set(5)
        assert registry.snapshot() == {"depth": 5, "read": 7}
        assert set(_series(registry)) == {"t_depth", "t_read"}

    def test_mapping_gauge_exports_numeric_fields(self):
        registry = MetricsRegistry("t")
        state = {"observed": 6, "alarm": True, "note": "x", "score": None}
        registry.gauge("drift", "Drift field", read=lambda: state)
        assert registry.snapshot() == {"drift": state}
        series = _series(registry)
        assert set(series) == {"t_drift_observed", "t_drift_alarm"}
        assert series["t_drift_alarm"][()] == 1.0
        assert "# HELP t_drift_observed Drift field 'observed'." in _text(registry)

    def test_json_only_text_only_and_nested_keys(self):
        registry = MetricsRegistry("t")
        registry.gauge(None, key="backend", read=lambda: "sparse")
        registry.gauge("open", "Open.", key=None, value=1)
        registry.gauge("shards", "Shards.", key="shards.count", value=2)
        registry.counter("respawns_total", "Respawns.", key="shards.respawns_total")
        assert registry.snapshot() == {
            "backend": "sparse",
            "shards": {"count": 2, "respawns_total": 0},
        }
        assert set(_series(registry)) == {"t_open", "t_shards", "t_respawns_total"}

    def test_identity_labels_and_base_label_collision(self):
        registry = MetricsRegistry("t")
        identity = {"backend": 'we"ird\\name', "model": "spikedyn"}
        registry.gauge("info", "Identity.", key=None, value=1, labels=lambda: identity)
        ((labels, value),) = _series(registry)["t_info"].items()
        assert dict(labels) == {"backend": 'we\\"ird\\\\name', "model": "spikedyn"}
        assert value == 1.0
        ((labels, _),) = _series(registry, {"model": "a@v0001"})["t_info"].items()
        assert dict(labels) == {
            "model": "a@v0001",
            "backend": 'we\\"ird\\\\name',
            "model_class": "spikedyn",
        }


class TestHistogram:
    def test_buckets_are_cumulative(self):
        registry = MetricsRegistry("t")
        sizes = registry.histogram("batch_size", "Sizes.", key="batch_size_histogram")
        for size in (4, 2, 4):
            sizes.observe(size)
        assert registry.snapshot() == {"batch_size_histogram": {"2": 1, "4": 2}}
        assert sizes.mean() == pytest.approx(10 / 3)
        series = _series(registry)
        assert series["t_batch_size_bucket"] == {
            (("le", "2"),): 1.0,
            (("le", "4"),): 3.0,
            (("le", "+Inf"),): 3.0,
        }
        assert series["t_batch_size_sum"][()] == 10.0
        assert series["t_batch_size_count"][()] == 3.0
        assert "# TYPE t_batch_size histogram" in _text(registry)

    def test_empty_histogram_renders_no_family(self):
        registry = MetricsRegistry("t")
        sizes = registry.histogram("batch_size", "Sizes.", key="batch_size_histogram")
        assert registry.snapshot() == {"batch_size_histogram": {}}
        assert sizes.mean() is None
        assert _text(registry) == "\n"

    def test_labelled_histograms_share_one_header(self):
        first, second = MetricsRegistry("t"), MetricsRegistry("t")
        for registry, size in ((first, 2), (second, 3)):
            registry.histogram("batch_size", "Sizes.").observe(size)
        text = render_prometheus([(first, {"model": "a"}), (second, {"model": "b"})])
        assert text.count("# TYPE t_batch_size histogram") == 1
        series = parse_prometheus_text(text)
        assert series["t_batch_size_count"] == {(("model", "a"),): 1.0, (("model", "b"),): 1.0}
