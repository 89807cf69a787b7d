"""ServingMetrics unit tests: batch accounting and thread safety.

The latency window's edge cases (empty, single, full and overfull windows)
are pinned once, on the registry window, in
``tests/observability/test_metrics_registry.py``; these tests cover what the serving
declarations add on top: the counters a batch feeds, the derived mean batch
size, and a hammer of ``record_batch`` from many threads proving that a
scrape never observes a half-recorded batch.
"""

from __future__ import annotations

import math
import sys
import threading

import pytest

from repro.observability.prometheus import METRIC_PREFIX, parse_prometheus_text, render_prometheus
from repro.serving import metrics as serving_metrics
from repro.serving.metrics import LATENCY_QUANTILES, LATENCY_WINDOW, ServingMetrics

QUANTILE_KEYS = tuple(f"p{quantile}_ms" for quantile in LATENCY_QUANTILES)


class TestCounters:
    def test_batch_accounting(self):
        metrics = ServingMetrics()
        metrics.record_request()
        metrics.record_request()
        metrics.record_batch(2, [0.001, 0.002])
        metrics.record_rejected()
        metrics.record_errors(3)
        snapshot = metrics.snapshot()
        assert snapshot["requests_total"] == 2
        assert snapshot["responses_total"] == 2
        assert snapshot["rejected_total"] == 1
        assert snapshot["errors_total"] == 3
        assert snapshot["batches_total"] == 1
        assert snapshot["batch_size_histogram"] == {"2": 1}
        assert snapshot["mean_batch_size"] == pytest.approx(2.0)
        assert snapshot["latency"]["window"] == 2.0
        assert snapshot["latency"]["max_ms"] == pytest.approx(2.0)

    def test_mean_batch_size_absent_before_first_batch(self):
        assert "mean_batch_size" not in ServingMetrics().snapshot()

    def test_empty_latency_section_is_explicit_zeros(self):
        latency = ServingMetrics().snapshot()["latency"]
        assert latency["window"] == 0.0
        assert all(latency[key] == 0.0 for key in ("mean_ms", "max_ms") + QUANTILE_KEYS)

    def test_latency_window_size(self):
        assert ServingMetrics().latency.size == LATENCY_WINDOW


class TestConcurrency:
    def test_concurrent_record_batch_hammer(self, monkeypatch):
        """Many writer threads plus concurrent scrapes: totals must balance
        and no snapshot may ever contain NaN, a torn window or a batch whose
        counters and histogram disagree."""
        monkeypatch.setattr(serving_metrics, "LATENCY_WINDOW", 256)
        metrics = ServingMetrics()
        threads_n, batches_per_thread, batch_size = 8, 50, 4
        failures = []
        start = threading.Barrier(threads_n + 1)

        def writer():
            start.wait()
            for _ in range(batches_per_thread):
                metrics.record_request()
                metrics.record_batch(batch_size, [0.001] * batch_size)

        def scraper():
            start.wait()
            for _ in range(200):
                snapshot = metrics.snapshot()
                latency = snapshot["latency"]
                if any(math.isnan(latency[key]) for key in ("mean_ms", "max_ms") + QUANTILE_KEYS):
                    failures.append("NaN in snapshot")
                if latency["window"] > 256:
                    failures.append("window exceeded its size")
                batches = snapshot["batch_size_histogram"].get(str(batch_size), 0)
                if snapshot["responses_total"] != batches * batch_size:
                    failures.append("half-recorded batch")

        threads = [threading.Thread(target=writer) for _ in range(threads_n)]
        threads.append(threading.Thread(target=scraper))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: lost updates show
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        snapshot = metrics.snapshot()
        expected = threads_n * batches_per_thread
        assert snapshot["batches_total"] == expected
        assert snapshot["requests_total"] == expected
        assert snapshot["responses_total"] == expected * batch_size
        assert snapshot["batch_size_histogram"] == {str(batch_size): expected}
        assert snapshot["latency"]["window"] == 256.0
        assert snapshot["latency"]["p50_ms"] == pytest.approx(1.0)
        series = parse_prometheus_text(render_prometheus([(metrics, None)]))
        assert series[f"{METRIC_PREFIX}_batch_size_count"][()] == expected
