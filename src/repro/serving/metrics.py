"""Request, batch and latency metrics of one serving pool.

:class:`ServingMetrics` is the pool's
:class:`~repro.observability.metrics.MetricsRegistry`; the pool adds its
queue depth, drift state and identity, a process pool its shard state.  The
latency quantiles over the last :data:`LATENCY_WINDOW` requests are computed
at scrape time, so recording a batch costs one lock acquisition.
"""

from __future__ import annotations

from typing import Sequence

from repro.observability.metrics import MetricsRegistry
from repro.observability.prometheus import METRIC_PREFIX

#: Requests in the rolling latency window.
LATENCY_WINDOW = 4096

#: Quantiles reported by the latency window.
LATENCY_QUANTILES = (50, 95, 99)


class ServingMetrics(MetricsRegistry):
    """Aggregate request/batch/latency statistics of one serving deployment."""

    def __init__(self) -> None:
        super().__init__(METRIC_PREFIX)
        self.uptime()
        self.requests = self.counter("requests_total", "Requests accepted into the queue.")
        self.responses = self.counter("responses_total", "Requests answered by a worker.")
        self.errors = self.counter("errors_total", "Requests failed inside a worker.")
        self.rejected = self.counter(
            "rejected_total", "Requests shed by backpressure or validation."
        )
        self.batches = self.counter("batches_total", "Micro-batches executed.")
        self.batch_size = self.histogram(
            "batch_size",
            "Distribution of executed micro-batch sizes.",
            key="batch_size_histogram",
        )
        self.gauge("mean_batch_size", "Mean executed micro-batch size.", read=self.batch_size.mean)
        self.latency = self.window(
            "latency",
            "Request latency over the rolling window (ms)",
            size=LATENCY_WINDOW,
            quantiles=LATENCY_QUANTILES,
            unit="ms",
            count_key="window",
            families=("latency_window", "latency_ms", "latency_mean_ms", "latency_max_ms"),
        )

    def record_request(self) -> None:
        """One request accepted into the queue."""
        self.requests.inc()

    def record_rejected(self) -> None:
        """One request shed by backpressure (queue full) or validation."""
        self.rejected.inc()

    def record_batch(self, size: int, latencies_s: Sequence[float]) -> None:
        """One completed micro-batch with its per-request latencies."""
        latencies_ms = [float(latency) * 1000.0 for latency in latencies_s]
        with self.lock:
            self.batches.inc()
            self.responses.inc(int(size))
            self.batch_size.observe(size)
            self.latency.extend(latencies_ms)

    def record_errors(self, count: int = 1) -> None:
        """``count`` requests failed inside a worker."""
        self.errors.inc(int(count))
