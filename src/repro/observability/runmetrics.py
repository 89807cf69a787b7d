"""Runner-side metrics: scrape-based monitoring of long ``run-all`` campaigns.

:class:`RunnerMetrics` declares the scheduler's metrics on a
:class:`~repro.observability.metrics.MetricsRegistry`, the same registry the
serving pools use.  The :class:`~repro.runner.scheduler.ParallelRunner`
feeds job transitions into it: jobs started/completed/failed/timed-out,
cache and manifest shortcuts, queue depth, in-flight workers, and
per-experiment latency quantiles over a bounded window.

:class:`RunnerMetricsServer` exposes the sink over HTTP (``GET /metrics`` in
Prometheus text exposition 0.0.4, ``GET /metrics.json`` as raw JSON) so a
multi-hour campaign can be watched by the same scrape stack as the serving
tier; ``repro run-all --metrics-port N`` wires it up.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from repro.observability.metrics import MetricsRegistry
from repro.observability.prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus

#: Prefix of every exported runner metric.
RUNNER_METRIC_PREFIX = "repro_runner"

#: Executed jobs kept in each experiment's latency window.
JOB_WINDOW = 1024

#: Per-experiment latency quantiles reported by the job window.
RUNNER_LATENCY_QUANTILES = (50, 95)


class RunnerMetrics(MetricsRegistry):
    """Aggregate job statistics of one scheduler run (thread-safe)."""

    def __init__(self) -> None:
        super().__init__(RUNNER_METRIC_PREFIX)
        self.uptime()
        self.started = self.counter(
            "jobs_started_total", "Jobs handed to a worker (or executed inline)."
        )
        self.completed = self.counter("jobs_completed_total", "Executed jobs that completed.")
        self.failed = self.counter("jobs_failed_total", "Executed jobs that failed or crashed.")
        self.timeout = self.counter("jobs_timeout_total", "Executed jobs killed at their deadline.")
        self.cached = self.counter("jobs_cached_total", "Jobs served from the result cache.")
        self.resumed = self.counter("jobs_resumed_total", "Jobs served from the run manifest.")
        self.queue_depth = self.gauge("queue_depth", "Jobs waiting for a free worker.")
        self.running = self.gauge("running_jobs", "Jobs currently executing.", key="running")
        self.workers = self.gauge("workers", "Configured worker-process slots.")
        self.gauge(
            "worker_utilization",
            "Fraction of worker slots currently busy.",
            read=self._utilization,
        )
        self.job_seconds = self.window(
            "experiments",
            "Per-experiment job latency (seconds)",
            size=JOB_WINDOW,
            quantiles=RUNNER_LATENCY_QUANTILES,
            unit="s",
            count_key="count",
            families=("job_seconds_count", "job_seconds", "job_seconds_mean", "job_seconds_max"),
            label="experiment",
        )

    def _utilization(self) -> float:
        with self.lock:
            workers, running = self.workers.value, self.running.value
        return running / workers if workers else 0.0

    # -- recording (called by the scheduler) ---------------------------------

    def set_workers(self, workers: int) -> None:
        self.workers.set(int(workers))

    def set_progress(self, queue_depth: int, running: int) -> None:
        """Current pending-job count and in-flight worker count."""
        with self.lock:
            self.queue_depth.set(int(queue_depth))
            self.running.set(int(running))

    def record_started(self) -> None:
        self.started.inc()

    def record_finished(self, record: Any) -> None:
        """One terminal job record (executed, cached, or resumed)."""
        source = getattr(record, "source", "run")
        status = getattr(record, "status", "?")
        if source in ("cache", "manifest"):
            (self.cached if source == "cache" else self.resumed).inc()
            return
        outcome = {"completed": self.completed, "timeout": self.timeout}.get(status, self.failed)
        with self.lock:
            outcome.inc()
            self.job_seconds.extend(
                [float(getattr(record, "elapsed", 0.0))],
                label=str(getattr(record, "experiment", "?")),
            )


class _RunnerMetricsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    metrics: RunnerMetrics


class _MetricsHandler(BaseHTTPRequestHandler):
    server: _RunnerMetricsHTTPServer

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # scrape traffic stays off stderr

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        if self.path == "/metrics":
            text = render_prometheus([(self.server.metrics, None)])
            self._send(200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
            return
        if self.path == "/metrics.json":
            body = json.dumps(self.server.metrics.snapshot()).encode("utf-8")
            self._send(200, body, "application/json")
            return
        if self.path == "/healthz":
            self._send(200, b'{"status": "ok"}', "application/json")
            return
        self._send(404, b'{"error": "unknown path"}', "application/json")


class RunnerMetricsServer:
    """Background HTTP endpoint exposing one :class:`RunnerMetrics` sink.

    Parameters
    ----------
    metrics:
        The sink to expose.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address`).
    """

    def __init__(self, metrics: RunnerMetrics, host: str = "127.0.0.1", port: int = 0) -> None:
        self.metrics = metrics
        self._httpd = _RunnerMetricsHTTPServer((host, port), _MetricsHandler)
        self._httpd.metrics = metrics
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "RunnerMetricsServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-runner-metrics",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "RunnerMetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
