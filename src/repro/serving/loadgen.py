"""Load generation: drive a serving target at configurable concurrency.

The generator is target-agnostic: a *sender* is any callable taking
``(image, seed)`` and returning the predicted class (raising on failure).
:func:`pool_sender` drives a :class:`~repro.serving.pool.ServingPool` —
either executor, threads or shard processes — in-process (what the
benchmarks use — no HTTP noise in the measurement);
:func:`http_sender` drives one model of a running server over HTTP through
:class:`~repro.client.ServingClient` on its ``/v1`` route (what the CI
smoke test and the example use).

:func:`run_load` fans ``n`` requests over ``concurrency`` client threads
pulling from a shared work queue, records per-request latency and the
prediction of every request *by request index*, and returns a
:class:`LoadReport` — so callers can assert the served predictions against
:func:`~repro.serving.inference.offline_predictions` as well as measure
throughput.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.pool import ServingPool
from repro.utils.validation import check_positive_int

#: A sender maps ``(image, seed)`` to the predicted class.
Sender = Callable[[np.ndarray, Optional[int]], int]


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    n_requests: int
    concurrency: int
    elapsed_s: float
    predictions: np.ndarray = field(repr=False)
    latencies_s: np.ndarray = field(repr=False)
    errors: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> int:
        """Number of successful requests."""
        return self.n_requests - len(self.errors)

    @property
    def throughput_rps(self) -> float:
        """Successful requests per second of wall-clock."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.ok / self.elapsed_s

    def latency_quantile_ms(self, quantile: float) -> float:
        """Latency quantile (e.g. 50, 95, 99) over successful requests."""
        if self.latencies_s.size == 0:
            return float("nan")
        return float(np.percentile(self.latencies_s, quantile) * 1000.0)

    def summary(self) -> Dict[str, object]:
        """JSON-safe summary of the run."""
        return {
            "requests": self.n_requests,
            "ok": self.ok,
            "errors": len(self.errors),
            "concurrency": self.concurrency,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput_rps,
            "latency_p50_ms": self.latency_quantile_ms(50),
            "latency_p95_ms": self.latency_quantile_ms(95),
            "latency_p99_ms": self.latency_quantile_ms(99),
        }


def pool_sender(pool: ServingPool,
                timeout: Optional[float] = 60.0) -> Sender:
    """Sender driving a pool in-process (no HTTP): a ``ReplicaPool`` or a
    ``ShardProcessPool``."""

    def send(image: np.ndarray, seed: Optional[int]) -> int:
        return pool.predict(image, seed=seed, timeout=timeout).prediction

    return send


def http_sender(url: str, timeout: float = 30.0, *,
                model: str,
                version: Optional[str] = None,
                tenant: Optional[str] = None,
                retries: int = 0) -> Sender:
    """Sender posting to ``model``'s ``/v1`` route (``version`` pins one)
    through :class:`~repro.client.ServingClient`.

    ``retries=0`` keeps every failure visible to the load report; smoke
    tests that only care about steady state pass a positive budget.
    """
    from repro.client import ServingClient

    client = ServingClient(url, timeout=timeout, retries=retries,
                           tenant=tenant)

    def send(image: np.ndarray, seed: Optional[int]) -> int:
        body = client.predict(np.asarray(image, dtype=float).ravel(),
                              seed=seed, model=model, version=version)
        return int(body["prediction"])

    return send


def run_load(send: Sender, images: Sequence[np.ndarray],
             seeds: Optional[Sequence[Optional[int]]] = None,
             concurrency: int = 16) -> LoadReport:
    """Fire one request per image at ``concurrency`` and collect the report.

    Requests are pulled from a shared index queue by ``concurrency`` client
    threads; predictions land at their request's index, so the report's
    ``predictions`` array lines up with ``images``/``seeds`` for offline
    comparison.
    """
    check_positive_int(concurrency, "concurrency")
    n = len(images)
    if n == 0:
        raise ValueError("at least one request image is required")
    if seeds is None:
        seeds = [None] * n
    if len(seeds) != n:
        raise ValueError(f"got {n} images but {len(seeds)} seeds")

    predictions = np.full(n, -1, dtype=int)
    latencies = np.full(n, np.nan, dtype=float)
    errors: List[Tuple[int, str]] = []
    errors_lock = threading.Lock()
    cursor = iter(range(n))
    cursor_lock = threading.Lock()

    def client() -> None:
        while True:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            started = time.perf_counter()
            try:
                prediction = send(np.asarray(images[index], dtype=float),
                                  seeds[index])
            except Exception as error:  # noqa: BLE001 - recorded per request
                with errors_lock:
                    errors.append((index, f"{type(error).__name__}: {error}"))
                continue
            latencies[index] = time.perf_counter() - started
            predictions[index] = int(prediction)

    threads = [
        threading.Thread(target=client, name=f"repro-loadgen-{i}", daemon=True)
        for i in range(min(concurrency, n))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    return LoadReport(
        n_requests=n,
        concurrency=concurrency,
        elapsed_s=elapsed,
        predictions=predictions,
        latencies_s=latencies[~np.isnan(latencies)],
        errors=sorted(errors),
    )
