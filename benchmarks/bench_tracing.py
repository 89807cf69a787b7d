"""Tracing is pay-for-use: traced serving requests cost at most 3 % more.

An untraced request pays one contextvar read.  A traced one also records
its queue_wait/serve_batch/encode/kernel spans, batched into the ledger
write the pool makes for every batch anyway.  This gate serves the same
requests both ways on one :class:`ReplicaPool` (SpikeDyn N40, T = 350 ms,
16 requests, a ledger attached, ``max_wait_ms=0`` so a sequential stream
waits on no batching timer) and measures the overhead fresh on every run.

Estimator: each request runs once untraced and once traced, back to back,
in :data:`PASSES` passes; which variant runs first alternates from pair to
pair, so drifting machine load cancels instead of favouring whichever
variant runs later.  The overhead is the median of the per-pair
traced/untraced wall-time ratios, minus one.  A median of paired ratios
shrugs off the odd preempted request that a difference of sums takes in
full.

Every traced request must leave its spans in the ledger (else the gate
measures nothing), and tracing must not change a prediction.

Run with ``python -m pytest -q benchmarks/bench_tracing.py -s``.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.config import SpikeDynConfig
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.models.spikedyn_model import SpikeDynModel
from repro.observability import KIND_SPAN, RunLedger, TraceContext, trace_scope
from repro.serving import ReplicaPool, load_artifact

N_REQUESTS = 16
#: Paired passes over the request set; at least 20 keep the median steady.
PASSES = 20

#: Ceiling of the median traced/untraced overhead, in percent.
MAX_OVERHEAD_PCT = 3.0


def _timed_predict(pool, image, seed, trace_id=None):
    """``(seconds, prediction)`` of one request, traced when ``trace_id`` is set."""
    started = time.perf_counter()
    if trace_id is None:
        result = pool.predict(image, seed=seed, timeout=120.0)
    else:
        with trace_scope(TraceContext(trace_id=trace_id)):
            result = pool.predict(image, seed=seed, timeout=120.0)
    return time.perf_counter() - started, result.prediction


def test_tracing_overhead_is_at_most_3_pct():
    config = SpikeDynConfig.scaled_down(n_input=196, n_exc=40, t_sim=350.0, seed=0)
    images = [
        np.asarray(image, dtype=float)
        for image in SyntheticDigits(image_size=14, seed=0).generate(3, N_REQUESTS, rng=0)
    ]
    ratios, trace_ids = [], set()
    with tempfile.TemporaryDirectory(prefix="repro-bench-tracing-") as tmp:
        ledger = RunLedger(Path(tmp) / "ledger")
        artifact = load_artifact(SpikeDynModel(config).save(tmp))
        pool = ReplicaPool.from_artifact(
            artifact, workers=1, max_batch=8, max_wait_ms=0.0, ledger=ledger
        )
        with pool:
            for seed, image in enumerate(images):  # warm-up
                pool.predict(image, seed=seed, timeout=120.0)
            for repeat in range(PASSES):
                for seed, image in enumerate(images):
                    trace_id = f"bench-tracing-{repeat}-{seed}"
                    trace_ids.add(trace_id)
                    if (repeat + seed) % 2:
                        traced, traced_label = _timed_predict(pool, image, seed, trace_id)
                        untraced, label = _timed_predict(pool, image, seed)
                    else:
                        untraced, label = _timed_predict(pool, image, seed)
                        traced, traced_label = _timed_predict(pool, image, seed, trace_id)
                    assert traced_label == label
                    ratios.append(traced / untraced)
        assert {span["trace_id"] for span in ledger.entries(kind=KIND_SPAN)} == trace_ids

    overhead_pct = 100.0 * (statistics.median(ratios) - 1.0)
    quartiles = statistics.quantiles(ratios, n=4)
    print(
        f"\ntracing overhead {overhead_pct:+.2f} % (median of {len(ratios)} paired "
        f"traced/untraced ratios; quartiles {quartiles[0]:.3f}, {quartiles[2]:.3f})"
    )
    assert overhead_pct <= MAX_OVERHEAD_PCT, (
        f"traced requests cost {overhead_pct:.2f} % more than untraced ones "
        f"(ceiling {MAX_OVERHEAD_PCT} %)"
    )
