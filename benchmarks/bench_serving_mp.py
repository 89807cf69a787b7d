"""Multi-process serving throughput: shard pool vs single-process pool.

The pure-Python simulation engine holds the GIL between numpy calls, so a
thread-based :class:`ReplicaPool` is pinned to roughly one core no matter
how many workers it runs.  :class:`ShardProcessPool` moves each worker into
its own OS process; this benchmark drives both deployments of the same
artifact at **concurrency 64** and gates on the multi-process speedup.

Method
------
Both pools are started (and the shard processes spawned and loaded) before
any clock runs, and each deployment serves one untimed warm-up pass, so the
measurement is steady-state serving only — no interpreter start-up, no
artifact loads, no first-batch effects.  ``max_batch`` is set well below the
request count so the queue always holds several batches and the shards can
actually run them concurrently.

Estimator: :data:`PAIRS` single-process/shard pairs of measured passes;
which deployment runs first alternates from pair to pair, so drifting
machine load cancels instead of favouring whichever runs later.  The
speedup is the median of the per-pair throughput ratios, so one preempted
pass moves it no more than any other.  Every pass must match the offline
reference.

Gate
----
Scaling requires cores.  On runners with >= 4 CPUs (the CI case) the shard
pool must be **>= 2x** the single-process pool; with 2-3 CPUs the bound
relaxes to the shard headroom available; on a single core the throughput
assertion is skipped outright — process shards cannot beat the GIL without
a second core — but the bit-equivalence assertions still run everywhere.

Run with ``python -m pytest -q benchmarks/bench_serving_mp.py -s``.
"""

from __future__ import annotations

import os
import statistics
import tempfile

import numpy as np

from repro.core.config import SpikeDynConfig
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.models.spikedyn_model import SpikeDynModel
from repro.serving import (
    ReplicaPool,
    ShardProcessPool,
    load_artifact,
    offline_predictions,
    pool_sender,
    run_load,
)

CONCURRENCY = 64
N_REQUESTS = 64

#: Micro-batch bound — small enough that N_REQUESTS forms many batches,
#: so there is always shard-level parallelism to exploit.
MAX_BATCH = 8

#: Alternating single-process/shard pairs; the gate reads their median.
PAIRS = 9

#: Required multi-process speedup on a >= 4-core runner.
MIN_SPEEDUP = 2.0


def _shard_count() -> int:
    return max(1, min(4, os.cpu_count() or 1))


def _make_artifact_and_requests(tmp_dir: str):
    config = SpikeDynConfig.scaled_down(n_input=196, n_exc=40,
                                        t_sim=50.0, seed=0)
    artifact = load_artifact(SpikeDynModel(config).save(tmp_dir))
    source = SyntheticDigits(image_size=14, seed=0)
    images = [np.asarray(image, dtype=float)
              for image in source.generate(3, N_REQUESTS, rng=0)]
    seeds = list(range(N_REQUESTS))
    return artifact, images, seeds


def _load(pool, images, seeds):
    """One pass of every request against an already-started pool."""
    return run_load(pool_sender(pool), images, seeds, concurrency=CONCURRENCY)


def test_multiprocess_serving_speedup_at_c64():
    """Shard pool >= 2x the single-process pool (cores permitting)."""
    shards = _shard_count()
    speedups = []
    with tempfile.TemporaryDirectory() as tmp:
        artifact, images, seeds = _make_artifact_and_requests(tmp)
        reference = offline_predictions(artifact.build_model(), images, seeds)

        sp_pool = ReplicaPool.from_artifact(
            artifact, workers=shards, max_batch=MAX_BATCH, max_wait_ms=5.0,
            max_queue=4 * N_REQUESTS,
        )
        mp_pool = ShardProcessPool.from_artifact(
            artifact, shards=shards, max_batch=MAX_BATCH, max_wait_ms=5.0,
            max_queue=4 * N_REQUESTS,
        )
        with sp_pool, mp_pool:
            for pool in (sp_pool, mp_pool):
                _load(pool, images, seeds)  # warm-up, untimed
            for pair in range(PAIRS):
                order = (sp_pool, mp_pool) if pair % 2 == 0 else (mp_pool, sp_pool)
                reports = {pool: _load(pool, images, seeds) for pool in order}
                for report in reports.values():
                    assert report.errors == []
                    np.testing.assert_array_equal(report.predictions, reference)
                speedups.append(reports[mp_pool].throughput_rps
                                / reports[sp_pool].throughput_rps)
        assert mp_pool.respawns_total == 0  # a crashy run is not a benchmark

    speedup = statistics.median(speedups)
    cpus = os.cpu_count() or 1
    print(f"\nmulti-process/single-process speedup {speedup:4.2f}x (median of "
          f"{PAIRS} alternating pairs: "
          f"{', '.join(f'{ratio:.2f}' for ratio in speedups)}; "
          f"shards={shards}, cpus={cpus}, concurrency={CONCURRENCY})")

    if cpus >= 4:
        required = MIN_SPEEDUP
    elif cpus >= 2:
        # 2-3 cores bound the theoretical speedup at the core count; demand
        # a clear win but leave room for the dispatch/IPC overhead.
        required = 1.2
    else:
        print("single-core runner: multi-process speedup assertion skipped "
              "(equivalence still verified)")
        return
    assert speedup >= required, (
        f"multi-process serving at concurrency {CONCURRENCY} is only "
        f"{speedup:.2f}x (median of {PAIRS} pairs) the single-process pool "
        f"on {cpus} CPUs "
        f"(required: >= {required}x)"
    )


def test_multiprocess_serving_timing(benchmark):
    """pytest-benchmark timing of the steady-state shard-pool deployment."""
    with tempfile.TemporaryDirectory() as tmp:
        artifact, images, seeds = _make_artifact_and_requests(tmp)
        pool = ShardProcessPool.from_artifact(
            artifact, shards=_shard_count(), max_batch=MAX_BATCH,
            max_wait_ms=5.0, max_queue=4 * N_REQUESTS,
        )
        with pool:
            run_load(pool_sender(pool), images, seeds,
                     concurrency=CONCURRENCY)  # warm-up
            benchmark.pedantic(
                lambda: run_load(pool_sender(pool), images, seeds,
                                 concurrency=CONCURRENCY),
                rounds=3,
                iterations=1,
            )
