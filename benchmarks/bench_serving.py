"""Serving throughput: micro-batched replica pool vs per-request sequential.

Drives the in-process serving stack (no HTTP, so the measurement isolates
the batching win from socket noise) at concurrency 32 against two
deployments of the same artifact:

* **sequential** — ``max_batch=1``: every request is its own engine call,
  the classic request-per-inference serving shape;
* **micro-batched** — ``max_batch=32``: concurrent requests coalesce into
  one ``Network.run_batch`` call.

Both must return bit-identical predictions (each equal to the offline
batched eval path), and the micro-batched deployment must be **>= 3x**
faster — the acceptance criterion of the serving subsystem.

Estimator: :data:`PAIRS` sequential/micro-batched pairs of runs; which
deployment runs first alternates from pair to pair, so drifting machine
load cancels instead of favouring whichever runs later.  The speedup is
the median of the per-pair throughput ratios, so one preempted run moves
it no more than any other.  Every run of every pair must match the
offline reference.

Run with ``python -m pytest -q benchmarks/bench_serving.py -s``.
"""

from __future__ import annotations

import statistics
import tempfile

import numpy as np

from repro.core.config import SpikeDynConfig
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.models.spikedyn_model import SpikeDynModel
from repro.serving import (
    ReplicaPool,
    load_artifact,
    offline_predictions,
    pool_sender,
    run_load,
)

CONCURRENCY = 32
N_REQUESTS = 64
#: Alternating sequential/micro-batched pairs; the gate reads their median.
PAIRS = 9

#: Throughput advantage micro-batching must demonstrate at concurrency 32.
MIN_SPEEDUP = 3.0


def _make_artifact_and_requests(tmp_dir: str, n_exc: int = 40,
                                t_sim: float = 50.0):
    config = SpikeDynConfig.scaled_down(n_input=196, n_exc=n_exc,
                                        t_sim=t_sim, seed=0)
    artifact = load_artifact(SpikeDynModel(config).save(tmp_dir))
    source = SyntheticDigits(image_size=14, seed=0)
    images = [np.asarray(image, dtype=float)
              for image in source.generate(3, N_REQUESTS, rng=0)]
    seeds = list(range(N_REQUESTS))
    return artifact, images, seeds


def _drive(artifact, images, seeds, max_batch: int):
    # from_artifact builds an independent replica per worker, so this stays
    # correct if the worker count is ever raised.
    pool = ReplicaPool.from_artifact(artifact, workers=1,
                                     max_batch=max_batch, max_wait_ms=5.0,
                                     max_queue=4 * N_REQUESTS)
    with pool:
        return run_load(pool_sender(pool), images, seeds,
                        concurrency=CONCURRENCY)


def test_micro_batched_serving_speedup_at_c32():
    """Micro-batching is >= 3x sequential serving and prediction-identical."""
    speedups = []
    with tempfile.TemporaryDirectory() as tmp:
        artifact, images, seeds = _make_artifact_and_requests(tmp)
        reference = offline_predictions(artifact.build_model(), images, seeds)
        for pair in range(PAIRS):
            order = (1, CONCURRENCY) if pair % 2 == 0 else (CONCURRENCY, 1)
            reports = {max_batch: _drive(artifact, images, seeds, max_batch)
                       for max_batch in order}
            for report in reports.values():
                assert report.errors == []
                np.testing.assert_array_equal(report.predictions, reference)
            speedups.append(reports[CONCURRENCY].throughput_rps
                            / reports[1].throughput_rps)

    speedup = statistics.median(speedups)
    print(f"\nmicro-batched/sequential speedup {speedup:4.1f}x (median of "
          f"{PAIRS} alternating pairs: "
          f"{', '.join(f'{ratio:.1f}' for ratio in speedups)}; "
          f"concurrency={CONCURRENCY}, n={N_REQUESTS})")
    assert speedup >= MIN_SPEEDUP, (
        f"micro-batched serving at concurrency {CONCURRENCY} is only "
        f"{speedup:.1f}x faster than per-request sequential "
        f"(required: >= {MIN_SPEEDUP}x)"
    )


def test_micro_batched_serving_timing(benchmark):
    """pytest-benchmark timing of the micro-batched deployment."""
    with tempfile.TemporaryDirectory() as tmp:
        artifact, images, seeds = _make_artifact_and_requests(tmp)
        benchmark.pedantic(
            lambda: _drive(artifact, images, seeds, max_batch=CONCURRENCY),
            rounds=3,
            iterations=1,
        )


def test_sequential_serving_timing(benchmark):
    """pytest-benchmark timing of the per-request deployment (partner)."""
    with tempfile.TemporaryDirectory() as tmp:
        artifact, images, seeds = _make_artifact_and_requests(tmp)
        benchmark.pedantic(
            lambda: _drive(artifact, images, seeds, max_batch=1),
            rounds=3,
            iterations=1,
        )
