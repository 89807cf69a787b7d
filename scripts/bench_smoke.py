#!/usr/bin/env python
"""CI smoke benchmark: tiny-size timings of the repository's hot paths.

Runs a handful of representative workloads at deliberately tiny sizes —
batched vs sequential inference on the simulation engine, one training
stream, and two paper-experiment drivers — and writes the wall-clock
timings to a JSON file.  The CI pipeline uploads that file as an artifact
on every push, seeding a performance trajectory across PRs without gating
merges on noisy shared-runner timings.

Usage::

    python scripts/bench_smoke.py --output bench-smoke.json
    python scripts/bench_smoke.py --batch-size 32 --repeats 3
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict


def _time_best_of(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn`` (min reduces noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _gemv_oracle():
    """The dense GEMV oracle of the test suite (``tests/`` is not a package)."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "tests" / "gemv_oracle.py"
    spec = importlib.util.spec_from_file_location("gemv_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GemvOracle()


def run_smoke(batch_size: int, repeats: int) -> Dict[str, object]:
    """Execute every smoke workload and return the timing report."""
    import numpy as np

    import repro
    from repro.core.config import SpikeDynConfig
    from repro.datasets.synthetic_mnist import SyntheticDigits
    from repro.experiments import (
        run_architecture_reduction,
        run_processing_time_study,
    )
    from repro.experiments.common import ExperimentScale
    from repro.models.spikedyn_model import SpikeDynModel

    config = SpikeDynConfig.scaled_down(n_input=196, n_exc=40, t_sim=40.0, seed=0)
    source = SyntheticDigits(image_size=14, seed=0)
    images = source.generate(3, batch_size, rng=0)

    timings: Dict[str, float] = {}

    # Fixed reference workload used by bench_compare.py to normalize the
    # absolute timings: dividing every *_s metric by the machine's
    # calibration time cancels raw hardware speed, so a baseline recorded on
    # one machine gates meaningfully on another.  The workload deliberately
    # mirrors the simulation engine's profile — a Python loop over small
    # numpy operations (below BLAS threading thresholds), not one large
    # GEMM — and uses no repro code, so engine optimizations still register
    # as improvements instead of being normalized away.
    calib_rng = np.random.default_rng(0)
    calib_matrix = calib_rng.standard_normal((64, 256))
    calib_vector = calib_rng.standard_normal(256)

    def calibration() -> None:
        vector = calib_vector
        total = 0.0
        for _ in range(300):
            spikes = np.tanh(calib_matrix @ vector)
            vector = vector * 0.99
            vector[:64] += 0.01 * spikes
            total += float(spikes.sum())

    timings["calibration_s"] = _time_best_of(calibration, max(3, repeats))

    model = SpikeDynModel(config)
    trains = model.encode_batch(images)

    def sequential_inference() -> None:
        for train in trains:
            model.network.run_sample(train, learning=False)

    def batched_inference() -> None:
        model.network.run_batch(trains, learning=False)

    timings["inference_sequential_s"] = _time_best_of(sequential_inference, repeats)
    timings["inference_batched_s"] = _time_best_of(batched_inference, repeats)
    timings["inference_speedup_x"] = (
        timings["inference_sequential_s"] / timings["inference_batched_s"]
    )

    def training_stream() -> None:
        fresh = SpikeDynModel(config)
        for image in images[: max(2, batch_size // 8)]:
            fresh.train_sample(image)

    timings["training_stream_s"] = _time_best_of(training_stream, repeats)

    # Compute backends: the sparse reference kernels vs the dense GEMV
    # oracle kept in tests/gemv_oracle.py, on the batched inference hot path.
    # The comparison runs at paper-like input width (28x28) with a mid-size
    # excitatory layer and a low-density random spike train — the regime
    # the sparse kernels are built for.
    backend_trains = (
        np.random.default_rng(42).random((16, 30, 784)) < 0.03
    )

    def backend_runner(backend):
        backend_config = SpikeDynConfig.scaled_down(
            n_input=784, n_exc=200, t_sim=30.0, seed=0
        )
        network = SpikeDynModel(backend_config).network
        network.set_backend(backend)
        return lambda: network.run_batch(backend_trains, learning=False)

    timings["backends_dense_s"] = _time_best_of(backend_runner(_gemv_oracle()),
                                                repeats)
    timings["backends_sparse_s"] = _time_best_of(backend_runner("sparse"),
                                                 repeats)
    timings["backends_speedup_x"] = (
        timings["backends_dense_s"] / timings["backends_sparse_s"]
    )

    # Serving: micro-batched replica pool vs per-request sequential serving
    # under concurrent load (the in-process stack behind `repro serve`).
    import tempfile

    from repro.serving import ReplicaPool, load_artifact, pool_sender, run_load

    # Two rounds of the image set amortize the fixed pool start-up cost, so
    # the metric tracks the steady-state batching win, not thread creation.
    serve_images = [np.asarray(image, dtype=float) for image in images] * 2
    serve_seeds = list(range(len(serve_images)))

    with tempfile.TemporaryDirectory(prefix="repro-bench-smoke-") as tmp:
        artifact = load_artifact(model.save(tmp))

        def serve_with(max_batch: int) -> None:
            # from_artifact gives every worker an independent replica.
            pool = ReplicaPool.from_artifact(
                artifact, workers=1, max_batch=max_batch, max_wait_ms=5.0,
                max_queue=4 * len(serve_images),
            )
            with pool:
                report = run_load(pool_sender(pool), serve_images,
                                  serve_seeds,
                                  concurrency=min(32, len(serve_images)))
            if report.errors:  # pragma: no cover - invalidates the timing
                raise RuntimeError(
                    f"serving smoke failed: {report.errors[:3]}"
                )

        timings["serving_sequential_s"] = _time_best_of(
            lambda: serve_with(1), repeats
        )
        timings["serving_batched_s"] = _time_best_of(
            lambda: serve_with(batch_size), repeats
        )
    timings["serving_speedup_x"] = (
        timings["serving_sequential_s"] / timings["serving_batched_s"]
    )

    # Serving control plane: process shards vs the thread pool at identical
    # worker counts.  Both pools are started (shard processes spawned and
    # loaded) and warmed with one untimed pass before any clock runs, so the
    # metric tracks steady-state dispatch throughput, not spawn cost.  The
    # speedup only exceeds 1x on multi-core machines (the engine is
    # GIL-bound in threads); the ratio gate is one-sided, so a single-core
    # baseline still gates meaningfully on multi-core CI runners.
    from repro.serving import ShardProcessPool

    serving_workers = 2

    with tempfile.TemporaryDirectory(prefix="repro-bench-smoke-mp-") as tmp:
        artifact = load_artifact(model.save(tmp))
        sp_pool = ReplicaPool.from_artifact(
            artifact, workers=serving_workers, max_batch=8, max_wait_ms=5.0,
            max_queue=4 * len(serve_images),
        )
        mp_pool = ShardProcessPool.from_artifact(
            artifact, shards=serving_workers, max_batch=8, max_wait_ms=5.0,
            max_queue=4 * len(serve_images),
        )

        def drive(pool) -> None:
            report = run_load(pool_sender(pool), serve_images, serve_seeds,
                              concurrency=min(64, len(serve_images)))
            if report.errors:  # pragma: no cover - invalidates the timing
                raise RuntimeError(
                    f"serving mp smoke failed: {report.errors[:3]}"
                )

        with sp_pool:
            drive(sp_pool)  # warm-up
            timings["serving_sp_s"] = _time_best_of(
                lambda: drive(sp_pool), repeats
            )
        with mp_pool:
            drive(mp_pool)  # warm-up
            timings["serving_mp_s"] = _time_best_of(
                lambda: drive(mp_pool), repeats
            )
    timings["serving_mp_speedup_x"] = (
        timings["serving_sp_s"] / timings["serving_mp_s"]
    )

    # Distributed-tracing overhead: the same requests, with and without an
    # active trace.  Untraced requests pay one contextvar read; traced
    # requests additionally record queue_wait/serve_batch/encode/kernel
    # spans, batched into the ledger write the untraced path performs
    # anyway.  The overhead percentage is machine-independent by
    # construction (same machine, same workload, back to back), so
    # bench_history gates it absolutely (<= 3 %) instead of against the
    # calibration-normalized baseline.  Measurement hygiene matters more
    # than elsewhere because the quantity is a *difference* of two noisy
    # timings, so three choices keep the estimator's noise floor well
    # under the gate:
    #
    # * requests run the paper's full 350-step presentation, the workload
    #   the overhead claim is actually about — against a toy presentation
    #   the fixed per-span cost reads as an inflated percentage;
    # * the pool serves with no batching wait (the stream is sequential,
    #   so ``max_wait_ms`` would only add condvar-scheduling jitter);
    # * the variants alternate request by request and each request keeps
    #   its best-of-``repeats`` time, so drifting machine load cancels
    #   pairwise instead of biasing whichever variant ran later.
    from repro.observability.ledger import RunLedger
    from repro.observability.tracing import TraceContext, trace_scope

    trace_model = SpikeDynModel(
        SpikeDynConfig.scaled_down(n_input=196, n_exc=40, t_sim=350.0, seed=0)
    )
    trace_images = serve_images[:16]
    trace_seeds = serve_seeds[:16]
    with tempfile.TemporaryDirectory(prefix="repro-bench-smoke-tr-") as tmp:
        artifact = load_artifact(trace_model.save(tmp))
        trace_pool = ReplicaPool.from_artifact(
            artifact, workers=1, max_batch=8, max_wait_ms=0.0,
            max_queue=4 * len(serve_images),
            ledger=RunLedger(Path(tmp) / "ledger"),
        )
        with trace_pool:
            for image, seed in zip(trace_images, trace_seeds):  # warm-up
                trace_pool.predict(image, seed=seed, timeout=120.0)
            best_untraced = [float("inf")] * len(trace_images)
            best_traced = [float("inf")] * len(trace_images)
            # Five paired passes minimum: the gate sits at 3 % and each
            # extra pass tightens the per-request minima that the
            # difference is taken over.
            for repeat in range(max(5, repeats)):
                for index, (image, seed) in enumerate(
                    zip(trace_images, trace_seeds)
                ):
                    started = time.perf_counter()
                    trace_pool.predict(image, seed=seed, timeout=120.0)
                    best_untraced[index] = min(
                        best_untraced[index], time.perf_counter() - started
                    )
                    started = time.perf_counter()
                    with trace_scope(
                        TraceContext(trace_id=f"bench-smoke-{repeat}-{index}")
                    ):
                        trace_pool.predict(image, seed=seed, timeout=120.0)
                    best_traced[index] = min(
                        best_traced[index], time.perf_counter() - started
                    )
            timings["tracing_untraced_s"] = sum(best_untraced)
            timings["tracing_traced_s"] = sum(best_traced)
    timings["tracing_overhead_pct"] = max(
        0.0,
        (timings["tracing_traced_s"] - timings["tracing_untraced_s"])
        / timings["tracing_untraced_s"] * 100.0,
    )

    scale = ExperimentScale.tiny(network_sizes=(10,), class_sequence=(0, 1),
                                 samples_per_task=2, eval_samples_per_class=2,
                                 t_sim=30.0)
    timings["experiment_table2_s"] = _time_best_of(
        lambda: run_processing_time_study(scale), 1
    )
    timings["experiment_fig4_s"] = _time_best_of(
        lambda: run_architecture_reduction(scale), 1
    )

    return {
        "version": repro.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "batch_size": batch_size,
        "repeats": repeats,
        "timings": timings,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench-smoke.json",
                        help="path of the timing JSON to write")
    parser.add_argument("--batch-size", type=int, default=32,
                        help="batch size of the inference workloads")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions per workload (best-of timing)")
    args = parser.parse_args(argv)

    report = run_smoke(max(1, args.batch_size), max(1, args.repeats))
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for name, seconds in sorted(report["timings"].items()):
        print(f"{name:30s} {seconds:10.4f}")
    print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
