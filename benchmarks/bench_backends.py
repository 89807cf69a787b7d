"""Backend throughput: the reference kernels vs the dense GEMV oracle.

The sparse backend's claim mirrors the paper's: SNN work should scale with
*spike events*, not with state size.  This module asserts both halves of the
backend contract on the ``run_batch`` inference hot path at paper-size
dimensions (784 inputs, N400) and realistic input spike density (3%, well
under the 5% bound the claim is made at), against the dense vector-matrix
(GEMV) oracle kept in ``tests/gemv_oracle.py``:

* **equivalence** — the sparse backend produces exactly the same spike
  counts and OperationCounter tallies as the oracle;
* **throughput** — the sparse backend is at least 1.5x faster (measured
  ~2.5-3x on developer hardware and CI).
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np

from repro.core.config import SpikeDynConfig
from repro.models.spikedyn_model import SpikeDynModel

#: Paper-size inference geometry: 28x28 inputs into the N400 network.
N_INPUT = 784
N_EXC = 400
BATCH_SIZE = 32
TIMESTEPS = 40

#: Input spike density of the benchmark workload (the claim holds for <= 5%).
SPIKE_DENSITY = 0.03

#: Wall-clock advantage the sparse backend must demonstrate.
MIN_SPEEDUP = 1.5


def _gemv_oracle():
    """A fresh dense GEMV oracle (``tests/`` is not a package)."""
    path = Path(__file__).resolve().parents[1] / "tests" / "gemv_oracle.py"
    spec = importlib.util.spec_from_file_location("gemv_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GemvOracle()


def _make_network(backend):
    config = SpikeDynConfig.scaled_down(
        n_input=N_INPUT, n_exc=N_EXC, t_sim=float(TIMESTEPS), seed=0,
    )
    network = SpikeDynModel(config).network
    network.set_backend(backend)
    return network


def _spike_trains() -> np.ndarray:
    rng = np.random.default_rng(42)
    return rng.random((BATCH_SIZE, TIMESTEPS, N_INPUT)) < SPIKE_DENSITY


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_sparse_backend_speedup_at_low_density():
    """Sparse is >= 1.5x faster than the GEMV oracle at 3% density and
    result-equal."""
    trains = _spike_trains()
    dense_net = _make_network(_gemv_oracle())
    sparse_net = _make_network("sparse")

    # Correctness first: identical spike counts and operation tallies.
    dense_results = dense_net.run_batch(trains, learning=False)
    sparse_results = sparse_net.run_batch(trains, learning=False)
    for dense_result, sparse_result in zip(dense_results, sparse_results):
        np.testing.assert_array_equal(dense_result.counts("excitatory"),
                                      sparse_result.counts("excitatory"))
    assert dense_net.counter.as_dict() == sparse_net.counter.as_dict()

    dense_s = _best_of(lambda: dense_net.run_batch(trains, learning=False))
    sparse_s = _best_of(lambda: sparse_net.run_batch(trains, learning=False))
    speedup = dense_s / sparse_s
    print(f"\ndense {dense_s * 1e3:8.1f} ms   sparse {sparse_s * 1e3:8.1f} ms"
          f"   speedup {speedup:4.2f}x "
          f"({N_INPUT}x{N_EXC}, B={BATCH_SIZE}, "
          f"density={SPIKE_DENSITY:.0%})")
    assert speedup >= MIN_SPEEDUP, (
        f"sparse backend at {SPIKE_DENSITY:.0%} input density is only "
        f"{speedup:.2f}x faster than the GEMV oracle (required: >= {MIN_SPEEDUP}x)"
    )


def test_cross_backend_prediction_equivalence():
    """A trained model predicts identically on sparse and on the oracle."""
    config = SpikeDynConfig.scaled_down(n_input=196, n_exc=30, t_sim=40.0,
                                        seed=0)
    rng = np.random.default_rng(0)
    train_images = rng.random((6, 196)) * 0.7
    assign_images = rng.random((9, 196)) * 0.7
    labels = [index % 3 for index in range(len(assign_images))]
    eval_images = rng.random((12, 196)) * 0.7

    dense_model = SpikeDynModel(config)
    dense_model.network.set_backend(_gemv_oracle())
    sparse_model = SpikeDynModel(config, backend="sparse")
    for model in (dense_model, sparse_model):
        model.train_batch(train_images)
        model.assign_labels(assign_images, labels)

    np.testing.assert_array_equal(sparse_model.predict(eval_images),
                                  dense_model.predict(eval_images))
    np.testing.assert_array_equal(sparse_model.assignments,
                                  dense_model.assignments)


def test_backend_timing(benchmark):
    """pytest-benchmark timing of the sparse path (for the harness report)."""
    network = _make_network("sparse")
    trains = _spike_trains()
    benchmark.pedantic(
        lambda: network.run_batch(trains, learning=False),
        rounds=3,
        warmup_rounds=1,
    )
