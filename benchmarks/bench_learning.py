"""Learning at touched cost: the Diehl-Cook baseline's pairwise STDP.

The STDP kernels apply each update in place to the spiking rows/columns of
the weights, clip only that block and return the update count, instead of
building, counting and clipping a full ``weights``-shaped delta on every
spiking timestep.  This gate holds the one learning path that the
repository benchmark (``perfbench``) never runs, paper-scale Diehl-Cook
training (784 inputs, N400, T = 350 ms), to both halves of that contract:

* **equivalence** — per-sample spike counts, the learned weights and every
  ``OperationCounter`` tally equal a run on the dense GEMV oracle
  (``tests/gemv_oracle.py``), which still adds a full-matrix delta;
* **cost** — one ``train_sample`` takes at most :data:`MAX_MS_PER_SAMPLE`
  of thread CPU time, best of 3 (measured 71 ms on a 2-vCPU host, where
  full-matrix deltas took 1.31 s and the oracle takes 1.40 s).

Run with ``python -m pytest -q benchmarks/bench_learning.py -s``.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np

from repro.core.config import SpikeDynConfig
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.models import DiehlCookModel

SEED = 5
#: Samples trained on each kernel set; the fastest one is the timed figure.
SAMPLES = 3

#: Thread-CPU budget of one paper-scale Diehl-Cook ``train_sample``.
MAX_MS_PER_SAMPLE = 100.0


def _gemv_oracle():
    """A fresh dense GEMV oracle (``tests/`` is not a package)."""
    path = Path(__file__).resolve().parents[1] / "tests" / "gemv_oracle.py"
    spec = importlib.util.spec_from_file_location("gemv_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GemvOracle()


def _train(backend, images):
    """Train a fresh paper-scale Diehl-Cook model on ``images``.

    Returns the per-sample spike counts, the final weights, the operation
    counts and each sample's thread CPU time in milliseconds.
    """
    model = DiehlCookModel(SpikeDynConfig(n_input=784, n_exc=400, t_sim=350.0, seed=SEED))
    model.network.set_backend(backend)
    counts, cpu_ms = [], []
    for image in images:
        start = time.thread_time()
        counts.append(model.train_sample(image))
        cpu_ms.append(1e3 * (time.thread_time() - start))
    return np.stack(counts), model.input_weights.copy(), model.counter.as_dict(), cpu_ms


def test_diehl_cook_learns_at_touched_cost():
    images, _ = SyntheticDigits(28, seed=SEED).sample(SAMPLES, rng=SEED + 1)
    images = images.reshape(SAMPLES, -1)
    counts, weights, counter, cpu_ms = _train("sparse", images)
    oracle_counts, oracle_weights, oracle_counter, oracle_ms = _train(_gemv_oracle(), images)

    assert counts.sum() > 0, "the network never spiked: the gate checks nothing"
    assert counter["weight_updates"] > 0
    np.testing.assert_array_equal(counts, oracle_counts)
    np.testing.assert_array_equal(weights, oracle_weights)
    assert counter == oracle_counter

    best = min(cpu_ms)
    print(f"\nDiehl-Cook train_sample at N400/T=350: best {best:.1f} ms thread CPU "
          f"(per sample {', '.join(f'{ms:.1f}' for ms in cpu_ms)}); "
          f"GEMV oracle best {min(oracle_ms):.1f} ms")
    assert best <= MAX_MS_PER_SAMPLE, (
        f"Diehl-Cook train_sample took {best:.1f} ms > {MAX_MS_PER_SAMPLE} ms"
    )
