"""Golden-trace regression test of the batched simulation engine.

A small SpikeDyn network with a fixed seed is driven by a fixed spike train
through ``Network.run_batch`` — once with plasticity off, once with
plasticity on — and the resulting spike counts, learned weights, and adapted
thresholds must reproduce the committed fixture *bit for bit*.  The fixture
pins the engine's numerical behaviour across refactors: any change to the
integration order, the learning rule, or the batched state layout that
shifts even one ULP shows up as a failure here rather than as a silent
accuracy drift in the experiment reports.

Regenerate the fixture (only after an *intentional* numerical change) with::

    PYTHONPATH=src python tests/snn/test_golden_trace.py --regenerate
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

import numpy as np

from repro.core.architecture import build_spikedyn_network
from repro.core.config import SpikeDynConfig
from repro.core.learning import SpikeDynLearningRule

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "golden_trace.npz"

#: Fixed trace geometry; changing any of these invalidates the fixture.
N_INPUT = 64
N_EXC = 12
BATCH = 4
TIMESTEPS = 20
DENSITY = 0.1
NETWORK_SEED = 123
TRAIN_SEED = 2024


def _build_network(backend: str = "dense"):
    config = SpikeDynConfig.scaled_down(
        n_input=N_INPUT, n_exc=N_EXC, t_sim=float(TIMESTEPS),
        seed=NETWORK_SEED,
    )
    return build_spikedyn_network(
        config, learning_rule=SpikeDynLearningRule(), rng=NETWORK_SEED,
        backend=backend,
    )


def _spike_trains() -> np.ndarray:
    rng = np.random.default_rng(TRAIN_SEED)
    return rng.random((BATCH, TIMESTEPS, N_INPUT)) < DENSITY


def compute_trace(backend: str = "dense") -> Dict[str, np.ndarray]:
    """The full golden trace, recomputed from the fixed seeds."""
    trains = _spike_trains()

    inference_net = _build_network(backend)
    inference = inference_net.run_batch(trains, learning=False)
    inference_counts = np.stack(
        [result.counts("excitatory") for result in inference]
    )

    learning_net = _build_network(backend)
    learning = learning_net.run_batch(trains, learning=True)
    learning_counts = np.stack(
        [result.counts("excitatory") for result in learning]
    )

    return {
        "inference_counts": inference_counts,
        "learning_counts": learning_counts,
        "final_weights": np.array(
            learning_net.connection("input_to_exc").weights
        ),
        "final_theta": np.array(learning_net.group("excitatory").theta),
    }


def test_fixture_exists():
    assert FIXTURE.exists(), (
        f"golden-trace fixture missing at {FIXTURE}; regenerate with "
        "'PYTHONPATH=src python tests/snn/test_golden_trace.py --regenerate'"
    )


def test_run_batch_reproduces_the_golden_trace():
    expected = dict(np.load(FIXTURE))
    actual = compute_trace()
    assert set(actual) == set(expected)
    for key in sorted(expected):
        np.testing.assert_array_equal(
            actual[key], expected[key],
            err_msg=f"golden-trace field {key!r} diverged from the fixture",
        )


def test_sparse_backend_replays_the_golden_trace():
    """The event-driven backend reproduces the dense fixture.

    Spike counts are integers and must match exactly.  Weights and theta may
    in principle differ by summation-order rounding (the sparse backend
    segment-sums only the spiking weight rows), so they are held to
    double-precision tightness rather than bit equality.
    """
    expected = dict(np.load(FIXTURE))
    actual = compute_trace(backend="sparse")
    np.testing.assert_array_equal(
        actual["inference_counts"], expected["inference_counts"],
        err_msg="sparse-backend inference diverged from the golden trace",
    )
    np.testing.assert_array_equal(
        actual["learning_counts"], expected["learning_counts"],
        err_msg="sparse-backend learning diverged from the golden trace",
    )
    np.testing.assert_allclose(
        actual["final_weights"], expected["final_weights"],
        rtol=1e-10, atol=1e-12,
        err_msg="sparse-backend weights diverged from the golden trace",
    )
    np.testing.assert_allclose(
        actual["final_theta"], expected["final_theta"],
        rtol=1e-10, atol=1e-12,
        err_msg="sparse-backend theta diverged from the golden trace",
    )


def test_trace_is_stable_within_a_session():
    # Guards the guard: if recomputing the trace twice in one process ever
    # disagrees, the fixture comparison above is meaningless.
    first = compute_trace()
    second = compute_trace()
    for key in first:
        np.testing.assert_array_equal(first[key], second[key])


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(FIXTURE, **compute_trace())
        print(f"wrote {FIXTURE}")
    else:
        print(__doc__)
