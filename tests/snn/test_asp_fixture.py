"""Bit-exactness fixture of the ASP learning rule.

The engine fixture (:mod:`tests.snn.test_engine_fixture`) pins SpikeDyn and
the Diehl-Cook baseline but has no ASP case, and ASP is the one rule that
rescales the pairwise-STDP potentiation (by its recency modulation) before
it lands in the weights.  This fixture pins that arithmetic:

* ``asp`` — an ASP model with soft bounds trains on a few samples, so the
  modulated potentiation, the depression, the weight leak and the
  per-sample normalization all fire;
* ``asp_hard`` — an ASP rule with hard bounds (``soft_bounds=False``)
  trains from weights pushed outside ``[w_min, w_max]``, so the clipping of
  the updates, and of weights that were already out of bounds, is pinned
  too.

After each phase the spike counts, weights, theta and every
``OperationCounter`` field are recorded, and all of them must match the
committed fixture bit for bit.  Regenerate it only after an intentional
numerical change::

    PYTHONPATH=src python tests/snn/test_asp_fixture.py --regenerate
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

import numpy as np

from repro.core.config import SpikeDynConfig
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.learning.asp import ASPLearningRule
from repro.models import ASPModel
from repro.snn.simulation import OperationCounter

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "asp_fixture.npz"

#: Fixed geometry; changing any of these invalidates the fixture.
IMAGE_SIZE = 14
N_EXC = 40
T_SIM = 100.0
T_REST = 20.0
SEED = 91
TRAIN_SAMPLES = 4
HARD_SAMPLES = 2

COUNTER_FIELDS = tuple(OperationCounter().as_dict())


def _config() -> SpikeDynConfig:
    return SpikeDynConfig(n_input=IMAGE_SIZE ** 2, n_exc=N_EXC, t_sim=T_SIM,
                          t_rest=T_REST, seed=SEED, intensity_scale=1.0)


def _record(trace: Dict[str, np.ndarray], phase: str, model, counts) -> None:
    trace[f"{phase}/counts"] = np.asarray(counts)
    trace[f"{phase}/weights"] = np.array(model.input_weights)
    trace[f"{phase}/theta"] = np.array(model.network.group("excitatory").theta)
    counter = model.counter.as_dict()
    trace[f"{phase}/counter"] = np.array([counter[name] for name in COUNTER_FIELDS],
                                         dtype=np.int64)


def compute_trace() -> Dict[str, np.ndarray]:
    """Every phase of the fixture, recomputed from the fixed seeds."""
    config = _config()
    source = SyntheticDigits(IMAGE_SIZE, seed=SEED)
    images, _ = source.sample(TRAIN_SAMPLES + HARD_SAMPLES, rng=SEED + 1)
    images = images.reshape(len(images), -1)
    trace: Dict[str, np.ndarray] = {}

    model = ASPModel(config)
    counts = [model.train_sample(image) for image in images[:TRAIN_SAMPLES]]
    _record(trace, "asp", model, counts)

    rule = ASPLearningRule(nu_pre=config.nu_pre, nu_post=config.nu_post,
                           tau_pre=config.tau_pre, tau_post=config.tau_post,
                           soft_bounds=False)
    hard = ASPModel(config, learning_rule=rule)
    weights = hard.input_weights
    weights[::7, ::3] = config.w_max + 0.25
    weights[3::11, 1::4] = config.w_min - 0.125
    counts = [hard.train_sample(image) for image in images[TRAIN_SAMPLES:]]
    _record(trace, "asp_hard", hard, counts)
    return trace


def test_fixture_exists():
    assert FIXTURE.exists(), (
        f"ASP fixture missing at {FIXTURE}; regenerate with "
        "'PYTHONPATH=src python tests/snn/test_asp_fixture.py --regenerate'"
    )


def test_asp_reproduces_the_fixture_bit_for_bit():
    expected = dict(np.load(FIXTURE))
    actual = compute_trace()
    assert set(actual) == set(expected)
    for key in sorted(expected):
        np.testing.assert_array_equal(
            actual[key], expected[key],
            err_msg=f"ASP-fixture field {key!r} diverged",
        )


def test_fixture_exercises_every_mechanism():
    # Guards the guard: both phases must learn, spike and clip.
    trace = dict(np.load(FIXTURE))
    field = {name: index for index, name in enumerate(COUNTER_FIELDS)}
    for phase in ("asp", "asp_hard"):
        assert trace[f"{phase}/counter"][field["weight_updates"]] > 0
        assert trace[f"{phase}/counts"].sum() > 0
    config = _config()
    hard = trace["asp_hard/weights"]
    assert hard.min() >= config.w_min and hard.max() <= config.w_max


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(FIXTURE, **compute_trace())
        print(f"wrote {FIXTURE}")
    else:
        print(__doc__)
