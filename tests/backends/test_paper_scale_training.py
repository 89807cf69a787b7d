"""Paper-scale multi-sample training: the reference backend vs the GEMV oracle.

The kernel conformance cases run short, tiny networks, where a backend can
pass while its learned state drifts away over many samples (a
reduced-precision backend once left the oracle's spike counts at sample 17
of this very stream).  This case trains SpikeDyn at the paper's size — N400,
784 inputs, T = 350 ms — on tasks 0-9 with three samples each, one
``train_sample`` at a time, on both kernel sets from the same seed.  Every
sample's spike counts must be identical and the final weights and
thresholds equal bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from gemv_oracle import GemvOracle

from repro.core.config import SpikeDynConfig
from repro.datasets.streams import dynamic_task_stream
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.models.spikedyn_model import SpikeDynModel

pytestmark = pytest.mark.integration

SEED = 11
SAMPLES_PER_TASK = 3


def _train(backend) -> tuple:
    model = SpikeDynModel(SpikeDynConfig(n_input=784, n_exc=400, t_sim=350.0, seed=SEED))
    model.network.set_backend(backend)
    stream = dynamic_task_stream(SyntheticDigits(28, seed=SEED),
                                 samples_per_task=SAMPLES_PER_TASK, rng=SEED + 1)
    counts = np.stack([model.train_sample(sample.image.reshape(-1)) for sample in stream])
    return counts, model.input_weights.copy(), model.network.group("excitatory").theta.copy()


def test_paper_scale_training_matches_the_oracle_bit_for_bit():
    counts, weights, theta = _train("sparse")
    oracle_counts, oracle_weights, oracle_theta = _train(GemvOracle())
    assert counts.shape == (10 * SAMPLES_PER_TASK, 400)
    assert counts.sum() > 0, "the network never spiked: the case checks nothing"
    for index, (got, expected) in enumerate(zip(counts, oracle_counts)):
        np.testing.assert_array_equal(got, expected, err_msg=f"sample {index}")
    assert np.max(np.abs(weights - oracle_weights)) == 0.0
    np.testing.assert_array_equal(theta, oracle_theta)
