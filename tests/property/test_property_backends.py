"""Cross-backend equivalence properties against the dense GEMV oracle.

The sparse event backend reorders floating-point work (gathering only
spiking rows) but must not change *what* the simulation computes: for
seeded random inputs, spike counts, predictions, learned weights, and
OperationCounter tallies have to match the dense GEMV oracle
(``tests/gemv_oracle.py``).  Spike counts and counter tallies are integers
and asserted exactly; weights are asserted to double-precision tightness
(summation-order rounding is the only permitted difference).
"""

from __future__ import annotations

import numpy as np
import pytest
from gemv_oracle import GemvOracle

from repro.core.config import SpikeDynConfig
from repro.models.asp_model import ASPModel
from repro.models.diehl_cook import DiehlCookModel
from repro.models.spikedyn_model import SpikeDynModel
from repro.serving.inference import offline_predictions

MODEL_CLASSES = {
    "spikedyn": SpikeDynModel,
    "baseline": DiehlCookModel,
    "asp": ASPModel,
}


def _config(seed):
    return SpikeDynConfig.scaled_down(n_input=64, n_exc=10, t_sim=30.0, seed=seed)


def _images(seed, count=12, n_input=64):
    return np.random.default_rng(seed).random((count, n_input)) * 0.7


def _pair(model_name, seed):
    """``(oracle, sparse)``: one model per kernel set, built alike."""
    cls = MODEL_CLASSES[model_name]
    oracle = cls(_config(seed))
    oracle.network.set_backend(GemvOracle())
    return oracle, cls(_config(seed))


@pytest.mark.parametrize("model_name", sorted(MODEL_CLASSES))
@pytest.mark.parametrize("seed", [0, 7])
class TestInferenceEquivalence:
    def test_batched_spike_counts_and_counters_match(self, model_name, seed):
        dense, sparse = _pair(model_name, seed)
        images = _images(seed)
        dense_counts = dense.respond_batch(images)
        sparse_counts = sparse.respond_batch(images)
        np.testing.assert_array_equal(sparse_counts, dense_counts)
        assert sparse.counter.as_dict() == dense.counter.as_dict()

    def test_sequential_spike_counts_match(self, model_name, seed):
        dense, sparse = _pair(model_name, seed)
        image = _images(seed, count=1)[0]
        np.testing.assert_array_equal(sparse.respond(image),
                                      dense.respond(image))


@pytest.mark.parametrize("model_name", sorted(MODEL_CLASSES))
class TestTrainingEquivalence:
    def test_training_produces_identical_counts_and_tallies(self, model_name):
        dense, sparse = _pair(model_name, seed=3)
        images = _images(3, count=6)
        dense_counts = dense.train_batch(images)
        sparse_counts = sparse.train_batch(images)
        np.testing.assert_array_equal(sparse_counts, dense_counts)
        assert sparse.counter.as_dict() == dense.counter.as_dict()
        np.testing.assert_allclose(sparse.input_weights, dense.input_weights,
                                   rtol=1e-10, atol=1e-12)

    def test_predictions_after_training_match(self, model_name):
        dense, sparse = _pair(model_name, seed=5)
        train = _images(5, count=6)
        assign = _images(6, count=8)
        labels = [i % 2 for i in range(len(assign))]
        evaluate = _images(7, count=10)
        for model in (dense, sparse):
            model.train_batch(train)
            model.assign_labels(assign, labels)
        np.testing.assert_array_equal(sparse.predict(evaluate),
                                      dense.predict(evaluate))
        np.testing.assert_array_equal(sparse.assignments, dense.assignments)


class TestServingEquivalence:
    def test_offline_predictions_are_backend_independent(self):
        dense, sparse = _pair("spikedyn", seed=9)
        images = list(_images(9, count=8))
        for model in (dense, sparse):
            model.train_batch(images[:4])
            model.assign_labels(images, [i % 3 for i in range(len(images))])
        seeds = list(range(len(images)))
        np.testing.assert_array_equal(
            offline_predictions(sparse, images, seeds),
            offline_predictions(dense, images, seeds),
        )

    def test_theta_state_is_restored_after_batches_on_both_backends(self):
        dense, sparse = _pair("spikedyn", seed=11)
        images = _images(11, count=4)
        for model in (dense, sparse):
            theta_before = model.network.group("excitatory").theta.copy()
            model.respond_batch(images)
            np.testing.assert_array_equal(
                model.network.group("excitatory").theta, theta_before
            )
