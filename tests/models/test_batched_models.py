"""Batched inference and training at the model layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SpikeDynConfig
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.models.base import DEFAULT_EVAL_BATCH_SIZE
from repro.models.diehl_cook import DiehlCookModel
from repro.models.spikedyn_model import SpikeDynModel


@pytest.fixture
def config() -> SpikeDynConfig:
    return SpikeDynConfig.scaled_down(n_input=64, n_exc=10, t_sim=20.0, seed=0)


@pytest.fixture
def images():
    source = SyntheticDigits(image_size=8, seed=0)
    return [source.generate(cls, 3, rng=cls)[index]
            for cls in (0, 1, 2) for index in range(3)]


class TestRespondBatch:
    def test_matches_a_respond_loop_when_adaptation_is_frozen(self, config, images):
        batched_model = SpikeDynModel(config)
        sequential_model = SpikeDynModel(config)
        for model in (batched_model, sequential_model):
            model.network.group("excitatory").adapt_theta = False

        batched = batched_model.respond_batch(images)
        sequential = np.stack([sequential_model.respond(image) for image in images])
        np.testing.assert_array_equal(batched, sequential)

    def test_chunks_of_one_leave_theta_and_counts_unchanged(self, config, images):
        """A chunk of one sample is no longer a sequential path: it runs
        through the batch engine like any other chunk size."""
        model = SpikeDynModel(config)
        theta_before = model.network.group("excitatory").theta.copy()
        single = model.respond_batch(images, batch_size=1)
        np.testing.assert_array_equal(model.network.group("excitatory").theta,
                                      theta_before)
        default = SpikeDynModel(config).respond_batch(images)
        assert len(images) < DEFAULT_EVAL_BATCH_SIZE  # one default chunk
        np.testing.assert_array_equal(single, default)

    def test_non_positive_chunk_is_rejected(self, config, images):
        with pytest.raises(ValueError, match="batch_size"):
            SpikeDynModel(config).respond_batch(images, batch_size=0)

    def test_chunking_does_not_change_results(self, config, images):
        one_chunk = SpikeDynModel(config).respond_batch(images, batch_size=len(images))
        small_chunks = SpikeDynModel(config).respond_batch(images, batch_size=2)
        np.testing.assert_array_equal(one_chunk, small_chunks)

    def test_does_not_mutate_adaptation_state(self, config, images):
        model = SpikeDynModel(config)
        theta_before = model.network.group("excitatory").theta.copy()
        model.respond_batch(images)
        np.testing.assert_array_equal(
            model.network.group("excitatory").theta, theta_before
        )

    def test_shape(self, config, images):
        responses = SpikeDynModel(config).respond_batch(images)
        assert responses.shape == (len(images), config.n_exc)


class TestTrainBatch:
    @pytest.mark.parametrize("model_cls", [SpikeDynModel, DiehlCookModel])
    def test_matches_train_sample_loop_bit_for_bit(self, model_cls, config, images):
        looped = model_cls(config)
        batched = model_cls(config)

        loop_counts = np.stack([looped.train_sample(image) for image in images])
        batch_counts = batched.train_batch(images)

        np.testing.assert_array_equal(batch_counts, loop_counts)
        np.testing.assert_array_equal(batched.input_weights, looped.input_weights)
        assert batched.samples_trained == looped.samples_trained == len(images)
        assert batched.counter.as_dict() == looped.counter.as_dict()

    def test_empty_batch(self, config):
        model = SpikeDynModel(config)
        counts = model.train_batch([])
        assert counts.shape == (0, config.n_exc)
        assert model.samples_trained == 0


class TestEncodeBatch:
    def test_shape_and_size_validation(self, config, images):
        model = SpikeDynModel(config)
        trains = model.encode_batch(images)
        assert trains.shape[0] == len(images)
        assert trains.shape[2] == config.n_input
        with pytest.raises(ValueError, match="pixels"):
            model.encode_batch([np.zeros(5)])

    def test_evaluation_pipeline_runs_batched(self, config, images):
        labels = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        model = SpikeDynModel(config)
        model.assign_labels(images, labels)
        accuracy = model.evaluate_accuracy(images, labels)
        assert 0.0 <= accuracy <= 1.0
