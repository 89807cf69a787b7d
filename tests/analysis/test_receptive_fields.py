"""Tests for the receptive-field analysis helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.receptive_fields import (
    neuron_class_map,
    receptive_field,
    receptive_field_similarity,
)
from repro.core.config import SpikeDynConfig
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.models.spikedyn_model import SpikeDynModel


@pytest.fixture
def model() -> SpikeDynModel:
    config = SpikeDynConfig.scaled_down(n_input=64, n_exc=6, t_sim=20.0, seed=0)
    return SpikeDynModel(config)


@pytest.fixture
def source() -> SyntheticDigits:
    return SyntheticDigits(image_size=8, seed=0)


class TestReceptiveField:
    def test_shape_matches_the_input_image(self, model):
        field = receptive_field(model, 0)
        assert field.shape == (8, 8)

    def test_matches_the_weight_column(self, model):
        field = receptive_field(model, 2, normalize=False)
        np.testing.assert_allclose(field.ravel(), model.input_weights[:, 2])

    def test_normalization(self, model):
        field = receptive_field(model, 1, normalize=True)
        assert field.max() == pytest.approx(1.0)
        assert field.min() >= 0.0

    def test_zero_field_stays_zero_under_normalization(self, model):
        model.input_weights[:, 3] = 0.0
        field = receptive_field(model, 3, normalize=True)
        np.testing.assert_allclose(field, 0.0)

    def test_returns_a_copy(self, model):
        field = receptive_field(model, 0, normalize=False)
        field[0, 0] = 123.0
        assert model.input_weights[0, 0] != 123.0

    def test_out_of_range_neuron_rejected(self, model):
        with pytest.raises(ValueError):
            receptive_field(model, 6)
        with pytest.raises(ValueError):
            receptive_field(model, -1)


class TestWeightShapes:
    def test_non_square_input_is_rejected(self):
        class Model:
            input_weights = np.zeros((10, 3))

        with pytest.raises(ValueError, match="not a square number"):
            receptive_field(Model(), 0)

    def test_weights_must_be_a_matrix(self):
        class Model:
            input_weights = np.zeros(9)

        with pytest.raises(ValueError, match="2-D"):
            receptive_field(Model(), 0)


class TestSimilarityAndClassMap:
    def test_similarity_is_bounded(self, model, source):
        similarity = receptive_field_similarity(model, source.prototype(0))
        assert similarity.shape == (6,)
        assert np.all(similarity <= 1.0 + 1e-9)
        assert np.all(similarity >= -1.0 - 1e-9)

    def test_identical_field_has_similarity_one(self, model, source):
        prototype = source.prototype(3)
        model.input_weights[:, 0] = prototype.ravel()
        similarity = receptive_field_similarity(model, prototype)
        assert similarity[0] == pytest.approx(1.0)

    def test_zero_field_has_similarity_zero(self, model, source):
        model.input_weights[:, 2] = 0.0
        similarity = receptive_field_similarity(model, source.prototype(0))
        assert similarity[2] == 0.0

    def test_wrong_reference_size_rejected(self, model):
        with pytest.raises(ValueError):
            receptive_field_similarity(model, np.ones((10, 10)))

    def test_zero_reference_rejected(self, model):
        with pytest.raises(ValueError):
            receptive_field_similarity(model, np.zeros((8, 8)))

    def test_class_map_recovers_planted_prototypes(self, model, source):
        prototypes = {digit: source.prototype(digit) for digit in (0, 1, 7)}
        model.input_weights[:, 0] = prototypes[0].ravel()
        model.input_weights[:, 1] = prototypes[1].ravel()
        model.input_weights[:, 2] = prototypes[7].ravel()
        model.input_weights[:, 3] = 0.0
        labels = neuron_class_map(model, prototypes)
        assert labels[0] == 0
        assert labels[1] == 1
        assert labels[2] == 7
        assert labels[3] == -1

    def test_class_map_requires_prototypes(self, model):
        with pytest.raises(ValueError):
            neuron_class_map(model, {})
