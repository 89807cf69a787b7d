"""Tests for post-training weight quantization (the BP knob of Section III-C)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SpikeDynConfig
from repro.core.quantization import (
    QuantizationReport,
    quantize_model_weights,
    quantize_weights,
)
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.estimation.memory import ARCH_SPIKEDYN, architecture_parameter_counts
from repro.models.spikedyn_model import SpikeDynModel


class TestQuantizeWeights:
    def test_one_bit_snaps_to_the_bounds(self):
        weights = np.array([0.1, 0.4, 0.6, 0.9])
        quantized = quantize_weights(weights, 1, w_min=0.0, w_max=1.0)
        np.testing.assert_allclose(quantized, [0.0, 0.0, 1.0, 1.0])

    def test_values_land_on_the_level_grid(self):
        rng = np.random.default_rng(0)
        weights = rng.random((6, 7))
        quantized = quantize_weights(weights, 3, w_min=0.0, w_max=1.0)
        levels = np.linspace(0.0, 1.0, 2 ** 3)
        for value in quantized.ravel():
            assert np.isclose(levels, value).any()

    def test_quantization_is_idempotent(self):
        rng = np.random.default_rng(1)
        weights = rng.random((5, 5))
        once = quantize_weights(weights, 4, w_min=0.0, w_max=1.0)
        twice = quantize_weights(once, 4, w_min=0.0, w_max=1.0)
        np.testing.assert_allclose(once, twice)

    def test_out_of_range_values_are_clipped(self):
        quantized = quantize_weights(np.array([-1.0, 2.0]), 2, w_min=0.0, w_max=1.0)
        assert quantized[0] == 0.0
        assert quantized[1] == 1.0

    def test_input_is_not_modified(self):
        weights = np.array([0.31, 0.77])
        quantize_weights(weights, 2, w_min=0.0, w_max=1.0)
        np.testing.assert_allclose(weights, [0.31, 0.77])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            quantize_weights(np.ones(3), 0, w_min=0.0, w_max=1.0)
        with pytest.raises(ValueError):
            quantize_weights(np.ones(3), 33, w_min=0.0, w_max=1.0)
        with pytest.raises(ValueError):
            quantize_weights(np.ones(3), 4, w_min=1.0, w_max=0.5)

    def test_high_precision_is_a_clip_only(self):
        rng = np.random.default_rng(2)
        weights = rng.random((4, 4))
        np.testing.assert_allclose(
            quantize_weights(weights, 32, w_min=0.0, w_max=1.0), weights
        )

    def test_error_decreases_with_more_bits(self):
        rng = np.random.default_rng(3)
        weights = rng.random((20, 20))
        errors = [np.sqrt(np.mean((weights - quantize_weights(
            weights, bits, w_min=0.0, w_max=1.0)) ** 2)) for bits in (1, 2, 4, 8)]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 0.01

    def test_maximum_error_is_half_a_step(self):
        rng = np.random.default_rng(4)
        weights = rng.random(1000)
        bits = 3
        quantized = quantize_weights(weights, bits, w_min=0.0, w_max=1.0)
        step = 1.0 / (2 ** bits - 1)
        assert np.max(np.abs(weights - quantized)) <= step / 2 + 1e-12


def test_memory_saving_of_an_empty_model_is_zero():
    report = QuantizationReport(bits=8, memory_bytes=0.0,
                                full_precision_memory_bytes=0.0, rms_error=0.0)
    assert report.memory_saving == 0.0


class TestQuantizeModelWeights:
    @pytest.fixture
    def trained_model(self) -> SpikeDynModel:
        config = SpikeDynConfig.scaled_down(n_input=64, n_exc=8, t_sim=20.0, seed=0)
        model = SpikeDynModel(config)
        source = SyntheticDigits(image_size=8, seed=0)
        for image in source.generate(0, 3, rng=0):
            model.train_sample(image)
        return model

    def test_report_contents(self, trained_model):
        report = quantize_model_weights(trained_model, 8)
        assert isinstance(report, QuantizationReport)
        counts = architecture_parameter_counts(ARCH_SPIKEDYN, 64, 8)
        assert report.memory_bytes == pytest.approx(counts.memory_bytes(8))
        assert report.full_precision_memory_bytes == pytest.approx(
            counts.memory_bytes(32)
        )
        assert report.memory_saving == pytest.approx(0.75)
        assert report.rms_error >= 0.0

    def test_weights_are_modified_in_place(self, trained_model):
        before = trained_model.input_weights.copy()
        quantize_model_weights(trained_model, 2)
        after = trained_model.input_weights
        levels = np.linspace(0.0, 1.0, 2 ** 2)
        assert not np.array_equal(before, after)
        for value in after.ravel():
            assert np.isclose(levels, value).any()

    def test_model_still_responds_after_quantization(self, trained_model):
        source = SyntheticDigits(image_size=8, seed=1)
        image = source.generate(0, 1, rng=1)[0]
        quantize_model_weights(trained_model, 4)
        counts = trained_model.respond(image)
        assert counts.shape == (8,)

    def test_coarser_precision_perturbs_more(self, trained_model):
        fine = quantize_model_weights(trained_model, 16, reference_bits=32)
        # Re-train slightly so the weights are off-grid again before the
        # coarse pass (quantization is idempotent otherwise).
        source = SyntheticDigits(image_size=8, seed=2)
        for image in source.generate(1, 2, rng=2):
            trained_model.train_sample(image)
        coarse = quantize_model_weights(trained_model, 2, reference_bits=32)
        assert coarse.rms_error > fine.rms_error
        assert coarse.memory_saving > fine.memory_saving
