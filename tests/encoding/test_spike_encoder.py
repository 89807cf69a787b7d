"""Tests for the :class:`SpikeEncoder` interface every encoder shares."""

from __future__ import annotations

import numpy as np
import pytest

from repro.encoding.base import SpikeEncoder
from repro.encoding.events import DVSEventStreamEncoder
from repro.encoding.rate import PoissonRateEncoder


class TestSpikeEncoderBase:
    def test_timesteps(self):
        assert SpikeEncoder(duration=350.0, dt=1.0).timesteps == 350
        assert SpikeEncoder(duration=100.0, dt=0.5).timesteps == 200

    def test_duration_must_cover_one_timestep(self):
        with pytest.raises(ValueError):
            SpikeEncoder(duration=0.5, dt=1.0)

    def test_encode_is_abstract(self):
        with pytest.raises(NotImplementedError):
            SpikeEncoder().encode(np.ones(3))


class TestNormalizeIntensities:
    """The shared ``[0, 1]`` scaling every surviving encoder starts from."""

    def test_scales_the_peak_to_one(self):
        values = SpikeEncoder._normalize_intensities(np.array([0.0, 2.0, 4.0]))
        np.testing.assert_array_equal(values, [0.0, 0.5, 1.0])

    def test_all_zero_input_stays_zero(self):
        values = SpikeEncoder._normalize_intensities(np.zeros(5))
        np.testing.assert_array_equal(values, np.zeros(5))
        assert np.all(np.isfinite(values))

    def test_flattens_images_row_major(self):
        image = np.arange(6, dtype=float).reshape(2, 3)
        values = SpikeEncoder._normalize_intensities(image)
        assert values.shape == (6,)
        np.testing.assert_array_equal(values, image.ravel() / 5.0)

    def test_does_not_mutate_the_input(self):
        image = np.array([1.0, 3.0, 6.0])
        SpikeEncoder._normalize_intensities(image)
        np.testing.assert_array_equal(image, [1.0, 3.0, 6.0])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            SpikeEncoder._normalize_intensities(np.zeros(0))

    def test_rejects_negative_intensities(self):
        with pytest.raises(ValueError, match="non-negative"):
            SpikeEncoder._normalize_intensities(np.array([0.5, -0.1]))


ENCODER_CLASSES = [PoissonRateEncoder, DVSEventStreamEncoder]


class TestAllEncodersShareTheInterface:
    @pytest.mark.parametrize("encoder_cls", ENCODER_CLASSES)
    def test_shape_and_dtype(self, encoder_cls):
        encoder = encoder_cls(duration=60.0, dt=1.0, rng=0)
        image = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        train = encoder.encode(image)
        assert train.shape == (60, 12)
        assert train.dtype == bool

    @pytest.mark.parametrize("encoder_cls", ENCODER_CLASSES)
    def test_all_zero_image_is_silent(self, encoder_cls):
        train = encoder_cls(duration=60.0, dt=1.0, rng=0).encode(np.zeros((3, 4)))
        assert train.shape == (60, 12)
        assert not train.any()

    @pytest.mark.parametrize("encoder_cls", ENCODER_CLASSES)
    def test_same_seed_gives_the_same_train(self, encoder_cls):
        image = np.linspace(0.0, 1.0, 12)
        first = encoder_cls(duration=60.0, dt=1.0, rng=3).encode(image)
        second = encoder_cls(duration=60.0, dt=1.0, rng=3).encode(image)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("encoder_cls", ENCODER_CLASSES)
    def test_train_depends_only_on_relative_intensity(self, encoder_cls):
        # Inputs are scaled by their peak, so a brighter copy of an image
        # encodes to the same train under the same seed.
        image = np.linspace(0.0, 1.0, 12)
        dim = encoder_cls(duration=60.0, dt=1.0, rng=4).encode(image)
        bright = encoder_cls(duration=60.0, dt=1.0, rng=4).encode(3.0 * image)
        np.testing.assert_array_equal(dim, bright)

    @pytest.mark.parametrize("encoder_cls", ENCODER_CLASSES)
    def test_finer_timestep_adds_rows(self, encoder_cls):
        encoder = encoder_cls(duration=60.0, dt=0.5, rng=0)
        assert encoder.timesteps == 120
        assert encoder.encode(np.ones(5)).shape == (120, 5)

    @pytest.mark.parametrize("encoder_cls", ENCODER_CLASSES)
    def test_empty_input_is_rejected(self, encoder_cls):
        with pytest.raises(ValueError, match="empty"):
            encoder_cls(duration=60.0, dt=1.0, rng=0).encode(np.zeros(0))
