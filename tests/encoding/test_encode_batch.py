"""Batched encoding must be bit-for-bit identical to sequential encoding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.encoding.events import DVSEventStreamEncoder, PoissonEventStreamEncoder
from repro.encoding.rate import PoissonRateEncoder

#: Each surviving encoder, seeded: a fresh instance per call, so two calls
#: with one seed consume identical random streams.
SEEDED_ENCODERS = {
    "PoissonRateEncoder": lambda seed: PoissonRateEncoder(duration=20.0, rng=seed),
    "PoissonEventStreamEncoder": lambda seed: PoissonEventStreamEncoder(
        duration=20.0, max_rate=200.0, rng=seed),
    "DVSEventStreamEncoder": lambda seed: DVSEventStreamEncoder(
        duration=20.0, n_bursts=2, burst_steps=4, max_probability=0.5, rng=seed),
}


@pytest.fixture
def images():
    rng = np.random.default_rng(5)
    return [rng.random(49) for _ in range(6)]


class TestPoissonEncodeBatch:
    def test_matches_sequential_encoding_bit_for_bit(self, images):
        sequential_encoder = PoissonRateEncoder(duration=30.0, rng=123)
        batched_encoder = PoissonRateEncoder(duration=30.0, rng=123)
        sequential = np.stack([sequential_encoder.encode(image)
                               for image in images])
        batched = batched_encoder.encode_batch(images)
        np.testing.assert_array_equal(batched, sequential)

    def test_output_shape_and_dtype(self, images):
        encoder = PoissonRateEncoder(duration=25.0, rng=0)
        trains = encoder.encode_batch(images)
        assert trains.shape == (len(images), encoder.timesteps, 49)
        assert trains.dtype == bool

    def test_empty_batch_is_rejected(self):
        encoder = PoissonRateEncoder(duration=25.0, rng=0)
        with pytest.raises(ValueError, match="empty batch"):
            encoder.encode_batch([])

    def test_consumes_rng_like_the_sequential_loop(self, images):
        """After a batch, further draws continue where a loop would."""
        sequential_encoder = PoissonRateEncoder(duration=20.0, rng=9)
        batched_encoder = PoissonRateEncoder(duration=20.0, rng=9)
        for image in images[:3]:
            sequential_encoder.encode(image)
        batched_encoder.encode_batch(images[:3])
        follow_up = images[3]
        np.testing.assert_array_equal(
            batched_encoder.encode(follow_up),
            sequential_encoder.encode(follow_up),
        )


class TestDefaultEncodeBatch:
    """The event-stream encoders inherit the stacked default implementation;
    the Poisson rate encoder's vectorized override must agree with it."""

    @pytest.mark.parametrize("name", sorted(SEEDED_ENCODERS))
    def test_matches_sequential_encoding(self, name, images):
        make = SEEDED_ENCODERS[name]
        sequential_encoder, batched_encoder = make(17), make(17)
        sequential = np.stack([sequential_encoder.encode(image) for image in images])
        batched = batched_encoder.encode_batch(images)
        assert batched.shape == (len(images), 20, 49)
        assert batched.dtype == bool
        assert batched.any()
        np.testing.assert_array_equal(batched, sequential)

    @pytest.mark.parametrize("name", sorted(SEEDED_ENCODERS))
    def test_empty_batch_is_rejected(self, name):
        with pytest.raises(ValueError, match="empty batch"):
            SEEDED_ENCODERS[name](0).encode_batch([])
