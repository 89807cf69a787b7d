"""Batched encoding must be bit-for-bit identical to sequential encoding."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.encoding.events import DVSEventStreamEncoder
from repro.encoding.rate import PoissonRateEncoder

#: Each surviving encoder, seeded: a fresh instance per call, so two calls
#: with one seed consume identical random streams.
SEEDED_ENCODERS = {
    "PoissonRateEncoder": lambda seed: PoissonRateEncoder(duration=20.0, rng=seed),
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


class TestPoissonDrawPath:
    """``encode`` and ``encode_batch`` share one draw path: a reused
    ``(T, n)`` scratch per sample, consumed in sample order."""

    @pytest.mark.parametrize("batch_size, duration, n", [
        (1, 350.0, 784), (1, 37.0, 53), (3, 37.0, 53), (4, 1.0, 1), (2, 11.0, 7),
    ])
    def test_matches_sequential_encoding_at_odd_shapes(self, batch_size, duration, n):
        images = np.random.default_rng(n).random((batch_size, n))
        sequential_encoder = PoissonRateEncoder(duration=duration, rng=31)
        batched_encoder = PoissonRateEncoder(duration=duration, rng=31)
        sequential = np.stack([sequential_encoder.encode(image) for image in images])
        batched = batched_encoder.encode_batch(images)
        assert batched.shape == (batch_size, int(duration), n)
        np.testing.assert_array_equal(batched, sequential)
        follow_up = images[0]
        np.testing.assert_array_equal(batched_encoder.encode(follow_up),
                                      sequential_encoder.encode(follow_up))

    def test_matches_one_whole_batch_draw(self, images):
        """The trains equal one ``(B, T, n)`` uniform block compared against
        the probabilities: the generator fills every buffer in C order."""
        encoder = PoissonRateEncoder(duration=30.0, rng=8)
        probabilities = np.stack([encoder.spike_probabilities(image) for image in images])
        reference = np.random.default_rng(8).random(
            (len(images), encoder.timesteps, probabilities.shape[1]))
        np.testing.assert_array_equal(encoder.encode_batch(images),
                                      reference < probabilities[:, None, :])

    def test_bad_input_raises_before_any_draw(self, images):
        encoder = PoissonRateEncoder(duration=20.0, rng=4)
        negative = -images[2]
        with pytest.raises(ValueError, match="non-negative"):
            encoder.encode_batch([images[0], images[1], negative, images[3]])
        fresh = PoissonRateEncoder(duration=20.0, rng=4)
        np.testing.assert_array_equal(encoder.encode(images[0]), fresh.encode(images[0]))

    def test_paper_shaped_batch_peak_memory(self):
        """B=32, T=350, n=784: beyond the boolean output the batch holds one
        ``(T, n)`` float scratch, so the peak stays under twice the output
        (one whole-batch float block would be eight times it)."""
        images = np.random.default_rng(0).random((32, 784))
        encoder = PoissonRateEncoder(duration=350.0, rng=0)
        encoder.encode(images[0])  # first-call allocations are not the batch's
        tracemalloc.start()
        try:
            trains = encoder.encode_batch(images)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trains.shape == (32, 350, 784)
        assert peak < 2 * trains.nbytes, (peak, trains.nbytes)


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
