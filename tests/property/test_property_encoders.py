"""Property-based tests for the spike encoders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.encoding.events import DVSEventStreamEncoder
from repro.encoding.rate import PoissonRateEncoder

intensity_images = hnp.arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)

durations = st.sampled_from([10.0, 25.0, 50.0])


@settings(max_examples=30, deadline=None)
@given(values=intensity_images, duration=durations, seed=st.integers(0, 2**16))
def test_rate_encoder_shape_and_dtype(values, duration, seed):
    encoder = PoissonRateEncoder(duration=duration, dt=1.0, rng=seed)
    train = encoder.encode(values)
    assert train.shape == (int(duration), values.size)
    assert train.dtype == bool


@settings(max_examples=30, deadline=None)
@given(values=intensity_images, seed=st.integers(0, 2**16))
def test_rate_encoder_zero_intensity_is_silent(values, seed):
    values = values.copy()
    values[0] = 0.0
    encoder = PoissonRateEncoder(duration=50.0, dt=1.0, max_rate=500.0, rng=seed)
    train = encoder.encode(values)
    assert train[:, 0].sum() == 0


@settings(max_examples=30, deadline=None)
@given(values=intensity_images, seed=st.integers(0, 2**16))
def test_rate_encoder_probabilities_are_valid(values, seed):
    encoder = PoissonRateEncoder(duration=20.0, dt=1.0, max_rate=1e4, rng=seed)
    probabilities = encoder.spike_probabilities(values)
    assert np.all(probabilities >= 0.0)
    assert np.all(probabilities <= 1.0)


@settings(max_examples=20, deadline=None)
@given(values=intensity_images)
def test_all_encoders_reject_negative_intensities(values):
    values = values.copy()
    values[0] = -0.5
    for encoder in (PoissonRateEncoder(duration=10.0, rng=0),
                    DVSEventStreamEncoder(duration=10.0, n_bursts=2,
                                          burst_steps=4, rng=0)):
        with pytest.raises(ValueError):
            encoder.encode(values)
        with pytest.raises(ValueError):
            encoder.encode_batch([np.abs(values), values])


event_encoder_factories = st.sampled_from([
    lambda seed: DVSEventStreamEncoder(duration=50.0, n_bursts=3, burst_steps=5,
                                       max_probability=0.5, rng=seed),
])


@settings(max_examples=30, deadline=None)
@given(values=intensity_images, make=event_encoder_factories,
       seed=st.integers(0, 2**16))
def test_event_encoders_dense_view_equals_the_stream(values, make, seed):
    stream = make(seed).encode_events(values)
    dense = make(seed).encode(values)
    assert dense.shape == (stream.n_steps, stream.n_channels) == (50, values.size)
    assert dense.sum() == stream.n_events
    np.testing.assert_array_equal(dense, stream.to_dense())


@settings(max_examples=30, deadline=None)
@given(values=intensity_images, make=event_encoder_factories,
       seed=st.integers(0, 2**16))
def test_event_encoders_never_fire_a_silent_channel(values, make, seed):
    values = values.copy()
    values[0] = 0.0
    stream = make(seed).encode_events(values)
    assert 0 not in stream.channels
    assert np.all((stream.channels >= 0) & (stream.channels < values.size))
    assert np.all((stream.times >= 0) & (stream.times < stream.n_steps))


@settings(max_examples=30, deadline=None)
@given(values=intensity_images, seed=st.integers(0, 2**16))
def test_dvs_events_lie_inside_burst_windows(values, seed):
    encoder = DVSEventStreamEncoder(duration=60.0, n_bursts=3, burst_steps=4,
                                    max_probability=1.0, rng=seed)
    stream = encoder.encode_events(values)
    offsets = stream.times[:, None] - encoder.burst_starts()[None, :]
    inside = (offsets >= 0) & (offsets < encoder.burst_steps)
    assert np.all(inside.any(axis=1))
