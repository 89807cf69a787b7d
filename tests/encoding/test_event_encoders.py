"""Tests for the event-stream encoder family and its dataset adapter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.event_streams import EventStreamDigitSource
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.encoding.events import DVSEventStreamEncoder, EventStreamEncoder
from repro.snn.events import EventStream


class TestDVSEventStreamEncoder:
    def test_events_lie_only_inside_burst_windows(self):
        encoder = DVSEventStreamEncoder(duration=1200.0, n_bursts=6,
                                        burst_steps=8, rng=21)
        stream = encoder.encode_events(np.full(32, 1.0))
        allowed = set()
        for start in encoder.burst_starts():
            allowed.update(range(start, start + encoder.burst_steps))
        assert set(stream.times.tolist()) <= allowed

    def test_long_silent_gaps_dominate(self):
        encoder = DVSEventStreamEncoder(rng=21)
        stream = encoder.encode_events(np.full(64, 1.0))
        assert stream.density < 0.01
        assert stream.active_steps.size \
            <= encoder.n_bursts * encoder.burst_steps

    def test_bursts_must_fit_the_horizon(self):
        with pytest.raises(ValueError, match="do not fit"):
            DVSEventStreamEncoder(duration=10.0, n_bursts=6, burst_steps=8)

    def test_max_probability_is_validated(self):
        with pytest.raises(ValueError, match="max_probability"):
            DVSEventStreamEncoder(max_probability=1.5)


class TestDVSBurstStructure:
    """The burst grid, the firing probabilities and the stream contract of
    the one event-stream encoder."""

    @pytest.mark.parametrize("duration,n_bursts,expected", [
        (1200.0, 6, [0, 200, 400, 600, 800, 1000]),
        (100.0, 3, [0, 33, 66]),
        (40.0, 1, [0]),
    ])
    def test_burst_starts_are_evenly_spaced(self, duration, n_bursts, expected):
        encoder = DVSEventStreamEncoder(duration=duration, n_bursts=n_bursts,
                                        burst_steps=4)
        np.testing.assert_array_equal(encoder.burst_starts(), expected)

    def test_timestep_sets_the_grid(self):
        encoder = DVSEventStreamEncoder(duration=100.0, dt=0.5, n_bursts=2,
                                        burst_steps=4, rng=0)
        stream = encoder.encode_events(np.ones(3))
        assert stream.n_steps == encoder.timesteps == 200
        np.testing.assert_array_equal(encoder.burst_starts(), [0, 100])

    def test_certain_firing_fills_every_burst_bin(self):
        encoder = DVSEventStreamEncoder(duration=60.0, n_bursts=3, burst_steps=5,
                                        max_probability=1.0, rng=0)
        stream = encoder.encode_events(np.array([1.0, 1.0]))
        assert stream.n_events == 2 * 3 * 5
        expected_times = np.concatenate([start + np.arange(5)
                                         for start in encoder.burst_starts()])
        for channel in (0, 1):
            np.testing.assert_array_equal(
                np.sort(stream.times[stream.channels == channel]), expected_times)

    def test_zero_probability_is_silent(self):
        encoder = DVSEventStreamEncoder(duration=60.0, n_bursts=3, burst_steps=5,
                                        max_probability=0.0, rng=0)
        assert encoder.encode_events(np.ones(8)).n_events == 0

    def test_zero_intensity_channel_never_fires(self):
        encoder = DVSEventStreamEncoder(duration=200.0, n_bursts=4, burst_steps=8,
                                        max_probability=1.0, rng=3)
        values = np.array([0.0, 1.0, 0.5, 0.0])
        stream = encoder.encode_events(values)
        assert not np.isin(stream.channels, [0, 3]).any()
        assert np.isin(1, stream.channels)

    def test_firing_rate_follows_relative_intensity(self):
        encoder = DVSEventStreamEncoder(duration=4000.0, n_bursts=50,
                                        burst_steps=40, max_probability=0.5, rng=7)
        stream = encoder.encode_events(np.array([1.0, 0.25]))
        bins = encoder.n_bursts * encoder.burst_steps
        rates = [np.count_nonzero(stream.channels == c) / bins for c in (0, 1)]
        assert rates[0] == pytest.approx(0.5, abs=0.05)
        assert rates[1] == pytest.approx(0.125, abs=0.03)

    def test_dense_view_matches_the_stream(self):
        encoder = DVSEventStreamEncoder(duration=300.0, n_bursts=3, burst_steps=6,
                                        max_probability=0.4, rng=5)
        values = np.linspace(0.0, 1.0, 12)
        stream = encoder.encode_events(values)
        dense = DVSEventStreamEncoder(duration=300.0, n_bursts=3, burst_steps=6,
                                      max_probability=0.4, rng=5).encode(values)
        assert dense.dtype == bool and dense.shape == (300, 12)
        np.testing.assert_array_equal(dense, stream.to_dense())

    def test_same_seed_gives_the_same_stream(self):
        def encode(seed):
            encoder = DVSEventStreamEncoder(duration=200.0, n_bursts=2,
                                            burst_steps=8, max_probability=0.5,
                                            rng=seed)
            return encoder.encode_events(np.ones(10)).to_dense()

        np.testing.assert_array_equal(encode(4), encode(4))
        assert not np.array_equal(encode(4), encode(5))

    @pytest.mark.parametrize("kwargs", [
        {"n_bursts": 0}, {"burst_steps": 0}, {"n_bursts": 2.5},
        {"max_probability": -0.1}, {"max_probability": float("nan")},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DVSEventStreamEncoder(duration=100.0, **kwargs)

    def test_negative_intensities_rejected(self):
        encoder = DVSEventStreamEncoder(duration=100.0, n_bursts=2, burst_steps=4)
        with pytest.raises(ValueError, match="non-negative"):
            encoder.encode_events(np.array([0.5, -0.1]))


class TestEventStreamDigitSource:
    def make_source(self):
        return EventStreamDigitSource(
            SyntheticDigits(image_size=10, seed=4),
            DVSEventStreamEncoder(duration=400.0, n_bursts=4, burst_steps=4,
                                  rng=4),
        )

    def test_generate_yields_labelled_streams(self):
        source = self.make_source()
        samples = source.generate(3, 2, rng=np.random.default_rng(0))
        assert len(samples) == 2
        for sample in samples:
            assert sample.label == 3
            assert isinstance(sample.stream, EventStream)
            assert sample.stream.n_channels == 100
            assert sample.image.shape == (10, 10)

    def test_labelled_streams_cover_requested_classes(self):
        source = self.make_source()
        samples, labels = source.labelled_streams(2, classes=(0, 1), rng=0)
        assert len(samples) == 4
        np.testing.assert_array_equal(labels, [0, 0, 1, 1])

    def test_classes_are_the_wrapped_sources(self):
        source = self.make_source()
        assert source.classes == source.source.classes

    def test_rejects_non_event_encoders(self):
        from repro.encoding.rate import PoissonRateEncoder

        with pytest.raises(TypeError, match="EventStreamEncoder"):
            EventStreamDigitSource(SyntheticDigits(image_size=10, seed=4),
                                   PoissonRateEncoder())

    def test_rejects_empty_class_selection(self):
        with pytest.raises(ValueError, match="no classes"):
            self.make_source().labelled_streams(1, classes=())


class TestModelEventPath:
    def test_grid_encoder_models_reject_encode_events(self):
        from repro.core.config import SpikeDynConfig
        from repro.models.spikedyn_model import SpikeDynModel

        config = SpikeDynConfig.scaled_down(n_input=16, n_exc=4, t_sim=20.0)
        model = SpikeDynModel(config)
        with pytest.raises(TypeError, match="EventStreamEncoder"):
            model.encode_events(np.zeros(16))

    def test_event_encoder_models_round_trip(self):
        from repro.core.config import SpikeDynConfig
        from repro.models.spikedyn_model import SpikeDynModel

        config = SpikeDynConfig.scaled_down(n_input=16, n_exc=4, t_sim=20.0)
        model = SpikeDynModel(config, backend="eventqueue")
        model.encoder = DVSEventStreamEncoder(
            duration=200.0, n_bursts=3, burst_steps=4, rng=8
        )
        stream = model.encode_events(np.linspace(0, 1, 16))
        assert isinstance(stream, EventStream)
        counts = model.respond_events(stream)
        assert counts.shape == (4,)
        predictions = model.predict_events([stream, stream])
        assert predictions.shape == (2,)


def test_encoders_are_exported_from_the_package():
    import repro.encoding as encoding

    assert issubclass(encoding.DVSEventStreamEncoder, encoding.EventStreamEncoder)
    assert encoding.EventStreamEncoder is EventStreamEncoder
