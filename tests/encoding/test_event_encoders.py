"""Tests for the event-stream encoder family and its dataset adapter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.event_streams import EventStreamDigitSource
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.encoding.events import (
    DVSEventStreamEncoder,
    EventStreamEncoder,
    PoissonEventStreamEncoder,
)
from repro.snn.events import EventStream


class TestPoissonEventStreamEncoder:
    def test_encode_events_returns_a_valid_stream(self):
        encoder = PoissonEventStreamEncoder(duration=500.0, rng=11)
        values = np.linspace(0.0, 1.0, 16)
        stream = encoder.encode_events(values)
        assert isinstance(stream, EventStream)
        assert stream.n_steps == encoder.timesteps
        assert stream.n_channels == 16

    def test_dense_view_matches_the_stream(self):
        encoder = PoissonEventStreamEncoder(duration=300.0, rng=5)
        values = np.full(8, 0.7)
        np.testing.assert_array_equal(
            encoder.encode_events(values).to_dense().shape,
            (encoder.timesteps, 8),
        )
        dense = encoder.encode(values)
        assert dense.dtype == bool and dense.shape == (encoder.timesteps, 8)

    def test_zero_intensity_channel_never_fires(self):
        encoder = PoissonEventStreamEncoder(duration=2000.0, rng=3)
        values = np.array([0.0, 1.0, 1.0, 1.0])
        stream = encoder.encode_events(values)
        assert 0 not in stream.channels

    def test_default_regime_is_sub_percent_density(self):
        encoder = PoissonEventStreamEncoder(rng=1)
        stream = encoder.encode_events(np.full(64, 1.0))
        assert 0.0 < stream.density < 0.01

    def test_empirical_rate_matches_expectation(self):
        encoder = PoissonEventStreamEncoder(duration=4000.0, max_rate=10.0,
                                            rng=13)
        stream = encoder.encode_events(np.array([1.0]))
        expected = encoder.timesteps * 10.0 / 1000.0
        assert stream.n_events == pytest.approx(expected, rel=0.5)

    def test_negative_intensities_rejected(self):
        encoder = PoissonEventStreamEncoder(rng=0)
        with pytest.raises(ValueError):
            encoder.encode_events(np.array([-0.1, 0.5]))


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

    def test_batch_encoding_yields_one_stream_per_input(self):
        encoder = DVSEventStreamEncoder(rng=2)
        streams = encoder.encode_events_batch([np.full(9, 0.5)] * 3)
        assert len(streams) == 3
        assert all(isinstance(s, EventStream) for s in streams)
        with pytest.raises(ValueError, match="empty batch"):
            encoder.encode_events_batch([])


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

    assert issubclass(encoding.PoissonEventStreamEncoder,
                      encoding.EventStreamEncoder)
    assert issubclass(encoding.DVSEventStreamEncoder, EventStreamEncoder)
