"""Online drift detection, with drifted traffic synthesized by the
scenario engine's stream transforms (the same machinery the offline
continual-learning scenarios use)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.streams import StreamSample
from repro.scenarios.transforms import ContrastScale, GaussianNoise
from repro.serving import (
    PredictionService,
    PredictRequest,
    ReplicaPool,
    SpikeCountDriftDetector,
)


def _spike_counts(service: PredictionService, images, seeds) -> list:
    results = service.predict_batch(
        [PredictRequest(image=image, seed=seed)
         for image, seed in zip(images, seeds)]
    )
    return [result.spike_count for result in results]


def _transform_images(transform, images, source, rng_seed: int) -> list:
    stream = [StreamSample(image=np.array(image), label=0, task_index=0)
              for image in images]
    rng = np.random.default_rng(rng_seed)
    return [sample.image for sample in transform.apply(stream, source, rng)]


class TestDetectorUnit:
    def test_calibration_freezes_after_window(self):
        detector = SpikeCountDriftDetector(window=8, threshold=3.0)
        assert not detector.calibrated
        for value in np.linspace(10.0, 12.0, 8):
            detector.observe(value)
        assert detector.calibrated
        state = detector.state()
        assert state["reference_mean"] == pytest.approx(11.0)
        assert not state["alarm"]

    def test_stable_traffic_never_alarms(self):
        detector = SpikeCountDriftDetector(window=16, threshold=3.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            detector.observe(rng.normal(20.0, 1.0))
        assert not detector.state()["alarm"]

    def test_shifted_traffic_alarms_and_latches(self):
        detector = SpikeCountDriftDetector(window=16, threshold=3.0)
        rng = np.random.default_rng(0)
        for _ in range(32):
            detector.observe(rng.normal(20.0, 1.0))
        for _ in range(32):
            detector.observe(rng.normal(5.0, 1.0))
        state = detector.state()
        assert state["alarm"]
        assert state["score"] > 3.0
        # The alarm latches even if traffic recovers.
        for _ in range(64):
            detector.observe(rng.normal(20.0, 1.0))
        assert detector.state()["alarm"]

    def test_explicit_reference_skips_calibration(self):
        detector = SpikeCountDriftDetector(window=8, threshold=2.0,
                                           reference_mean=50.0,
                                           reference_std=2.0)
        assert detector.calibrated
        for _ in range(8):
            detector.observe(10.0)
        assert detector.state()["alarm"]

    def test_reference_args_must_come_together(self):
        with pytest.raises(ValueError, match="together"):
            SpikeCountDriftDetector(reference_mean=1.0)


class TestDriftedTrafficEndToEnd:
    def test_scenario_corruption_trips_the_alarm(self, artifact,
                                                 serving_source,
                                                 request_images):
        """Traffic corrupted by the scenario transforms (heavy noise plus a
        contrast washout) drives spike counts off the clean baseline."""
        service = PredictionService(artifact.build_model())
        seeds = list(range(len(request_images)))
        clean_counts = _spike_counts(service, request_images, seeds)

        detector = SpikeCountDriftDetector(
            window=len(request_images), threshold=3.0,
            reference_mean=float(np.mean(clean_counts)),
            reference_std=float(np.std(clean_counts)),
        )
        corrupted = _transform_images(
            GaussianNoise(sigma=0.8), request_images, serving_source, 0
        )
        corrupted = _transform_images(
            ContrastScale(factor=0.2), corrupted, serving_source, 1
        )
        for count in _spike_counts(service, corrupted, seeds):
            detector.observe(count)
        state = detector.state()
        assert state["alarm"], state
        assert state["score"] > 3.0

    def test_clean_traffic_does_not_alarm(self, artifact, request_images):
        service = PredictionService(artifact.build_model())
        seeds = list(range(len(request_images)))
        clean_counts = _spike_counts(service, request_images, seeds)
        detector = SpikeCountDriftDetector(
            window=len(request_images), threshold=3.0,
            reference_mean=float(np.mean(clean_counts)),
            reference_std=float(np.std(clean_counts)),
        )
        # Replay the same clean distribution with fresh seeds.
        for count in _spike_counts(service, request_images,
                                   [seed + 100 for seed in seeds]):
            detector.observe(count)
        assert not detector.state()["alarm"]

    def test_pool_feeds_the_detector_and_exposes_state(self, artifact,
                                                       request_images):
        detector = SpikeCountDriftDetector(window=4, threshold=3.0)
        pool = ReplicaPool.from_artifact(artifact, workers=1, max_batch=4,
                                         drift_detector=detector)
        with pool:
            for index, image in enumerate(request_images[:6]):
                pool.predict(image, seed=index, timeout=30.0)
        snapshot = pool.metrics_snapshot()
        assert "drift" in snapshot
        assert snapshot["drift"]["observed"] == 6
        assert snapshot["drift"]["window"] == 4
