"""Tests for the spike-statistics helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.spike_stats import (
    ResponseStatistics,
    class_selectivity,
    response_statistics,
    winner_share,
)


class TestWinnerShare:
    def test_single_winner_gets_full_share(self):
        responses = np.array([[0.0, 10.0, 0.0]])
        np.testing.assert_allclose(winner_share(responses), [1.0])

    def test_uniform_response_share(self):
        responses = np.array([[2.0, 2.0, 2.0, 2.0]])
        np.testing.assert_allclose(winner_share(responses), [0.25])

    def test_silent_sample_contributes_zero(self):
        responses = np.array([[0.0, 0.0], [1.0, 3.0]])
        np.testing.assert_allclose(winner_share(responses), [0.0, 0.75])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            winner_share(np.array([[-1.0, 2.0]]))


class TestResponseStatistics:
    def test_summary_values(self):
        responses = np.array([
            [5.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [1.0, 3.0, 0.0],
        ])
        stats = response_statistics(responses)
        assert isinstance(stats, ResponseStatistics)
        assert stats.mean_spikes_per_sample == pytest.approx((5 + 0 + 4) / 3)
        assert stats.active_neuron_fraction == pytest.approx(2 / 3)
        assert stats.silent_sample_fraction == pytest.approx(1 / 3)
        assert stats.mean_winner_share == pytest.approx((1.0 + 0.0 + 0.75) / 3)

    def test_rejects_empty_or_one_dimensional_input(self):
        with pytest.raises(ValueError):
            response_statistics(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            response_statistics(np.zeros(5))


class TestClassSelectivity:
    def test_perfectly_selective_population(self):
        # Neuron 0 fires only for class 0, neuron 1 only for class 1.
        responses = np.array([
            [8.0, 0.0],
            [8.0, 0.0],
            [0.0, 6.0],
            [0.0, 6.0],
        ])
        labels = [0, 0, 1, 1]
        selectivity = class_selectivity(responses, labels)
        assert selectivity[0] == pytest.approx(1.0)
        assert selectivity[1] == pytest.approx(1.0)

    def test_unselective_population(self):
        responses = np.full((4, 3), 2.0)
        labels = [0, 0, 1, 1]
        selectivity = class_selectivity(responses, labels)
        assert selectivity[0] == pytest.approx(0.0)
        assert selectivity[1] == pytest.approx(0.0)

    def test_requires_two_classes(self):
        with pytest.raises(ValueError):
            class_selectivity(np.ones((3, 2)), [1, 1, 1])

    def test_label_shape_validated(self):
        with pytest.raises(ValueError):
            class_selectivity(np.ones((3, 2)), [0, 1])
