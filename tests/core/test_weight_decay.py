"""Tests for the synaptic weight decay (paper Section III-D)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.weight_decay import (
    SynapticWeightDecay,
    decay_rate_for_network_size,
)
from repro.snn.simulation import OperationCounter


class TestDecayRateForNetworkSize:
    def test_inverse_proportionality(self):
        # w_decay ∝ 1 / n_exc: halving the network doubles the decay rate.
        assert decay_rate_for_network_size(200) == pytest.approx(
            2.0 * decay_rate_for_network_size(400)
        )

    def test_paper_value_at_n400(self):
        assert decay_rate_for_network_size(400) == pytest.approx(1e-2)

    def test_custom_scale(self):
        assert decay_rate_for_network_size(100, scale=1.0) == pytest.approx(0.01)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            decay_rate_for_network_size(0)


class TestSynapticWeightDecay:
    def test_enabled_flag(self):
        assert SynapticWeightDecay(0.01).enabled
        assert not SynapticWeightDecay(0.0).enabled

    def test_decay_fraction_closed_form(self):
        decay = SynapticWeightDecay(w_decay=0.01, tau_decay=100.0)
        fraction = decay.decay_fraction(50.0)
        assert fraction == pytest.approx(1.0 - np.exp(-0.01 * 50.0 / 100.0))

    def test_zero_elapsed_time_means_no_decay(self):
        assert SynapticWeightDecay(0.01).decay_fraction(0.0) == 0.0

    def test_disabled_decay_never_shrinks(self):
        decay = SynapticWeightDecay(0.0)
        weights = np.full((3, 3), 0.5)
        decay.apply(weights, 1000.0)
        np.testing.assert_allclose(weights, 0.5)

    def test_apply_shrinks_in_place(self):
        decay = SynapticWeightDecay(w_decay=1.0, tau_decay=10.0)
        weights = np.full((2, 2), 1.0)
        returned = decay.apply(weights, 10.0)
        assert returned is weights
        np.testing.assert_allclose(weights, np.exp(-1.0))

    def test_decay_is_multiplicative_so_zero_weights_stay_zero(self):
        decay = SynapticWeightDecay(w_decay=0.5, tau_decay=10.0)
        weights = np.array([[0.0, 0.8]])
        decay.apply(weights, 20.0)
        assert weights[0, 0] == 0.0
        assert 0.0 < weights[0, 1] < 0.8

    def test_two_half_windows_equal_one_full_window(self):
        """Lazily applying the decay over a window is exact (linear ODE)."""
        one_shot = np.full((2, 2), 0.7)
        split = np.full((2, 2), 0.7)
        decay = SynapticWeightDecay(w_decay=0.05, tau_decay=100.0)
        decay.apply(one_shot, 20.0)
        decay.apply(split, 10.0)
        decay.apply(split, 10.0)
        np.testing.assert_allclose(one_shot, split)

    def test_counter_records_updates(self):
        decay = SynapticWeightDecay(0.1)
        counter = OperationCounter()
        decay.apply(np.ones((4, 5)), 10.0, counter)
        assert counter.weight_updates == 20

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            SynapticWeightDecay(-0.1)
        with pytest.raises(ValueError):
            SynapticWeightDecay(0.1, tau_decay=0.0)

    def test_negative_elapsed_time_rejected(self):
        with pytest.raises(ValueError):
            SynapticWeightDecay(0.1).decay_fraction(-1.0)
