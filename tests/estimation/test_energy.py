"""Tests for the energy model ``E = E1 * N`` and the operation cost mapping."""

from __future__ import annotations

import pytest

from repro.estimation.energy import (
    DEFAULT_OP_ENERGY_COSTS,
    EnergyEstimate,
    EnergyModel,
    weighted_operations,
)
from repro.estimation.hardware import GTX_1080_TI, JETSON_NANO
from repro.snn.simulation import OperationCounter


class TestWeightedOperations:
    def test_applies_default_costs(self):
        counter = OperationCounter(synaptic_events=10, neuron_updates=5,
                                   exponential_ops=2, trace_updates=3,
                                   weight_updates=4, spike_events=100)
        expected = 10 * 2.0 + 5 * 3.0 + 2 * 3.0 + 3 * 1.0 + 4 * 1.0
        assert weighted_operations(counter) == pytest.approx(expected)

    def test_spike_events_are_free(self):
        counter = OperationCounter(spike_events=1_000_000)
        assert weighted_operations(counter) == 0.0

    def test_custom_costs(self):
        counter = OperationCounter(weight_updates=10)
        assert weighted_operations(counter, {"weight_updates": 5.0}) == 50.0

    def test_empty_counter_costs_nothing(self):
        assert weighted_operations(OperationCounter()) == 0.0

    def test_all_counters_have_a_default_cost(self):
        for name in OperationCounter().as_dict():
            assert name in DEFAULT_OP_ENERGY_COSTS


class TestEnergyEstimate:
    def test_unit_conversions(self):
        estimate = EnergyEstimate(device="X", seconds=7200.0, joules=5000.0,
                                  weighted_ops=1e9)
        assert estimate.hours == pytest.approx(2.0)
        assert estimate.kilojoules == pytest.approx(5.0)

    def test_scaled(self):
        estimate = EnergyEstimate(device="X", seconds=1.0, joules=2.0,
                                  weighted_ops=3.0)
        scaled = estimate.scaled(10.0)
        assert scaled.seconds == 10.0
        assert scaled.joules == 20.0
        assert scaled.weighted_ops == 30.0
        assert scaled.device == "X"

    def test_scaled_rejects_negative_factor(self):
        estimate = EnergyEstimate(device="X", seconds=1.0, joules=1.0,
                                  weighted_ops=1.0)
        with pytest.raises(ValueError):
            estimate.scaled(-1.0)


class TestEnergyModel:
    def test_estimate_uses_the_device_cost_model(self):
        counter = OperationCounter(synaptic_events=1_000_000)
        model = EnergyModel(GTX_1080_TI)
        estimate = model.estimate(counter)
        ops = weighted_operations(counter)
        assert estimate.weighted_ops == pytest.approx(ops)
        assert estimate.seconds == pytest.approx(
            GTX_1080_TI.seconds_for_operations(ops)
        )
        assert estimate.joules == pytest.approx(
            GTX_1080_TI.energy_for_operations(ops)
        )
        assert estimate.device == "GTX 1080 Ti"

    def test_embedded_gpu_takes_longer_for_the_same_work(self):
        counter = OperationCounter(synaptic_events=1_000_000)
        fast = EnergyModel(GTX_1080_TI).estimate(counter)
        slow = EnergyModel(JETSON_NANO).estimate(counter)
        assert slow.seconds > fast.seconds

    def test_custom_op_costs_change_the_estimate(self):
        counter = OperationCounter(weight_updates=1000)
        default = EnergyModel(GTX_1080_TI).estimate(counter)
        expensive = EnergyModel(GTX_1080_TI,
                                {"weight_updates": 100.0}).estimate(counter)
        assert expensive.joules > default.joules

    def test_more_operations_cost_more(self):
        model = EnergyModel(GTX_1080_TI)
        small = model.estimate(OperationCounter(synaptic_events=100))
        large = model.estimate(OperationCounter(synaptic_events=10_000))
        assert large.joules > small.joules
        assert large.seconds > small.seconds
