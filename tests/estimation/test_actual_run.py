"""Tests for the instrumented actual-run estimator (the Fig. 5 reference)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.architecture import build_baseline_network, build_spikedyn_network
from repro.core.config import SpikeDynConfig
from repro.core.learning import SpikeDynLearningRule
from repro.estimation.actual_run import (
    actual_memory_bytes,
    run_actual_measurement,
)
from repro.estimation.hardware import GTX_1080_TI, JETSON_NANO
from repro.estimation.memory import ARCH_SPIKEDYN, architecture_parameter_counts
from repro.learning.stdp import PairwiseSTDP
from repro.models.spikedyn_model import SpikeDynModel


@pytest.fixture
def config() -> SpikeDynConfig:
    return SpikeDynConfig.scaled_down(n_input=64, n_exc=8, t_sim=20.0, seed=0)


@pytest.fixture
def model(config) -> SpikeDynModel:
    return SpikeDynModel(config)


@pytest.fixture
def spike_trains(model, config):
    rng = np.random.default_rng(0)
    return [rng.random((20, config.n_input)) < 0.3 for _ in range(3)]


class TestActualMemory:
    def test_exceeds_the_analytical_estimate(self, model, config):
        """The measured footprint adds the transient state the analytical
        model ignores, so it is strictly larger (Fig. 5a)."""
        analytical = architecture_parameter_counts(
            ARCH_SPIKEDYN, config.n_input, config.n_exc
        ).memory_bytes(config.bit_precision)
        measured = actual_memory_bytes(model.network, config.bit_precision)
        assert measured > analytical
        # ... but not by much: the transient state is a small fraction.
        assert measured < analytical * 2.0

    def test_counts_every_stored_value_of_spikedyn(self):
        """36 inputs, 5 excitatory neurons, direct lateral inhibition."""
        config = SpikeDynConfig.scaled_down(n_input=36, n_exc=5, seed=0)
        network = build_spikedyn_network(config, learning_rule=SpikeDynLearningRule())
        weights = 36 * 5 + 1  # input->exc matrix + one lateral strength
        neuron_parameters = 3 * 5  # v, refractory clock, theta
        conductances = 5 + 5  # input->exc and lateral, per excitatory neuron
        spike_flags = 36 + 5
        expected = weights + neuron_parameters + conductances + spike_flags
        assert actual_memory_bytes(network, 8) == expected == 247

    def test_counts_every_stored_value_of_the_baseline(self):
        """The same sizes with the inhibitory layer of the baseline."""
        config = SpikeDynConfig.scaled_down(n_input=36, n_exc=5, seed=0)
        network = build_baseline_network(config, learning_rule=PairwiseSTDP())
        weights = 36 * 5 + 5 + 5 * 4  # input->exc, exc->inh, inh->exc
        neuron_parameters = 3 * 5 + 2 * 5  # adaptive exc, plain LIF inh
        conductances = 3 * 5
        spike_flags = 36 + 5 + 5
        expected = weights + neuron_parameters + conductances + spike_flags
        assert actual_memory_bytes(network, 8) == expected == 291

    def test_scales_with_bit_precision(self, model):
        assert actual_memory_bytes(model.network, 32) == pytest.approx(
            2 * actual_memory_bytes(model.network, 16)
        )


class TestRunActualMeasurement:
    def test_aggregates_all_samples(self, model, spike_trains):
        measurement = run_actual_measurement(model.network, spike_trains,
                                             learning=False)
        assert measurement.n_samples == 3
        assert measurement.counter.total_ops() > 0
        assert measurement.memory_bytes > 0
        assert measurement.energy.joules > 0

    def test_per_sample_energy_is_the_mean(self, model, spike_trains):
        measurement = run_actual_measurement(model.network, spike_trains,
                                             learning=False)
        assert measurement.per_sample_energy.joules == pytest.approx(
            measurement.energy.joules / 3
        )

    def test_extrapolation_scales_the_mean(self, model, spike_trains):
        measurement = run_actual_measurement(model.network, spike_trains,
                                             learning=False)
        assert measurement.extrapolated(300).joules == pytest.approx(
            measurement.per_sample_energy.joules * 300
        )

    def test_device_changes_the_energy_but_not_the_counts(self, config, spike_trains):
        fast = run_actual_measurement(SpikeDynModel(config).network, spike_trains,
                                      learning=False, device=GTX_1080_TI)
        slow = run_actual_measurement(SpikeDynModel(config).network, spike_trains,
                                      learning=False, device=JETSON_NANO)
        assert slow.counter == fast.counter
        assert slow.energy.seconds > fast.energy.seconds

    def test_empty_sample_list(self, model):
        measurement = run_actual_measurement(model.network, [], learning=False)
        assert measurement.n_samples == 0
        assert measurement.energy.joules == 0.0
        # With no samples, the per-sample energy falls back to the total.
        assert measurement.per_sample_energy.joules == 0.0

    def test_training_measurement_counts_weight_updates(self, model, spike_trains):
        measurement = run_actual_measurement(model.network, spike_trains,
                                             learning=True)
        assert measurement.counter.weight_updates > 0
