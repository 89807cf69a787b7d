"""Tests for the analytical memory model ``mem = (Pw + Pn) * BP``."""

from __future__ import annotations

import pytest

from repro.core.architecture import build_baseline_network, build_spikedyn_network
from repro.core.config import SpikeDynConfig
from repro.core.learning import SpikeDynLearningRule
from repro.estimation.memory import (
    ARCH_BASELINE,
    ARCH_SPIKEDYN,
    ArchitectureParameterCounts,
    architecture_parameter_counts,
    estimate_memory_bytes,
)
from repro.learning.stdp import PairwiseSTDP


class TestEstimateMemoryBytes:
    def test_formula(self):
        # (Pw + Pn) * BP, expressed in bytes.
        assert estimate_memory_bytes(100, 20, 32) == (100 + 20) * 4.0
        assert estimate_memory_bytes(100, 20, 16) == (100 + 20) * 2.0

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            estimate_memory_bytes(-1, 0)

    def test_rejects_invalid_precision(self):
        with pytest.raises(ValueError):
            estimate_memory_bytes(1, 1, 0)


class TestArchitectureParameterCounts:
    def test_baseline_counts(self):
        counts = architecture_parameter_counts(ARCH_BASELINE, 784, 400)
        # input->exc dense, exc->inh one-to-one, inh->exc dense minus diagonal.
        assert counts.weights == 784 * 400 + 400 + 400 * 399
        # 3 parameters per excitatory neuron, 2 per inhibitory neuron.
        assert counts.neuron_parameters == 3 * 400 + 2 * 400

    def test_spikedyn_counts(self):
        counts = architecture_parameter_counts(ARCH_SPIKEDYN, 784, 400)
        assert counts.weights == 784 * 400 + 1
        assert counts.neuron_parameters == 3 * 400

    def test_spikedyn_is_always_smaller(self):
        for n_exc in (50, 100, 200, 400):
            baseline = architecture_parameter_counts(ARCH_BASELINE, 784, n_exc)
            spikedyn = architecture_parameter_counts(ARCH_SPIKEDYN, 784, n_exc)
            assert spikedyn.total < baseline.total

    def test_savings_grow_with_network_size(self):
        """The eliminated inhibitory layer scales quadratically, so the
        relative saving grows with n_exc (paper Fig. 4b)."""
        def saving(n_exc: int) -> float:
            baseline = architecture_parameter_counts(ARCH_BASELINE, 784, n_exc)
            spikedyn = architecture_parameter_counts(ARCH_SPIKEDYN, 784, n_exc)
            return 1.0 - spikedyn.total / baseline.total

        assert saving(400) > saving(200) > saving(100) > 0.0

    def test_memory_bytes_uses_bit_precision(self):
        counts = ArchitectureParameterCounts(weights=10, neuron_parameters=2)
        assert counts.memory_bytes(32) == 48.0
        assert counts.memory_bytes(8) == 12.0

    def test_total(self):
        counts = ArchitectureParameterCounts(weights=7, neuron_parameters=5)
        assert counts.total == 12

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            architecture_parameter_counts("transformer", 784, 400)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            architecture_parameter_counts(ARCH_SPIKEDYN, 0, 400)


class TestNetworkParameterCounts:
    @pytest.fixture
    def config(self) -> SpikeDynConfig:
        return SpikeDynConfig.scaled_down(n_input=36, n_exc=5, seed=0)

    def test_spikedyn_network_matches_the_analytical_model(self, config):
        network = build_spikedyn_network(config, learning_rule=SpikeDynLearningRule())
        analytical = architecture_parameter_counts(ARCH_SPIKEDYN, 36, 5)
        assert network.weight_count == analytical.weights
        assert network.neuron_parameter_count == analytical.neuron_parameters

    def test_baseline_network_matches_the_analytical_model(self, config):
        network = build_baseline_network(config, learning_rule=PairwiseSTDP())
        analytical = architecture_parameter_counts(ARCH_BASELINE, 36, 5)
        assert network.weight_count == analytical.weights
        assert network.neuron_parameter_count == analytical.neuron_parameters
