"""Tests for the network orchestration and its run loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.learning.stdp import PairwiseSTDP
from repro.snn.network import Network, SampleResult
from repro.snn.neurons import AdaptiveLIFGroup, InputGroup, LIFGroup
from repro.snn.simulation import SimulationParameters
from repro.snn.synapses import Connection, UniformLateralInhibition


def build_feedforward_network(n_input=6, n_exc=4, *, learning_rule=None,
                              weight_value=5.0, params=None) -> Network:
    """A minimal input -> excitatory network with strong uniform weights."""
    network = Network(params or SimulationParameters(dt=1.0, t_sim=20.0, t_rest=5.0))
    input_group = network.add_group(InputGroup(n_input, name="input"))
    excitatory = network.add_group(AdaptiveLIFGroup(
        n_exc, refractory=0.0, theta_plus=0.0, name="excitatory"
    ))
    network.add_connection(Connection(
        input_group, excitatory, np.full((n_input, n_exc), weight_value),
        w_max=weight_value * 2, learning_rule=learning_rule, name="input_to_exc",
    ))
    return network


class TestConstruction:
    def test_group_names_must_be_unique(self):
        network = Network()
        network.add_group(LIFGroup(2, name="layer"))
        with pytest.raises(ValueError):
            network.add_group(LIFGroup(3, name="layer"))

    def test_only_one_input_group(self):
        network = Network()
        network.add_group(InputGroup(2, name="input_a"))
        with pytest.raises(ValueError):
            network.add_group(InputGroup(2, name="input_b"))

    def test_connection_requires_registered_groups(self):
        network = Network()
        pre = InputGroup(2, name="input")
        post = LIFGroup(2, name="exc")
        network.add_group(pre)
        with pytest.raises(ValueError):
            network.add_connection(Connection(pre, post, np.zeros((2, 2))))

    def test_connection_requires_same_object(self):
        network = Network()
        network.add_group(InputGroup(2, name="input"))
        network.add_group(LIFGroup(2, name="exc"))
        other_input = InputGroup(2, name="input")
        with pytest.raises(ValueError):
            network.add_connection(
                Connection(other_input, network.group("exc"), np.zeros((2, 2)))
            )

    def test_input_group_property_requires_an_input(self):
        network = Network()
        network.add_group(LIFGroup(2, name="exc"))
        with pytest.raises(RuntimeError):
            _ = network.input_group

    def test_group_lookup(self):
        network = Network()
        group = network.add_group(LIFGroup(2, name="exc"))
        assert network.group("exc") is group
        with pytest.raises(KeyError):
            network.group("missing")

    def test_connection_lookup(self):
        network = build_feedforward_network()
        assert network.connection("input_to_exc").name == "input_to_exc"
        with pytest.raises(KeyError):
            network.connection("missing")


class TestParameterAccounting:
    def test_weight_count_sums_connections(self):
        network = build_feedforward_network(n_input=6, n_exc=4,
                                            learning_rule=PairwiseSTDP())
        excitatory = network.group("excitatory")
        network.add_connection(UniformLateralInhibition(excitatory, 1.0))
        assert network.weight_count == 6 * 4 + 1

    def test_neuron_parameter_count_sums_groups(self):
        network = build_feedforward_network(n_input=6, n_exc=4)
        # Input neurons carry no parameters; adaptive LIF neurons carry three.
        assert network.neuron_parameter_count == 3 * 4


class TestRunSample:
    def test_returns_per_group_counts(self):
        network = build_feedforward_network()
        train = np.ones((10, 6), dtype=bool)
        result = network.run_sample(train, learning=False)
        assert isinstance(result, SampleResult)
        assert set(result.spike_counts) == {"input", "excitatory"}
        assert result.counts("input").sum() == 60
        assert result.counts("excitatory").sum() > 0
        assert result.steps == 10
        assert not result.learning

    def test_silent_input_produces_no_output(self):
        network = build_feedforward_network()
        result = network.run_sample(np.zeros((10, 6), dtype=bool), learning=False)
        assert result.counts("excitatory").sum() == 0

    def test_unknown_group_raises_in_counts(self):
        network = build_feedforward_network()
        result = network.run_sample(np.zeros((5, 6), dtype=bool), learning=False)
        with pytest.raises(KeyError):
            result.counts("missing")

    def test_rest_period_extends_steps(self):
        params = SimulationParameters(dt=1.0, t_sim=20.0, t_rest=5.0)
        network = build_feedforward_network(params=params)
        result = network.run_sample(np.zeros((10, 6), dtype=bool),
                                    learning=False, include_rest=True)
        assert result.steps == 15

    def test_learning_false_preserves_weights(self):
        network = build_feedforward_network(learning_rule=PairwiseSTDP(),
                                            weight_value=0.5)
        connection = network.connection("input_to_exc")
        before = connection.weights.copy()
        network.run_sample(np.ones((10, 6), dtype=bool), learning=False)
        np.testing.assert_array_equal(connection.weights, before)

    def test_learning_true_updates_weights(self):
        network = build_feedforward_network(learning_rule=PairwiseSTDP(nu_post=0.5),
                                            weight_value=5.0)
        connection = network.connection("input_to_exc")
        connection.norm = None  # keep the raw STDP change visible
        before = connection.weights.copy()
        network.run_sample(np.ones((10, 6), dtype=bool), learning=True)
        assert not np.array_equal(connection.weights, before)

    def test_transient_state_is_cleared_between_samples(self):
        network = build_feedforward_network()
        network.run_sample(np.ones((10, 6), dtype=bool), learning=False)
        excitatory = network.group("excitatory")
        np.testing.assert_allclose(excitatory.v, excitatory.v_rest)
        np.testing.assert_allclose(
            network.connection("input_to_exc").conductance, 0.0
        )

    def test_operation_counter_accumulates(self):
        network = build_feedforward_network()
        network.run_sample(np.ones((10, 6), dtype=bool), learning=False)
        first_total = network.counter.total_ops()
        network.run_sample(np.ones((10, 6), dtype=bool), learning=False)
        assert first_total > 0
        assert network.counter.total_ops() > first_total


    def test_counts_cover_the_presentation_only(self):
        train = np.ones((10, 6), dtype=bool)
        presented = build_feedforward_network().run_sample(train, learning=False)
        network = build_feedforward_network()
        with_rest = network.run_sample(train, learning=False, include_rest=True)
        for name in ("input", "excitatory"):
            np.testing.assert_array_equal(with_rest.counts(name),
                                          presented.counts(name))

    def test_results_keep_their_counts_after_later_runs(self):
        network = build_feedforward_network()
        first = network.run_sample(np.ones((10, 6), dtype=bool), learning=False)
        kept = {name: counts.copy() for name, counts in first.spike_counts.items()}
        network.run_sample(np.ones((10, 6), dtype=bool), learning=False)
        network.run_batch(np.ones((2, 10, 6), dtype=bool))
        for name, counts in kept.items():
            np.testing.assert_array_equal(first.counts(name), counts)


class TestLateralInhibitionNetwork:
    def test_lateral_inhibition_sharpens_competition(self):
        """With strong lateral inhibition, fewer excitatory spikes survive."""
        def total_spikes(strength: float) -> int:
            network = build_feedforward_network(n_input=6, n_exc=4)
            excitatory = network.group("excitatory")
            if strength > 0:
                network.add_connection(
                    UniformLateralInhibition(excitatory, strength)
                )
            rng = np.random.default_rng(0)
            train = rng.random((30, 6)) < 0.5
            return int(network.run_sample(train, learning=False)
                       .counts("excitatory").sum())

        assert total_spikes(50.0) < total_spikes(0.0)


class TestReset:
    def test_full_reset_clears_counters(self):
        network = build_feedforward_network()
        network.run_sample(np.ones((10, 6), dtype=bool), learning=False)
        network.reset(full=True)
        assert network.counter.total_ops() == 0

    def test_reset_never_touches_weights(self):
        network = build_feedforward_network(learning_rule=PairwiseSTDP())
        connection = network.connection("input_to_exc")
        before = connection.weights.copy()
        network.reset(full=True)
        np.testing.assert_array_equal(connection.weights, before)
