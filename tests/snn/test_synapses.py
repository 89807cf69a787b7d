"""Tests for synaptic connections and direct lateral inhibition.

A connection is stepped the way a compiled step plan steps it, in a run's
``(B, n)`` state: its conductance decays (``decay_state``), then ``inject``
adds this step's presynaptic spikes, and the signed, scaled conductance is
the current its target integrates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.base import store_state
from repro.learning.stdp import PairwiseSTDP
from repro.snn.neurons import InputGroup, LIFGroup
from repro.snn.synapses import Connection, UniformLateralInhibition


def make_groups(n_pre=4, n_post=3):
    pre = InputGroup(n_pre, name="pre")
    post = LIFGroup(n_post, name="post")
    return pre, post


def transmit(connection, dt=1.0):
    """Advance ``connection`` one timestep; return the ``(B, n)`` current it
    delivers.  ``B`` is the number of rows of the presynaptic spikes; the
    conductance takes that shape on the first step, as the step plan's
    ``begin`` gives it."""
    shape = (len(connection.pre.spikes), connection.post.n)
    if connection.conductance.shape != shape:
        connection.conductance = np.zeros(shape)
    conductance = connection.conductance
    store_state(conductance, connection.backend.decay_state(
        conductance, connection.decay_factor(dt)))
    connection.inject()
    return connection.sign * connection.gain * conductance


class TestConnectionConstruction:
    def test_validates_weight_shape(self):
        pre, post = make_groups()
        with pytest.raises(ValueError):
            Connection(pre, post, np.zeros((3, 3)))

    def test_validates_sign(self):
        pre, post = make_groups()
        with pytest.raises(ValueError):
            Connection(pre, post, np.zeros((4, 3)), sign=0)

    def test_validates_weight_bounds(self):
        pre, post = make_groups()
        with pytest.raises(ValueError):
            Connection(pre, post, np.zeros((4, 3)), w_min=1.0, w_max=0.5)

    def test_copies_the_weight_matrix(self):
        pre, post = make_groups()
        weights = np.ones((4, 3))
        connection = Connection(pre, post, weights)
        weights[0, 0] = 99.0
        assert connection.weights[0, 0] == 1.0

    def test_plastic_flag_follows_learning_rule(self):
        pre, post = make_groups()
        assert not Connection(pre, post, np.zeros((4, 3))).is_plastic
        assert Connection(pre, post, np.zeros((4, 3)),
                          learning_rule=PairwiseSTDP()).is_plastic

    def test_weight_count_dense_for_plastic(self):
        pre, post = make_groups()
        connection = Connection(pre, post, np.zeros((4, 3)),
                                learning_rule=PairwiseSTDP())
        assert connection.weight_count == 12

    def test_weight_count_structural_for_fixed(self):
        pre, post = make_groups(3, 3)
        connection = Connection(pre, post, np.eye(3))
        assert connection.weight_count == 3

    def test_fanout(self):
        pre, post = make_groups(4, 3)
        connection = Connection(pre, post, np.ones((4, 3)),
                                learning_rule=PairwiseSTDP())
        assert connection.fanout == pytest.approx(3.0)


class TestConnectionPropagation:
    def test_no_spikes_no_current(self):
        pre, post = make_groups()
        connection = Connection(pre, post, np.ones((4, 3)))
        pre.spikes = np.zeros((1, 4), dtype=bool)
        current = transmit(connection)
        np.testing.assert_allclose(current, 0.0)

    def test_spike_injects_weighted_conductance(self):
        pre, post = make_groups()
        weights = np.arange(12, dtype=float).reshape(4, 3)
        connection = Connection(pre, post, weights, tau_syn=5.0, w_max=20.0)
        pre.spikes = np.array([[True, False, False, False]])
        current = transmit(connection)
        np.testing.assert_allclose(current, [weights[0]])

    def test_multiple_spikes_sum(self):
        pre, post = make_groups()
        weights = np.ones((4, 3))
        connection = Connection(pre, post, weights, w_max=5.0)
        pre.spikes = np.array([[True, True, False, False]])
        current = transmit(connection)
        np.testing.assert_allclose(current, 2.0)

    def test_conductance_decays_exponentially(self):
        pre, post = make_groups()
        connection = Connection(pre, post, np.ones((4, 3)), tau_syn=2.0, w_max=5.0)
        pre.spikes = np.array([[True, False, False, False]])
        first = transmit(connection).copy()
        pre.spikes = np.zeros((1, 4), dtype=bool)
        second = transmit(connection)
        np.testing.assert_allclose(second, first * np.exp(-0.5))

    def test_inhibitory_sign_flips_current(self):
        pre, post = make_groups()
        connection = Connection(pre, post, np.ones((4, 3)), sign=-1, w_max=5.0)
        pre.spikes = np.array([[True, False, False, False]])
        current = transmit(connection)
        assert np.all(current < 0.0)

    def test_gain_scales_current(self):
        pre, post = make_groups()
        connection = Connection(pre, post, np.ones((4, 3)), gain=2.5, w_max=5.0)
        pre.spikes = np.array([[True, False, False, False]])
        np.testing.assert_allclose(transmit(connection), 2.5)

    def test_counter_charges_dense_ops_for_plastic_projection(self):
        pre, post = make_groups()
        connection = Connection(pre, post, np.ones((4, 3)),
                                learning_rule=PairwiseSTDP())
        assert connection.step_operations() == {"synaptic_events": 12,
                                                "exponential_ops": 3}

    def test_batched_injection_is_per_sample(self):
        pre, post = make_groups()
        weights = np.arange(12, dtype=float).reshape(4, 3)
        connection = Connection(pre, post, weights, w_max=20.0)
        pre.spikes = np.array([[True, False, True, False],
                               [False, False, False, True]])
        current = transmit(connection)
        np.testing.assert_array_equal(current, [weights[0] + weights[2], weights[3]])
        # A fixed projection is charged its 11 non-zero weights per sample.
        assert connection.step_operations() == {"synaptic_events": 11,
                                                "exponential_ops": 3}

    def test_reset_clears_conductance(self):
        pre, post = make_groups()
        connection = Connection(pre, post, np.ones((4, 3)), w_max=5.0)
        pre.spikes = np.array([[True, False, False, False]])
        transmit(connection)
        connection.reset_state()
        np.testing.assert_allclose(connection.conductance, 0.0)


class TestConnectionPlasticityHelpers:
    def test_clip_weights(self):
        pre, post = make_groups()
        connection = Connection(pre, post, np.zeros((4, 3)), w_min=0.0, w_max=1.0)
        connection.weights[:] = 5.0
        connection.weights[0, 0] = -3.0
        connection.clip_weights()
        assert connection.weights.max() == 1.0
        assert connection.weights.min() == 0.0

    def test_normalize_scales_columns_to_target(self):
        pre, post = make_groups()
        weights = np.random.default_rng(0).random((4, 3)) * 0.4
        connection = Connection(pre, post, weights, norm=1.0, w_max=2.0)
        connection.normalize()
        np.testing.assert_allclose(connection.weights.sum(axis=0), 1.0)

    def test_normalize_is_noop_without_target(self):
        pre, post = make_groups()
        weights = np.full((4, 3), 0.25)
        connection = Connection(pre, post, weights)
        connection.normalize()
        np.testing.assert_allclose(connection.weights, 0.25)

    def test_normalize_skips_silent_columns(self):
        pre, post = make_groups()
        weights = np.zeros((4, 3))
        weights[:, 0] = 0.25
        connection = Connection(pre, post, weights, norm=1.0, w_max=2.0)
        connection.normalize()
        np.testing.assert_allclose(connection.weights[:, 1], 0.0)
        np.testing.assert_allclose(connection.weights[:, 0].sum(), 1.0)


class TestUniformLateralInhibition:
    def test_rejects_negative_strength(self):
        group = LIFGroup(4, name="exc")
        with pytest.raises(ValueError):
            UniformLateralInhibition(group, -1.0)

    def test_stores_single_weight(self):
        group = LIFGroup(4, name="exc")
        lateral = UniformLateralInhibition(group, 10.0)
        assert lateral.weight_count == 1
        assert not lateral.is_plastic

    def test_fanout_excludes_self(self):
        group = LIFGroup(5, name="exc")
        assert UniformLateralInhibition(group, 1.0).fanout == 4.0

    def test_spiking_neuron_is_not_self_inhibited(self):
        group = LIFGroup(3, name="exc")
        lateral = UniformLateralInhibition(group, 2.0, tau_syn=5.0)
        group.spikes = np.array([[True, False, False]])
        (current,) = transmit(lateral)
        assert current[0] == pytest.approx(0.0)
        assert current[1] == pytest.approx(-2.0)
        assert current[2] == pytest.approx(-2.0)

    def test_multiple_spikes_accumulate_for_others(self):
        group = LIFGroup(3, name="exc")
        lateral = UniformLateralInhibition(group, 1.0)
        group.spikes = np.array([[True, True, False]])
        (current,) = transmit(lateral)
        # Each spiker is inhibited only by the other spiker; the silent neuron
        # is inhibited by both.
        assert current[0] == pytest.approx(-1.0)
        assert current[1] == pytest.approx(-1.0)
        assert current[2] == pytest.approx(-2.0)

    def test_conductance_decays(self):
        group = LIFGroup(3, name="exc")
        lateral = UniformLateralInhibition(group, 1.0, tau_syn=2.0)
        group.spikes = np.array([[True, False, False]])
        first = transmit(lateral).copy()
        group.spikes = np.zeros((1, 3), dtype=bool)
        second = transmit(lateral)
        np.testing.assert_allclose(second, first * np.exp(-0.5))

    def test_counter_charges_linear_cost(self):
        group = LIFGroup(10, name="exc")
        lateral = UniformLateralInhibition(group, 1.0)
        assert lateral.step_operations() == {"synaptic_events": 10,
                                             "exponential_ops": 10}

    def test_reset_clears_conductance(self):
        group = LIFGroup(3, name="exc")
        lateral = UniformLateralInhibition(group, 1.0)
        group.spikes = np.array([[True, True, True]])
        transmit(lateral)
        lateral.reset_state()
        np.testing.assert_allclose(lateral.conductance, 0.0)

    def test_batched_inhibition_is_per_sample(self):
        group = LIFGroup(3, name="exc")
        lateral = UniformLateralInhibition(group, 1.0)
        group.spikes = np.array([[True, False, False], [False, False, False]])
        current = transmit(lateral)
        np.testing.assert_allclose(current, [[0.0, -1.0, -1.0], [0.0, 0.0, 0.0]])
        # Tallies are per sample; the step plan multiplies by the batch.
        assert lateral.step_operations() == {"synaptic_events": 3,
                                             "exponential_ops": 3}

    def test_equivalent_to_dense_all_to_all_matrix(self):
        """The O(n) broadcast matches an explicit all-to-all-except-self matrix."""
        from repro.snn.topology import all_to_all_except_self_weights

        n, strength = 6, 3.0
        group = LIFGroup(n, name="exc")
        lateral = UniformLateralInhibition(group, strength, tau_syn=2.0)
        dense = Connection(
            group, group, all_to_all_except_self_weights(n, strength),
            sign=-1, tau_syn=2.0, w_max=strength * 2,
        )
        rng = np.random.default_rng(0)
        for _ in range(5):
            group.spikes = rng.random((1, n)) < 0.4
            np.testing.assert_allclose(
                transmit(lateral), transmit(dense), atol=1e-12
            )
