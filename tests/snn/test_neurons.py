"""Tests for the neuron group models (input, LIF, adaptive LIF).

Groups are stepped the way a compiled step plan steps them: one
``integrate`` call with the summed input current and the group's
precomputed decay factors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.snn.neurons import AdaptiveLIFGroup, InputGroup, LIFGroup, NeuronGroup


def step(group, current, dt=1.0):
    """Advance ``group`` one timestep on ``current``; return its spikes."""
    group.integrate(np.asarray(current, dtype=float), dt, group.decay_factors(dt))
    return group.spikes


class TestNeuronGroupBase:
    def test_requires_positive_size(self):
        with pytest.raises(ValueError):
            NeuronGroup(0)

    def test_spike_vector_starts_empty(self):
        group = NeuronGroup(4)
        assert group.spikes.shape == (4,)
        assert not group.spikes.any()

    def test_step_is_abstract(self):
        with pytest.raises(NotImplementedError):
            step(NeuronGroup(2), np.zeros(2))


class TestInputGroup:
    @pytest.mark.parametrize("batch_size, shape", [
        (None, (4, 2)),
        (None, (3,)),
        (2, (3, 5)),
        (2, (3, 4, 5)),
    ])
    def test_validate_train_rejects_wrong_shapes(self, batch_size, shape):
        group = InputGroup(5 if batch_size else 3, name="input")
        if batch_size:
            group.begin_batch(batch_size)
        match = "batched spike train" if batch_size else "spike train"
        with pytest.raises(ValueError, match=match):
            group.validate_train(np.zeros(shape, dtype=bool))

    @pytest.mark.parametrize("batch_size, shape", [(None, (4, 3)),
                                                   (2, (2, 4, 3))])
    def test_validate_train_returns_a_boolean_copy(self, batch_size, shape):
        group = InputGroup(3)
        if batch_size:
            group.begin_batch(batch_size)
        train = np.ones(shape)
        checked = group.validate_train(train)
        assert checked.dtype == bool and checked.shape == shape
        assert not np.shares_memory(checked, train)

    def test_reset_does_not_corrupt_the_fed_row(self):
        """Regression test: resetting must not zero the fed spike-train row
        through the spike-vector alias."""
        group = InputGroup(2)
        train = np.ones((2, 2), dtype=bool)
        group.spikes = train[0]
        group.reset_state()
        np.testing.assert_array_equal(train, np.ones((2, 2), dtype=bool))

    def test_no_persistent_parameters(self):
        assert InputGroup(10).parameter_count == 0


class TestLIFGroup:
    def make_group(self, n=3, **kwargs) -> LIFGroup:
        defaults = dict(v_rest=-65.0, v_reset=-65.0, v_thresh=-52.0,
                        tau_m=100.0, refractory=5.0)
        defaults.update(kwargs)
        return LIFGroup(n, **defaults)

    def test_initial_potential_is_resting(self):
        group = self.make_group()
        np.testing.assert_allclose(group.v, -65.0)

    def test_parameter_count(self):
        assert self.make_group(n=7).parameter_count == 14

    def test_threshold_must_exceed_reset(self):
        with pytest.raises(ValueError):
            LIFGroup(2, v_reset=-50.0, v_thresh=-60.0)

    def test_membrane_integrates_input(self):
        group = self.make_group()
        step(group, np.full(3, 1.0))
        assert np.all(group.v > -65.0)

    def test_membrane_decays_towards_rest(self):
        group = self.make_group(tau_m=10.0)
        group.v[:] = -55.0
        step(group, np.zeros(3))
        assert np.all(group.v < -55.0)
        assert np.all(group.v > -65.0)

    def test_strong_input_elicits_spike_and_reset(self):
        group = self.make_group()
        spikes = step(group, np.full(3, 100.0))
        assert spikes.all()
        np.testing.assert_allclose(group.v, group.v_reset)

    def test_refractory_period_blocks_integration(self):
        group = self.make_group(refractory=5.0)
        step(group, np.full(3, 100.0))           # spike -> refractory
        spikes = step(group, np.full(3, 100.0))  # still refractory
        assert not spikes.any()
        np.testing.assert_allclose(group.v, group.v_rest, atol=1e-9)

    def test_zero_refractory_allows_consecutive_spikes(self):
        group = self.make_group(refractory=0.0)
        assert step(group, np.full(3, 100.0)).all()
        assert step(group, np.full(3, 100.0)).all()

    def test_refractory_expires(self):
        group = self.make_group(refractory=2.0)
        step(group, np.full(3, 100.0))
        step(group, np.zeros(3))
        step(group, np.zeros(3))
        spikes = step(group, np.full(3, 100.0))
        assert spikes.all()

    def test_counter_accounting(self):
        group = self.make_group(n=4)
        spikes = step(group, np.full(4, 100.0))
        assert group.step_operations() == {"neuron_updates": 4, "exponential_ops": 4}
        assert int(spikes.sum()) == 4

    def test_decay_factors_are_the_membrane_decay(self):
        group = self.make_group(tau_m=20.0)
        assert group.decay_factors(0.5) == (np.exp(-0.5 / 20.0),)

    def test_step_operations_scale_with_the_batch(self):
        group = self.make_group(n=4)
        group.begin_batch(3)
        spikes = step(group, np.full((3, 4), 100.0))
        assert spikes.shape == (3, 4) and spikes.all()
        assert group.step_operations() == {"neuron_updates": 12, "exponential_ops": 12}
        group.end_batch()
        assert group.step_operations() == {"neuron_updates": 4, "exponential_ops": 4}

    def test_reset_state(self):
        group = self.make_group()
        step(group, np.full(3, 100.0))
        group.reset_state()
        np.testing.assert_allclose(group.v, group.v_rest)
        assert np.all(group.refrac_remaining == 0.0)
        assert not group.spikes.any()


class TestAdaptiveLIFGroup:
    def make_group(self, n=3, **kwargs) -> AdaptiveLIFGroup:
        defaults = dict(theta_plus=0.5, tau_theta=100.0, refractory=0.0)
        defaults.update(kwargs)
        return AdaptiveLIFGroup(n, **defaults)

    def test_parameter_count_includes_theta(self):
        assert self.make_group(n=5).parameter_count == 15

    def test_initial_threshold(self):
        group = self.make_group(theta_init=1.0)
        np.testing.assert_allclose(group.firing_threshold(), group.v_thresh + 1.0)

    def test_theta_grows_on_spikes(self):
        group = self.make_group()
        step(group, np.full(3, 100.0))
        assert np.all(group.theta > 0.0)

    def test_theta_decays_without_spikes(self):
        group = self.make_group(tau_theta=10.0)
        group.theta[:] = 1.0
        step(group, np.zeros(3))
        assert np.all(group.theta < 1.0)
        assert np.all(group.theta > 0.0)

    def test_theta_raises_effective_threshold(self):
        group = self.make_group(theta_plus=5.0)
        # A current that spikes a fresh neuron but not one with elevated theta.
        current = np.full(3, 14.0)
        assert step(group, current).all()
        assert not step(group, current).all()

    def test_adaptation_can_be_disabled(self):
        group = self.make_group()
        group.adapt_theta = False
        step(group, np.full(3, 100.0))
        np.testing.assert_allclose(group.theta, 0.0)

    def test_partial_reset_keeps_theta(self):
        group = self.make_group()
        step(group, np.full(3, 100.0))
        theta_before = group.theta.copy()
        group.reset_state(full=False)
        np.testing.assert_array_equal(group.theta, theta_before)

    def test_full_reset_restores_theta_init(self):
        group = self.make_group(theta_init=0.25)
        step(group, np.full(3, 100.0))
        group.reset_state(full=True)
        np.testing.assert_allclose(group.theta, 0.25)

    def test_decay_factors_add_the_theta_decay(self):
        group = self.make_group(tau_theta=50.0)
        assert group.decay_factors(1.0) == (np.exp(-1.0 / group.tau_m),
                                            np.exp(-1.0 / 50.0))

    def test_counter_counts_theta_update(self):
        group = self.make_group(n=2)
        step(group, np.zeros(2))
        # One membrane update + one theta update per neuron.
        assert group.step_operations() == {"neuron_updates": 4, "exponential_ops": 4}
