"""Tests for SpikeDyn's continual and unsupervised learning rule (Alg. 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.architecture import build_spikedyn_network
from repro.core.config import SpikeDynConfig
from repro.core.learning import SpikeDynLearningRule
from repro.core.weight_decay import SynapticWeightDecay
from repro.snn.neurons import InputGroup, LIFGroup
from repro.snn.simulation import OperationCounter
from repro.snn.synapses import Connection


def make_connection(n_pre=4, n_post=3, initial=0.5, *, rule=None):
    pre = InputGroup(n_pre, name="pre")
    post = LIFGroup(n_post, name="post")
    connection = Connection(pre, post, np.full((n_pre, n_post), initial),
                            learning_rule=rule)
    return pre, post, connection


def start_sample(rule, connection):
    """Open a sample with a fresh spike record, ``{group name: counts}``, as
    a network hands over its step plan's counts."""
    counts = {group.name: np.zeros(group.n, dtype=np.int64)
              for group in (connection.pre, connection.post)}
    rule.on_sample_start(connection, counts)
    return counts


def step(rule, connection, counts, pre_spikes, post_spikes, t_index, counter=None):
    """One timestep as the step plan runs it: set the spikes, add them to
    the record (``counts``; ``None`` adds nothing), then step the rule."""
    connection.pre.spikes = np.asarray(pre_spikes, dtype=bool)
    connection.post.spikes = np.asarray(post_spikes, dtype=bool)
    if counts is not None:
        counts[connection.pre.name] += connection.pre.spikes
        counts[connection.post.name] += connection.post.spikes
    rule.step(connection, 1.0, t_index, counter)


def drive(rule, connection, counts, pre_pattern, post_pattern, steps,
          start=0, counter=None):
    """Drive the rule for ``steps`` timesteps with fixed spike patterns."""
    for offset in range(steps):
        step(rule, connection, counts, pre_pattern, post_pattern, start + offset, counter)
    return start + steps


class TestTimestepGating:
    def test_no_update_before_the_window_boundary(self):
        rule = SpikeDynLearningRule(update_interval=10.0, weight_decay=None)
        _, _, connection = make_connection(rule=rule)
        counts = start_sample(rule, connection)
        before = connection.weights.copy()
        drive(rule, connection, counts, [1, 1, 0, 0], [1, 0, 0], steps=9)
        np.testing.assert_array_equal(connection.weights, before)

    def test_update_happens_at_the_window_boundary(self):
        rule = SpikeDynLearningRule(update_interval=10.0, weight_decay=None,
                                    nu_post=0.1)
        _, _, connection = make_connection(rule=rule)
        counts = start_sample(rule, connection)
        before = connection.weights.copy()
        drive(rule, connection, counts, [1, 1, 0, 0], [1, 0, 0], steps=10)
        assert not np.array_equal(connection.weights, before)

    def test_disabling_gating_updates_every_step(self):
        rule = SpikeDynLearningRule(update_interval=10.0, weight_decay=None,
                                    gate_updates=False, nu_post=0.1)
        _, _, connection = make_connection(rule=rule)
        counts = start_sample(rule, connection)
        before = connection.weights.copy()
        drive(rule, connection, counts, [1, 0, 0, 0], [1, 0, 0], steps=1)
        assert not np.array_equal(connection.weights, before)

    def test_gating_reduces_weight_update_operations(self):
        """The spurious-update reduction is where training energy is saved."""
        def weight_update_ops(gate_updates: bool) -> int:
            rule = SpikeDynLearningRule(update_interval=10.0, weight_decay=None,
                                        gate_updates=gate_updates)
            _, _, connection = make_connection(rule=rule)
            counter = OperationCounter()
            counts = start_sample(rule, connection)
            rng = np.random.default_rng(0)
            for t in range(40):
                step(rule, connection, counts, rng.random(4) < 0.5,
                     rng.random(3) < 0.3, t, counter)
            return counter.weight_updates

        assert weight_update_ops(True) < weight_update_ops(False)


class TestPotentiationAndDepression:
    def test_window_with_postsynaptic_spikes_potentiates_the_winner(self):
        rule = SpikeDynLearningRule(update_interval=4.0, weight_decay=None,
                                    nu_post=0.1, nu_pre=0.1)
        _, _, connection = make_connection(rule=rule)
        counts = start_sample(rule, connection)
        before = connection.weights.copy()
        # Postsynaptic neuron 1 is the most active.
        drive(rule, connection, counts, [1, 1, 0, 0], [0, 1, 0], steps=4)
        assert np.all(connection.weights[:2, 1] > before[:2, 1])
        # The other columns are not potentiated at this boundary.
        np.testing.assert_array_equal(connection.weights[:, 0], before[:, 0])
        np.testing.assert_array_equal(connection.weights[:, 2], before[:, 2])

    def test_window_without_postsynaptic_spikes_depresses_everything(self):
        rule = SpikeDynLearningRule(update_interval=4.0, weight_decay=None,
                                    nu_post=0.1, nu_pre=0.1)
        _, _, connection = make_connection(rule=rule)
        counts = start_sample(rule, connection)
        # First window: establish postsynaptic traces and accumulated counts.
        t = drive(rule, connection, counts, [1, 1, 1, 1], [1, 1, 1], steps=4)
        before = connection.weights.copy()
        # Second window: presynaptic activity only -> depression of all synapses.
        drive(rule, connection, counts, [1, 1, 1, 1], [0, 0, 0], steps=4,
              start=t)
        assert np.all(connection.weights <= before)
        assert np.any(connection.weights < before)

    def test_depression_requires_presynaptic_evidence(self):
        """With no presynaptic spikes at all, kd = 0 and nothing is depressed."""
        rule = SpikeDynLearningRule(update_interval=4.0, weight_decay=None,
                                    nu_pre=0.1, nu_post=0.1)
        _, _, connection = make_connection(rule=rule)
        counts = start_sample(rule, connection)
        before = connection.weights.copy()
        drive(rule, connection, counts, [0, 0, 0, 0], [0, 0, 0], steps=4)
        np.testing.assert_array_equal(connection.weights, before)

    def test_adaptive_rates_scale_potentiation(self):
        """More postsynaptic activity -> larger kp -> larger weight change."""
        def delta_after(post_rate_steps: int) -> float:
            rule = SpikeDynLearningRule(update_interval=8.0, weight_decay=None,
                                        nu_post=0.01, spike_threshold=2.0,
                                        soft_bounds=False)
            _, _, connection = make_connection(rule=rule)
            counts = start_sample(rule, connection)
            for t in range(8):
                step(rule, connection, counts, [True, False, False, False],
                     [t < post_rate_steps, False, False], t)
            return float(connection.weights[0, 0] - 0.5)

        assert delta_after(8) > delta_after(1) > 0.0

    def test_fixed_rates_ablation_pins_factors_to_one(self):
        rule = SpikeDynLearningRule(update_interval=4.0, weight_decay=None,
                                    adaptive_rates=False, nu_post=0.1,
                                    soft_bounds=False)
        _, _, connection = make_connection(rule=rule)
        counts = start_sample(rule, connection)
        drive(rule, connection, counts, [1, 0, 0, 0], [1, 0, 0], steps=4)
        # kp pinned to 1: the update equals nu_post * pre_trace at the boundary.
        expected = 0.1 * rule.pre_trace.values[0]
        assert connection.weights[0, 0] - 0.5 == pytest.approx(expected)


class TestWeightDecayIntegration:
    def test_decay_shrinks_weights_between_updates(self):
        decay = SynapticWeightDecay(w_decay=5.0, tau_decay=10.0)
        rule = SpikeDynLearningRule(update_interval=5.0, weight_decay=decay,
                                    nu_post=0.0, nu_pre=0.0)
        _, _, connection = make_connection(rule=rule)
        counts = start_sample(rule, connection)
        before = connection.weights.copy()
        drive(rule, connection, counts, [0, 0, 0, 0], [0, 0, 0], steps=5)
        assert np.all(connection.weights < before)

    def test_no_decay_object_means_no_decay(self):
        rule = SpikeDynLearningRule(update_interval=5.0, weight_decay=None,
                                    nu_post=0.0, nu_pre=0.0)
        _, _, connection = make_connection(rule=rule)
        counts = start_sample(rule, connection)
        before = connection.weights.copy()
        drive(rule, connection, counts, [0, 0, 0, 0], [0, 0, 0], steps=5)
        np.testing.assert_array_equal(connection.weights, before)


class TestBookkeeping:
    def test_record_matches_connection_shape(self):
        rule = SpikeDynLearningRule()
        _, _, connection = make_connection(6, 5, rule=rule)
        start_sample(rule, connection)
        assert rule.record.pre_counts.shape == (6,)
        assert rule.record.post_counts.shape == (5,)

    def test_sample_end_releases_the_record(self):
        rule = SpikeDynLearningRule(update_interval=4.0)
        pre, post, connection = make_connection(rule=rule)
        counts = {"pre": np.zeros(4, dtype=np.int64), "post": np.zeros(3, dtype=np.int64)}
        rule.on_sample_start(connection, counts)
        for t in range(4):
            pre.spikes = np.ones(4, dtype=bool)
            post.spikes = np.ones(3, dtype=bool)
            counts["pre"] += pre.spikes
            counts["post"] += post.spikes
            rule.step(connection, 1.0, t)
        rule.on_sample_end(connection)
        assert rule.record is None
        # The driver's counts are its own: the rule leaves them as they are.
        np.testing.assert_array_equal(counts["pre"], 4)
        np.testing.assert_array_equal(counts["post"], 4)

    def test_reset_drops_the_record(self):
        rule = SpikeDynLearningRule()
        _, _, connection = make_connection(rule=rule)
        start_sample(rule, connection)
        rule.reset()
        assert rule.record is None

    def test_a_handed_record_is_read_not_counted(self):
        """Handed a record, the rule never adds spikes to it: counts the
        driver leaves at zero keep ``kp`` at zero, so a window full of
        postsynaptic spikes potentiates nothing."""
        rule = SpikeDynLearningRule(update_interval=4.0, weight_decay=None,
                                    nu_post=0.1)
        _, _, connection = make_connection(rule=rule)
        counts = {"pre": np.zeros(4, dtype=np.int64), "post": np.zeros(3, dtype=np.int64)}
        rule.on_sample_start(connection, counts)
        before = connection.weights.copy()
        drive(rule, connection, None, [1, 1, 1, 1], [1, 1, 1], steps=4)
        np.testing.assert_array_equal(counts["pre"], 0)
        np.testing.assert_array_equal(counts["post"], 0)
        np.testing.assert_array_equal(connection.weights, before)

    def test_in_a_network_the_record_is_the_plans_counts(self):
        config = SpikeDynConfig.scaled_down(n_input=49, n_exc=10, t_sim=30.0, seed=2)
        records = []

        class Recording(SpikeDynLearningRule):
            def on_sample_end(self, connection, counter=None):
                records.append(self.record)
                super().on_sample_end(connection, counter)

        network = build_spikedyn_network(config, learning_rule=Recording(), rng=2)
        trains = np.random.default_rng(5).random((2, 30, 49)) < 0.3
        results = [network.run_sample(train, learning=True) for train in trains]
        for record, result in zip(records, results):
            assert record.pre_counts is result.counts("input")
            assert record.post_counts is result.counts("excitatory")
        assert results[1].counts("excitatory").sum() > 0

    def test_weights_stay_within_bounds_under_random_drive(self):
        rule = SpikeDynLearningRule(update_interval=5.0, nu_post=1.0, nu_pre=1.0,
                                    weight_decay=SynapticWeightDecay(0.5, 10.0))
        _, _, connection = make_connection(rule=rule)
        counts = start_sample(rule, connection)
        rng = np.random.default_rng(3)
        for t in range(60):
            step(rule, connection, counts, rng.random(4) < 0.5, rng.random(3) < 0.4, t)
        assert connection.weights.min() >= connection.w_min
        assert connection.weights.max() <= connection.w_max

    def test_a_sample_without_a_record_is_refused(self):
        """The rule reads its driver's record and never counts spikes itself."""
        rule = SpikeDynLearningRule()
        _, _, connection = make_connection(rule=rule)
        with pytest.raises(ValueError, match="spike record"):
            rule.on_sample_start(connection)
        assert rule.record is None

    def test_stepping_outside_a_sample_is_refused(self):
        rule = SpikeDynLearningRule()
        _, _, connection = make_connection(rule=rule)
        with pytest.raises(RuntimeError, match="on_sample_start"):
            rule.step(connection, 1.0, 0)
        counts = start_sample(rule, connection)
        step(rule, connection, counts, [1, 0, 0, 0], [0, 0, 0], 0)
        rule.on_sample_end(connection)
        with pytest.raises(RuntimeError, match="on_sample_start"):
            rule.step(connection, 1.0, 1)

    def test_the_record_is_the_handed_counts(self):
        """The record holds the driver's arrays, looked up by group name."""
        rule = SpikeDynLearningRule()
        _, _, connection = make_connection(rule=rule)
        counts = start_sample(rule, connection)
        assert rule.record.pre_counts is counts["pre"]
        assert rule.record.post_counts is counts["post"]

    def test_a_recurrent_connection_reads_one_array_twice(self):
        group = LIFGroup(3, name="exc")
        rule = SpikeDynLearningRule()
        connection = Connection(group, group, np.full((3, 3), 0.5), learning_rule=rule)
        counts = {"exc": np.zeros(3, dtype=np.int64), "unrelated": np.zeros(9)}
        rule.on_sample_start(connection, counts)
        assert rule.record.pre_counts is counts["exc"]
        assert rule.record.post_counts is counts["exc"]

    def test_every_sample_reads_its_own_record(self):
        rule = SpikeDynLearningRule(update_interval=2.0)
        _, _, connection = make_connection(rule=rule)
        first = start_sample(rule, connection)
        drive(rule, connection, first, [1, 0, 0, 0], [1, 0, 0], steps=2)
        rule.on_sample_end(connection)
        second = start_sample(rule, connection)
        assert rule.record.pre_counts is second["pre"]
        assert rule.record.max_post == 0
        np.testing.assert_array_equal(first["post"], [2, 0, 0])

    def test_the_window_flag_follows_the_record(self):
        """"A postsynaptic spike in this window" is read from the counts the
        driver adds, window by window."""
        rule = SpikeDynLearningRule(update_interval=2.0, weight_decay=None,
                                    nu_post=0.0, nu_pre=0.0)
        _, _, connection = make_connection(rule=rule)
        counts = start_sample(rule, connection)
        step(rule, connection, counts, [1, 0, 0, 0], [0, 1, 0], 0)
        assert rule.record.post_spiked_in_window
        step(rule, connection, counts, [1, 0, 0, 0], [0, 0, 0], 1)  # boundary
        assert not rule.record.post_spiked_in_window
        step(rule, connection, counts, [1, 0, 0, 0], [0, 0, 0], 2)
        assert not rule.record.post_spiked_in_window
        assert rule.record.most_active_post == 1

    def test_trace_work_is_charged_from_the_record(self):
        """``on_sample_end`` charges one decay per trace element per step and
        one bump per spike the record holds."""
        rule = SpikeDynLearningRule(update_interval=100.0)
        _, _, connection = make_connection(rule=rule)
        counter = OperationCounter()
        counts = start_sample(rule, connection)
        drive(rule, connection, counts, [1, 1, 0, 0], [0, 0, 1], steps=5)
        rule.on_sample_end(connection, counter)
        decayed = 5 * (4 + 3)
        assert counter.exponential_ops == decayed
        assert counter.trace_updates == decayed + 5 * 2 + 5 * 1

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            SpikeDynLearningRule(update_interval=0.0)
        with pytest.raises(ValueError):
            SpikeDynLearningRule(nu_pre=-1.0)


class TestTraceAccounting:
    def test_rest_steps_are_not_charged_as_trace_bumps(self):
        """With ``include_rest`` the rule learns only while the sample is
        presented: the trace work charged is one decay per element per
        presented step plus one bump per presented input and excitatory
        spike, none for the spikes of the rest period."""
        config = SpikeDynConfig(n_input=49, n_exc=10, t_sim=40.0, t_rest=30.0,
                                update_interval=5.0, seed=3)
        network = build_spikedyn_network(
            config, learning_rule=SpikeDynLearningRule(update_interval=5.0), rng=3)
        train = np.random.default_rng(4).random((40, 49)) < 0.3
        rest_spikes = 0
        for _ in range(3):
            before = network.counter.copy()
            result = network.run_sample(train, learning=True, include_rest=True)
            delta = network.counter - before
            presented = int(result.counts("input").sum()
                            + result.counts("excitatory").sum())
            assert delta.trace_updates == 40 * (49 + 10) + presented
            rest_spikes += delta.spike_events - int(result.counts("excitatory").sum())
        # The case checks something: the excitatory group fires during rest.
        assert rest_spikes > 0
