"""Tests for exponentially decaying spike traces.

A trace is bumped by ``update``/``bump`` and decayed by its learning rule,
which decays the pre- and postsynaptic traces together in
``_decay_traces``; the decay tests drive the presynaptic trace of a pairwise
STDP rule that way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.learning.stdp import PairwiseSTDP
from repro.snn.neurons import InputGroup, LIFGroup
from repro.snn.simulation import OperationCounter
from repro.snn.synapses import Connection
from repro.snn.traces import SpikeTrace


def rule_with_traces(n_pre, n_post=1, **rule_options):
    """A pairwise STDP rule whose traces are bound to an ``n_pre`` x
    ``n_post`` connection."""
    rule = PairwiseSTDP(**rule_options)
    pre, post = InputGroup(n_pre, name="pre"), LIFGroup(n_post, name="post")
    rule._ensure_traces(Connection(pre, post, np.zeros((n_pre, n_post)),
                                   learning_rule=rule))
    return rule


class TestConstruction:
    def test_starts_at_zero(self):
        trace = SpikeTrace(5)
        np.testing.assert_allclose(trace.values, 0.0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            SpikeTrace(5, mode="multiply")

    def test_rejects_non_positive_tau(self):
        with pytest.raises(ValueError):
            SpikeTrace(5, tau=0.0)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            SpikeTrace(0)


class TestDecay:
    def test_exponential_decay_factor(self):
        rule = rule_with_traces(3, tau_pre=20.0)
        rule.pre_trace.values[:] = 1.0
        rule._decay_traces(1.0)
        np.testing.assert_allclose(rule.pre_trace.values, np.exp(-1.0 / 20.0))

    def test_decay_factor_follows_the_timestep(self):
        trace = SpikeTrace(2, tau=10.0)
        assert trace.decay_factor(1.0) == np.exp(-0.1)
        assert trace.decay_factor(2.0) == np.exp(-0.2)
        assert trace.decay_factor(1.0) == np.exp(-0.1)

    def test_decay_counts_operations(self):
        rule = rule_with_traces(3, n_post=1)
        counter = OperationCounter()
        rule._decay_traces(1.0, counter)
        # Every element of both traces decays once.
        assert counter.exponential_ops == 4
        assert counter.trace_updates == 4


class TestUpdate:
    def test_set_mode_clamps_to_increment(self):
        trace = SpikeTrace(3, increment=1.0, mode="set")
        trace.values[:] = 0.4
        trace.update(np.array([True, False, True]))
        np.testing.assert_allclose(trace.values, [1.0, 0.4, 1.0])

    def test_add_mode_accumulates(self):
        trace = SpikeTrace(2, increment=0.5, mode="add")
        trace.update(np.array([True, True]))
        trace.update(np.array([True, False]))
        np.testing.assert_allclose(trace.values, [1.0, 0.5])

    def test_update_validates_shape(self):
        trace = SpikeTrace(3)
        with pytest.raises(ValueError):
            trace.update(np.array([True, False]))

    def test_update_rejects_batch_shaped_spikes(self):
        trace = SpikeTrace(4)
        with pytest.raises(ValueError):
            trace.update(np.zeros((2, 4), dtype=bool))

    def test_bump_is_update_without_tallies(self):
        spikes = np.array([True, False, True])
        bumped, updated = SpikeTrace(3, mode="add"), SpikeTrace(3, mode="add")
        counter = OperationCounter()
        bumped.bump(spikes)
        updated.update(spikes, counter)
        np.testing.assert_array_equal(bumped.values, updated.values)
        assert counter.trace_updates == 2

    def test_update_counts_spiking_elements_only(self):
        trace = SpikeTrace(4)
        counter = OperationCounter()
        trace.update(np.array([True, False, True, False]), counter)
        assert counter.trace_updates == 2


class TestStepAndReset:
    def test_step_decays_then_updates(self):
        rule = rule_with_traces(2, tau_pre=10.0, trace_mode="set")
        trace = rule.pre_trace
        trace.values[:] = 1.0
        rule._decay_traces(1.0)
        trace.update(np.array([False, True]))
        assert trace.values[0] == pytest.approx(np.exp(-0.1))
        assert trace.values[1] == pytest.approx(1.0)

    def test_step_returns_live_view(self):
        """Decay and bump write into the rule's one trace buffer: the
        values a caller holds stay live."""
        rule = rule_with_traces(2)
        values = rule.pre_trace.values
        rule._decay_traces(1.0)
        rule.pre_trace.update(np.array([True, False]))
        assert values is rule.pre_trace.values
        assert values.base is rule._traces
        np.testing.assert_array_equal(values, [1.0, 0.0])

    def test_reset(self):
        trace = SpikeTrace(3)
        trace.update(np.array([True, True, True]))
        trace.reset()
        np.testing.assert_allclose(trace.values, 0.0)

    def test_trace_never_negative_under_decay(self):
        rule = rule_with_traces(3, tau_pre=1.0)
        rule.pre_trace.update(np.array([True, True, True]))
        for _ in range(50):
            rule._decay_traces(5.0)
        assert np.all(rule.pre_trace.values >= 0.0)
