"""Property-based tests for the SNN engine and learning-rule invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.learning import SpikeDynLearningRule
from repro.core.weight_decay import SynapticWeightDecay
from repro.learning.asp import ASPLearningRule
from repro.learning.stdp import PairwiseSTDP
from repro.backends.base import store_state
from repro.snn.neurons import AdaptiveLIFGroup, InputGroup, LIFGroup
from repro.snn.synapses import Connection, UniformLateralInhibition

spike_rasters = hnp.arrays(dtype=bool, shape=(30, 5))


def _traced_rule(n, tau, mode):
    """A pairwise STDP rule whose presynaptic trace has ``n`` elements."""
    rule = PairwiseSTDP(tau_pre=tau, trace_mode=mode)
    rule._ensure_traces(Connection(InputGroup(n, name="pre"),
                                   LIFGroup(1, name="post"), np.zeros((n, 1)),
                                   learning_rule=rule))
    return rule


def _trace_history(rule, raster):
    """Decay the rule's traces and bump the presynaptic one, row by row;
    the presynaptic values after every row."""
    history = []
    for row in raster:
        rule._decay_traces(1.0)
        rule.pre_trace.update(row)
        history.append(rule.pre_trace.values.copy())
    return history


@settings(max_examples=40, deadline=None)
@given(raster=spike_rasters, tau=st.floats(min_value=1.0, max_value=100.0))
def test_set_mode_traces_stay_in_unit_interval(raster, tau):
    for values in _trace_history(_traced_rule(5, tau, "set"), raster):
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0)


@settings(max_examples=40, deadline=None)
@given(raster=spike_rasters)
def test_add_mode_traces_are_bounded_by_the_spike_count(raster):
    values = _trace_history(_traced_rule(5, 20.0, "add"), raster)[-1]
    assert np.all(values <= raster.sum(axis=0) + 1e-12)
    assert np.all(values >= 0.0)


def _integrate(group, current):
    group.integrate(current, 1.0, group.decay_factors(1.0))
    return group.spikes


@settings(max_examples=30, deadline=None)
@given(
    currents=hnp.arrays(dtype=float, shape=(40, 6),
                        elements=st.floats(min_value=-50.0, max_value=50.0)),
)
def test_lif_membrane_stays_finite_and_resets_on_spikes(currents):
    group = LIFGroup(6, refractory=0.0)
    for row in currents:
        spikes = _integrate(group, row)
        assert np.all(np.isfinite(group.v))
        # A neuron that spiked is at the reset potential.
        assert np.all(group.v[spikes] == group.v_reset)
        # No neuron sits above its firing threshold after the step.
        assert np.all(group.v <= group.firing_threshold() + 1e-9)


@settings(max_examples=30, deadline=None)
@given(
    currents=hnp.arrays(dtype=float, shape=(40, 6),
                        elements=st.floats(min_value=0.0, max_value=100.0)),
    theta_plus=st.floats(min_value=0.0, max_value=5.0),
)
def test_adaptive_theta_is_nonnegative_and_bounded(currents, theta_plus):
    group = AdaptiveLIFGroup(6, refractory=0.0, theta_plus=theta_plus,
                             tau_theta=50.0)
    total_spikes = 0
    for row in currents:
        spikes = _integrate(group, row)
        total_spikes += int(spikes.sum())
        assert np.all(group.theta >= 0.0)
    # Theta can never exceed what the spikes alone could have accumulated.
    assert group.theta.sum() <= theta_plus * total_spikes + 1e-9


@settings(max_examples=30, deadline=None)
@given(raster=hnp.arrays(dtype=bool, shape=(25, 4)),
       strength=st.floats(min_value=0.0, max_value=30.0))
def test_lateral_inhibition_current_is_never_positive(raster, strength):
    group = LIFGroup(4)
    lateral = UniformLateralInhibition(group, strength)
    for row in raster:
        group.spikes = row
        store_state(lateral.conductance, lateral.backend.decay_state(
            lateral.conductance, lateral.decay_factor(1.0)))
        lateral.inject()
        current = -lateral.gain * lateral.conductance
        assert np.all(current <= 1e-12)
        assert np.all(np.isfinite(current))


def _drive_rule(rule, pre_raster, post_raster):
    pre = InputGroup(pre_raster.shape[1], name="pre")
    post = LIFGroup(post_raster.shape[1], name="post")
    connection = Connection(pre, post,
                            np.full((pre.n, post.n), 0.5), learning_rule=rule)
    # The spike record, kept as a network's step plan keeps it.
    counts = {"pre": np.zeros(pre.n, dtype=np.int64), "post": np.zeros(post.n, dtype=np.int64)}
    rule.on_sample_start(connection, counts)
    for t, (pre_row, post_row) in enumerate(zip(pre_raster, post_raster)):
        pre.spikes = pre_row
        post.spikes = post_row
        counts["pre"] += pre_row
        counts["post"] += post_row
        rule.step(connection, 1.0, t)
    rule.on_sample_end(connection)
    return connection


learning_rules = st.sampled_from(["stdp", "asp", "spikedyn"])


def _build_rule(kind: str):
    if kind == "stdp":
        return PairwiseSTDP(nu_pre=0.05, nu_post=0.5, soft_bounds=False)
    if kind == "asp":
        return ASPLearningRule(nu_pre=0.05, nu_post=0.5, tau_leak=100.0)
    return SpikeDynLearningRule(
        nu_pre=0.05, nu_post=0.5, update_interval=5.0,
        weight_decay=SynapticWeightDecay(0.5, tau_decay=100.0), soft_bounds=False,
    )


@settings(max_examples=25, deadline=None)
@given(
    kind=learning_rules,
    pre_raster=hnp.arrays(dtype=bool, shape=(30, 6)),
    post_raster=hnp.arrays(dtype=bool, shape=(30, 4)),
)
def test_every_learning_rule_respects_the_weight_bounds(kind, pre_raster,
                                                        post_raster):
    connection = _drive_rule(_build_rule(kind), pre_raster, post_raster)
    assert np.all(connection.weights >= connection.w_min - 1e-12)
    assert np.all(connection.weights <= connection.w_max + 1e-12)
    assert np.all(np.isfinite(connection.weights))


@settings(max_examples=25, deadline=None)
@given(
    kind=learning_rules,
    pre_raster=hnp.arrays(dtype=bool, shape=(30, 6)),
)
def test_learning_without_postsynaptic_spikes_never_potentiates(kind, pre_raster):
    """With a silent postsynaptic layer there is nothing to potentiate: no
    rule may increase any weight above its initial value."""
    post_raster = np.zeros((30, 4), dtype=bool)
    connection = _drive_rule(_build_rule(kind), pre_raster, post_raster)
    assert np.all(connection.weights <= 0.5 + 1e-12)
