"""Property-based tests for SpikeDyn's core mechanisms."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.adaptive_rates import depression_factor, potentiation_factor
from repro.core.adaptive_threshold import adaptation_potential
from repro.core.learning import SpikeDynLearningRule
from repro.core.spurious import SpikeRecord
from repro.core.weight_decay import SynapticWeightDecay, decay_rate_for_network_size
from repro.snn.neurons import InputGroup, LIFGroup
from repro.snn.synapses import Connection

spike_counts = st.integers(min_value=0, max_value=10_000)
positive_floats = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(max_post=spike_counts, threshold=positive_floats)
def test_potentiation_factor_bounds(max_post, threshold):
    kp = potentiation_factor(max_post, threshold)
    assert kp >= 0.0
    assert kp == float(math.ceil(max_post / threshold)) or max_post == 0
    if max_post > 0:
        # kp is the smallest integer >= the ratio.
        assert kp >= max_post / threshold
        assert kp - 1 < max_post / threshold


@settings(max_examples=100, deadline=None)
@given(max_post=spike_counts, max_pre=spike_counts)
def test_depression_factor_is_a_bounded_ratio(max_post, max_pre):
    kd = depression_factor(max_post, max_pre)
    assert kd >= 0.0
    if max_pre > 0:
        assert kd == max_post / max_pre
    else:
        assert kd == 0.0


@settings(max_examples=100, deadline=None)
@given(c_theta=st.floats(min_value=0.0, max_value=10.0),
       theta_decay=st.floats(min_value=0.0, max_value=1.0),
       t_sim=st.floats(min_value=1.0, max_value=1000.0))
def test_adaptation_potential_is_nonnegative_and_monotone(c_theta, theta_decay, t_sim):
    theta = adaptation_potential(c_theta, theta_decay, t_sim)
    assert theta >= 0.0
    assert adaptation_potential(c_theta * 2, theta_decay, t_sim) >= theta


@settings(max_examples=100, deadline=None)
@given(n_exc=st.integers(min_value=1, max_value=100_000))
def test_decay_rate_is_inverse_in_network_size(n_exc):
    rate = decay_rate_for_network_size(n_exc)
    assert rate > 0.0
    assert rate == decay_rate_for_network_size(1) / n_exc


@settings(max_examples=50, deadline=None)
@given(
    weights=hnp.arrays(dtype=float, shape=(4, 5),
                       elements=st.floats(min_value=0.0, max_value=1.0)),
    w_decay=st.floats(min_value=0.0, max_value=1.0),
    elapsed=st.floats(min_value=0.0, max_value=1e4),
)
def test_weight_decay_never_increases_or_flips_sign(weights, w_decay, elapsed):
    decay = SynapticWeightDecay(w_decay, tau_decay=1e3)
    before = weights.copy()
    decay.apply(weights, elapsed)
    assert np.all(weights <= before + 1e-12)
    assert np.all(weights >= 0.0)


@settings(max_examples=50, deadline=None)
@given(
    w_decay=st.floats(min_value=1e-4, max_value=1.0),
    first=st.floats(min_value=0.0, max_value=500.0),
    second=st.floats(min_value=0.0, max_value=500.0),
)
def test_weight_decay_composes_over_time(w_decay, first, second):
    """Applying the decay over t1 then t2 equals applying it over t1 + t2."""
    decay = SynapticWeightDecay(w_decay, tau_decay=100.0)
    split = np.full((2, 2), 0.8)
    joint = np.full((2, 2), 0.8)
    decay.apply(split, first)
    decay.apply(split, second)
    decay.apply(joint, first + second)
    np.testing.assert_allclose(split, joint, rtol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    pre_spikes=hnp.arrays(dtype=bool, shape=(20, 6)),
    post_spikes=hnp.arrays(dtype=bool, shape=(20, 4)),
)
def test_rule_reads_the_record_its_driver_keeps(pre_spikes, post_spikes):
    """Driven like the engine drives it (counts added before each step),
    the rule's record is the driver's counts and reads their statistics;
    one window spans the whole run."""
    pre = InputGroup(6, name="pre")
    post = LIFGroup(4, name="post")
    rule = SpikeDynLearningRule(update_interval=100.0)
    connection = Connection(pre, post, np.full((6, 4), 0.5), learning_rule=rule)
    counts = {"pre": np.zeros(6, dtype=np.int64), "post": np.zeros(4, dtype=np.int64)}
    rule.on_sample_start(connection, counts)
    for t, (pre_row, post_row) in enumerate(zip(pre_spikes, post_spikes)):
        pre.spikes, post.spikes = pre_row, post_row
        counts["pre"] += pre_row
        counts["post"] += post_row
        rule.step(connection, 1.0, t)
    record = rule.record
    assert record.pre_counts is counts["pre"] and record.post_counts is counts["post"]
    np.testing.assert_array_equal(record.pre_counts, pre_spikes.sum(axis=0))
    np.testing.assert_array_equal(record.post_counts, post_spikes.sum(axis=0))
    assert record.max_pre == pre_spikes.sum(axis=0).max()
    assert record.max_post == post_spikes.sum(axis=0).max()
    assert record.post_spiked_in_window == bool(post_spikes.any())


@settings(max_examples=50, deadline=None)
@given(
    pre_spikes=hnp.arrays(dtype=bool, shape=(12, 5)),
    post_spikes=hnp.arrays(dtype=bool, shape=(12, 3)),
    boundary=st.integers(min_value=1, max_value=11),
)
def test_spike_record_window_flag_only_sees_the_current_window(
        pre_spikes, post_spikes, boundary):
    pre_counts = np.zeros(5, dtype=np.int64)
    post_counts = np.zeros(3, dtype=np.int64)
    record = SpikeRecord(pre_counts, post_counts)
    for pre_row, post_row in zip(pre_spikes[:boundary], post_spikes[:boundary]):
        pre_counts += pre_row
        post_counts += post_row
    record.close_window()
    for pre_row, post_row in zip(pre_spikes[boundary:], post_spikes[boundary:]):
        pre_counts += pre_row
        post_counts += post_row
    assert record.post_spiked_in_window == bool(post_spikes[boundary:].any())
    # The sample-level counts still cover every timestep.
    np.testing.assert_array_equal(record.post_counts, post_spikes.sum(axis=0))
