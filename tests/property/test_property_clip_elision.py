"""Clip elision never changes a weight: elided vs forced-clip learning.

The SpikeDyn update windows and the pairwise-STDP steps skip full-matrix
clips into ``[w_min, w_max]`` where the clip provably changes nothing (see
the notes of :class:`~repro.core.learning.SpikeDynLearningRule`).  Each
property trains a rule twice on the same spikes, once as shipped and once
with every clip forced (the per-sample bounds check overridden to
"unknown", which is the pre-elision behaviour), and requires bit-identical
weights and operation counts.  The strategies draw every fallback trigger:
``w_min > 0``, ``soft_bounds=False``, depression rates
``kd * nu_pre * x_post > 1`` and weights out of bounds at sample start;
targeted cases pin each trigger, and that in-bounds windows really skip
the clip.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.learning import SpikeDynLearningRule
from repro.core.weight_decay import SynapticWeightDecay
from repro.learning.asp import ASPLearningRule
from repro.learning.stdp import PairwiseSTDP
from repro.snn.neurons import InputGroup, LIFGroup
from repro.snn.simulation import OperationCounter
from repro.snn.synapses import Connection

N_PRE, N_POST, STEPS, SAMPLES = 6, 4, 24, 2


def _forced_clip(rule_class):
    """``rule_class`` with the bounds check always "unknown": every clip runs."""

    class ForcedClip(rule_class):
        def _weights_in_bounds(self, connection):
            return False

    return ForcedClip


def _train(rule, weights, w_min, w_max, pre, post):
    """Train ``rule`` over the ``(sample, step, neuron)`` rasters.

    Returns the final weights, the operation counts and the number of
    full-matrix clips the connection made.
    """
    pre_group = InputGroup(weights.shape[0], name="pre")
    post_group = LIFGroup(weights.shape[1], name="post")
    connection = Connection(pre_group, post_group, weights, w_min=w_min,
                            w_max=w_max, learning_rule=rule)
    clip = connection.clip_weights
    clips = []

    def counted_clip():
        clips.append(1)
        clip()

    connection.clip_weights = counted_clip
    counter = OperationCounter()
    for pre_raster, post_raster in zip(pre, post):
        # The spike record, kept as a network's step plan keeps it: every
        # step's spikes are added before the rule steps.
        counts = {"pre": np.zeros(pre_group.n, dtype=np.int64),
                  "post": np.zeros(post_group.n, dtype=np.int64)}
        rule.on_sample_start(connection, counts)
        for t, (pre_row, post_row) in enumerate(zip(pre_raster, post_raster)):
            pre_group.spikes = pre_row
            post_group.spikes = post_row
            counts["pre"] += pre_row
            counts["post"] += post_row
            rule.step(connection, 1.0, t, counter)
        rule.on_sample_end(connection, counter)
    return connection.weights, counter.as_dict(), len(clips)


def _spikedyn(rule_class, *, nu_pre=0.05, soft_bounds=True, trace_mode="set",
              w_decay=0.5, update_interval=4.0):
    return rule_class(
        nu_pre=nu_pre, nu_post=0.5, spike_threshold=2.0,
        update_interval=update_interval,
        weight_decay=SynapticWeightDecay(w_decay, tau_decay=100.0),
        soft_bounds=soft_bounds, trace_mode=trace_mode,
    )


def _assert_elision_is_exact(make_rule, rule_class, weights, w_min, w_max,
                             pre, post):
    """Train ``make_rule(rule_class)`` as shipped and with forced clips;
    returns the weights and both full-clip counts."""
    elided = _train(make_rule(rule_class), weights, w_min, w_max, pre, post)
    forced = _train(make_rule(_forced_clip(rule_class)), weights, w_min, w_max,
                    pre, post)
    np.testing.assert_array_equal(elided[0], forced[0])
    assert elided[1] == forced[1]
    return elided[0], elided[2], forced[2]


weight_arrays = hnp.arrays(dtype=float, shape=(N_PRE, N_POST),
                           elements=st.floats(min_value=-0.5, max_value=2.0))
pre_rasters = hnp.arrays(dtype=bool, shape=(SAMPLES, STEPS, N_PRE))
post_rasters = hnp.arrays(dtype=bool, shape=(SAMPLES, STEPS, N_POST))
lower_bounds = st.sampled_from([0.0, 0.0, 0.1])
upper_bounds = st.floats(min_value=0.5, max_value=1.5)


def _bounded(weights, w_min, w_max, out_of_bounds):
    return weights if out_of_bounds else np.clip(weights, w_min, w_max)


@settings(max_examples=60, deadline=None)
@given(
    weights=weight_arrays, out_of_bounds=st.booleans(),
    w_min=lower_bounds, w_max=upper_bounds,
    nu_pre=st.floats(min_value=0.0, max_value=3.0),
    soft_bounds=st.booleans(), trace_mode=st.sampled_from(["set", "add"]),
    w_decay=st.floats(min_value=0.0, max_value=2.0),
    update_interval=st.sampled_from([1.0, 3.0, 4.0]),
    pre=pre_rasters, post=post_rasters,
)
def test_spikedyn_windows_match_forced_clips(weights, out_of_bounds, w_min,
                                             w_max, nu_pre, soft_bounds,
                                             trace_mode, w_decay,
                                             update_interval, pre, post):
    build = partial(_spikedyn, nu_pre=nu_pre, soft_bounds=soft_bounds,
                    trace_mode=trace_mode, w_decay=w_decay,
                    update_interval=update_interval)
    _assert_elision_is_exact(build, SpikeDynLearningRule,
                             _bounded(weights, w_min, w_max, out_of_bounds),
                             w_min, w_max, pre, post)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([PairwiseSTDP, ASPLearningRule]),
    weights=weight_arrays, out_of_bounds=st.booleans(),
    w_min=lower_bounds, w_max=upper_bounds,
    nu_pre=st.floats(min_value=0.0, max_value=3.0),
    nu_post=st.floats(min_value=0.0, max_value=3.0),
    soft_bounds=st.booleans(), trace_mode=st.sampled_from(["set", "add"]),
    pre=pre_rasters, post=post_rasters,
)
def test_pairwise_stdp_steps_match_forced_clips(kind, weights, out_of_bounds,
                                                w_min, w_max, nu_pre, nu_post,
                                                soft_bounds, trace_mode, pre,
                                                post):
    extra = {"tau_leak": 50.0} if kind is ASPLearningRule else {}

    def build(rule_class):
        return rule_class(nu_pre=nu_pre, nu_post=nu_post, soft_bounds=soft_bounds,
                          trace_mode=trace_mode, **extra)

    _assert_elision_is_exact(build, kind,
                             _bounded(weights, w_min, w_max, out_of_bounds),
                             w_min, w_max, pre, post)


# -- each fallback trigger, pinned ---------------------------------------------


def _scenario(seed):
    """Posts spike early in each sample, then stay silent, so later windows
    depress with a non-zero postsynaptic trace."""
    rng = np.random.default_rng(seed)
    pre = rng.random((SAMPLES, STEPS, N_PRE)) < 0.5
    post = np.zeros((SAMPLES, STEPS, N_POST), dtype=bool)
    post[:, :6] = rng.random((SAMPLES, 6, N_POST)) < 0.4
    weights = rng.uniform(0.0, 1.0, (N_PRE, N_POST))
    return weights, pre, post


@pytest.mark.parametrize("seed", range(5))
def test_in_bounds_windows_skip_every_full_clip(seed):
    weights, pre, post = _scenario(seed)
    _, elided, forced = _assert_elision_is_exact(_spikedyn, SpikeDynLearningRule,
                                                 weights, 0.0, 1.0, pre, post)
    assert elided == 0 < forced


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("trigger", ["w_min > 0", "soft_bounds=False",
                                     "kd*nu_pre*trace > 1", "out of bounds"])
def test_every_fallback_trigger_keeps_its_clip(seed, trigger):
    weights, pre, post = _scenario(seed)
    w_min, options = 0.0, {}
    if trigger == "w_min > 0":
        w_min = 0.2
        weights = np.clip(weights, w_min, 1.0)
    elif trigger == "soft_bounds=False":
        # Hard-bounded depression subtracts the rate itself.
        options = {"soft_bounds": False, "nu_pre": 0.4}
    elif trigger == "kd*nu_pre*trace > 1":
        options = {"nu_pre": 6.0, "trace_mode": "add"}
    else:
        weights = weights.copy()
        weights[0, :] = 1.5
        weights[1, :] = -0.25

    final, elided, forced = _assert_elision_is_exact(
        partial(_spikedyn, **options), SpikeDynLearningRule, weights, w_min, 1.0,
        pre, post)
    # The trigger takes a clipping path that the in-bounds run skips.
    assert elided > 0
    assert np.all(final >= w_min) and np.all(final <= 1.0)
    if trigger == "w_min > 0":
        # No window can prove its clip redundant.
        assert elided == forced


@pytest.mark.parametrize("kind", [PairwiseSTDP, ASPLearningRule])
def test_pairwise_stdp_clips_weights_that_start_out_of_bounds(kind):
    weights, pre, post = _scenario(7)
    weights[0, :] = 1.5
    weights[1, :] = -0.25
    rule = kind(nu_pre=1e-4, nu_post=1e-2)
    final, _, clips = _train(rule, weights, 0.0, 1.0, pre, post)
    assert clips > 0
    assert np.all(final >= 0.0) and np.all(final <= 1.0)
