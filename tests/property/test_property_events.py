"""The event engine's silent-gap proof, held to a reference and to stepping.

:func:`repro.snn.events.silence_is_provable` builds its membrane ceiling in
place and vetoes running refractory clocks with one count.  The reference
below is the earlier, allocating form of the same bound, kept verbatim:
on random states whose ceiling sits within ``NO_SPIKE_MARGIN`` of the
threshold floor, with pending spikes and refractory clocks, both must
decide the same.  The engine-level property runs
:meth:`~repro.snn.network.Network.run_events` against a stepped
:meth:`~repro.snn.network.Network.run_sample` on random small networks and
bursty streams: spike counts identical to stepping, and the same jumps
(``steps_skipped``) as with the reference proof.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.snn.network as network_module
from repro.learning.stdp import PairwiseSTDP
from repro.snn.events import NO_SPIKE_MARGIN, silence_is_provable
from repro.snn.network import Network
from repro.snn.neurons import AdaptiveLIFGroup, InputGroup, LIFGroup
from repro.snn.simulation import SimulationParameters
from repro.snn.synapses import Connection, UniformLateralInhibition

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def reference_silence_is_provable(network, margin: float = NO_SPIKE_MARGIN) -> bool:
    """The allocating form of the no-spike bound (the decision reference)."""
    dt = network.params.dt
    for stage in network.compile().stages:
        group = stage.group
        if group.spikes.any():
            return False
        if np.any(group.refrac_remaining > 0.0):
            return False
        ceiling = group.v_rest + np.maximum(group.v - group.v_rest, 0.0)
        for connection, _, mu in stage.inputs:
            if connection.sign <= 0:
                continue
            tail = mu / (1.0 - mu)
            ceiling = ceiling + (
                dt * connection.gain * tail
                * np.maximum(connection.conductance, 0.0)
            )
        floor = group.v_thresh
        theta = getattr(group, "theta", None)
        if theta is not None:
            floor = floor + min(float(np.min(theta)), 0.0)
        if np.max(ceiling) >= floor - margin:
            return False
    return True


def random_network(rng, *, dt=1.0, t_sim=200.0, learning_rule=None) -> Network:
    """Input -> excitatory (adaptive or plain), with optional lateral
    inhibition and an optional excitatory -> inhibitory -> excitatory loop."""
    network = Network(SimulationParameters(dt=dt, t_sim=t_sim, t_rest=20.0),
                      backend="sparse")
    n_input, n_exc = int(rng.integers(1, 11)), int(rng.integers(1, 9))
    inputs = network.add_group(InputGroup(n_input, name="input"))
    neuron = dict(refractory=float(rng.choice([0.0, 0.5, 2.0, 5.0])),
                  tau_m=float(rng.uniform(5.0, 120.0)), name="excitatory")
    if rng.random() < 0.7:
        excitatory = network.add_group(AdaptiveLIFGroup(
            n_exc, theta_plus=float(rng.uniform(0.0, 0.5)),
            tau_theta=float(rng.uniform(50.0, 1.0e4)), **neuron))
    else:
        excitatory = network.add_group(LIFGroup(n_exc, **neuron))
    weight = float(rng.uniform(0.5, 8.0))
    network.add_connection(Connection(
        inputs, excitatory, rng.uniform(0.0, weight, (n_input, n_exc)),
        w_max=2.0 * weight, tau_syn=float(rng.uniform(1.0, 10.0)),
        gain=float(rng.uniform(0.5, 2.0)), learning_rule=learning_rule,
        name="input_to_exc"))
    if rng.random() < 0.5:
        network.add_connection(UniformLateralInhibition(
            excitatory, float(rng.uniform(0.5, 5.0))))
    if rng.random() < 0.4:
        n_inh = int(rng.integers(1, 5))
        inhibitory = network.add_group(LIFGroup(
            n_inh, refractory=float(rng.choice([0.0, 2.0])), name="inhibitory"))
        network.add_connection(Connection(
            excitatory, inhibitory, rng.uniform(0.0, 10.0, (n_exc, n_inh)),
            w_max=10.0, name="exc_to_inh"))
        network.add_connection(Connection(
            inhibitory, excitatory, rng.uniform(0.0, 5.0, (n_inh, n_exc)),
            w_max=5.0, sign=-1, name="inh_to_exc"))
    return network


def near_threshold_state(network, rng) -> float:
    """Draw a state whose ceiling lands within 2 margins of ``floor - margin``
    for one neuron of each group; returns the drawn offset of the first.

    Conductances stay small enough that the other neurons' ceilings sit
    several mV below the floor, so the chosen neuron decides.
    """
    dt = network.params.dt
    offsets = []
    for connection in network.connections:
        conductance = rng.uniform(-1.0, 0.3, connection.conductance.shape)
        conductance[rng.random(conductance.shape) < 0.3] = 0.0
        connection.conductance = conductance
    for stage in network.compile().stages:
        group = stage.group
        floor = group.v_thresh
        if isinstance(group, AdaptiveLIFGroup):
            group.theta = rng.uniform(-0.5, 2.0, group.n)
            floor += min(float(np.min(group.theta)), 0.0)
        drive = np.zeros(group.n)
        for connection, _, mu in stage.inputs:
            if connection.sign > 0:
                drive += (dt * connection.gain * (mu / (1.0 - mu))
                          * np.maximum(connection.conductance, 0.0))
        offset = float(rng.uniform(-2.0, 2.0)) * NO_SPIKE_MARGIN
        offsets.append(offset)
        group.v = group.v_rest + rng.uniform(-5.0, 3.0, group.n)
        chosen = int(rng.integers(group.n))
        group.v[chosen] = floor - NO_SPIKE_MARGIN + offset - drive[chosen]
        group.refrac_remaining = np.zeros(group.n)
        if rng.random() < 0.25:
            group.refrac_remaining[int(rng.integers(group.n))] = float(
                rng.choice([0.5, 1.0, group.refractory or 1.0]))
        group.spikes = np.zeros(group.n, dtype=bool)
        if rng.random() < 0.25:
            group.spikes[int(rng.integers(group.n))] = True
    return offsets[0]


def bursty_stream(rng, steps: int, n_input: int) -> np.ndarray:
    """A dense train of a few short bursts separated by long silences."""
    train = np.zeros((steps, n_input), dtype=bool)
    for start in np.sort(rng.choice(steps - 4, size=int(rng.integers(1, 5)),
                                    replace=False)):
        length = int(rng.integers(1, 4))
        train[start:start + length] = rng.random((length, n_input)) < rng.uniform(0.2, 0.9)
    return train


@settings(max_examples=300, deadline=None)
@given(seed=seeds, dt=st.sampled_from([1.0, 0.5]))
def test_proof_decides_as_the_reference_near_the_bound(seed, dt):
    rng = np.random.default_rng(seed)
    network = random_network(rng, dt=dt)
    near_threshold_state(network, rng)
    assert silence_is_provable(network) == reference_silence_is_provable(network)


def test_the_bound_cases_reach_both_decisions():
    """The near-bound draws really straddle the bound, with and without
    vetoes, so the differential property exercises every exit."""
    decisions = set()
    for seed in range(400):
        rng = np.random.default_rng(seed)
        network = random_network(rng)
        offset = near_threshold_state(network, rng)
        stages = network.compile().stages
        vetoed = any(stage.group.spikes.any() or stage.group.refrac_remaining.any()
                     for stage in stages)
        decision = silence_is_provable(network)
        assert decision == reference_silence_is_provable(network)
        decisions.add((vetoed, decision, offset < 0.0))
    assert {(True, False), (False, False), (False, True)} <= {
        (vetoed, decision) for vetoed, decision, _ in decisions}
    # Just below the bound proves, just above it does not.
    assert (False, True, True) in decisions
    assert (False, False, False) in decisions


def _run_three_ways(seed, dt, learning):
    """Three identical random networks run on one bursty train: stepped,
    jumped, and jumped on the reference proof."""
    rng = np.random.default_rng(seed)
    steps = int(rng.integers(60, 240))
    network_seed = int(rng.integers(2**32))

    def build():
        rule = PairwiseSTDP(nu_pre=1e-3, nu_post=1e-2) if learning else None
        return random_network(np.random.default_rng(network_seed), dt=dt,
                              t_sim=steps * dt, learning_rule=rule)

    stepped, jumped, referenced = build(), build(), build()
    train = bursty_stream(rng, steps, stepped.input_group.n)
    kwargs = dict(learning=learning, include_rest=bool(rng.random() < 0.5))
    results = [stepped.run_sample(train, **kwargs),
               jumped.run_events(train, **kwargs)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network_module, "silence_is_provable",
                      reference_silence_is_provable)
        results.append(referenced.run_events(train, **kwargs))
    return (stepped, jumped, referenced), results


@settings(max_examples=60, deadline=None)
@given(seed=seeds, dt=st.sampled_from([1.0, 0.5]), learning=st.booleans())
def test_run_events_matches_stepping_and_the_reference_jumps(seed, dt, learning):
    (stepped, jumped, referenced), (expected, result, reference) = \
        _run_three_ways(seed, dt, learning)
    for name in expected.spike_counts:
        np.testing.assert_array_equal(result.counts(name), expected.counts(name))
        np.testing.assert_array_equal(reference.counts(name), result.counts(name))
    assert stepped.counter.steps_skipped == 0
    assert jumped.counter.steps_skipped == referenced.counter.steps_skipped
    assert jumped.counter.as_dict() == referenced.counter.as_dict()


def test_random_streams_do_jump():
    """The engine-level property is not vacuous: most runs jump."""
    jumping = 0
    for seed in range(12):
        (_, jumped, _), _ = _run_three_ways(seed, 1.0, False)
        jumping += jumped.counter.steps_skipped > 0
    assert jumping >= 6
