"""Tests for the event-stream representation and the event-driven engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import SparseEventBackend
from repro.core.learning import SpikeDynLearningRule
from repro.learning.asp import ASPLearningRule
from repro.learning.stdp import PairwiseSTDP
from repro.snn.events import (
    EventStream,
    _geometric_drive,
    advance_analytic,
    as_event_stream,
    silence_is_provable,
)
from repro.snn.network import Network
from repro.snn.neurons import AdaptiveLIFGroup, InputGroup
from repro.snn.simulation import SimulationParameters
from repro.snn.synapses import Connection

N_INPUT = 8
N_EXC = 4


def bursty_train(timesteps=400, n=N_INPUT, bursts=4, burst_steps=3,
                 p=0.5, seed=7) -> np.ndarray:
    """Low-density dense train with long silent gaps between bursts."""
    rng = np.random.default_rng(seed)
    train = np.zeros((timesteps, n), dtype=bool)
    spacing = timesteps // bursts
    for b in range(bursts):
        window = rng.random((burst_steps, n)) < p
        train[b * spacing:b * spacing + burst_steps] = window
    return train


def build_network(*, backend="sparse", learning_rule=None,
                  weight=1.5, t_sim=400.0, t_rest=20.0,
                  seed=3) -> Network:
    """Small input -> adaptive-excitatory network with lateral inhibition."""
    rng = np.random.default_rng(seed)
    network = Network(
        SimulationParameters(dt=1.0, t_sim=t_sim, t_rest=t_rest),
        backend=backend,
    )
    input_group = network.add_group(InputGroup(N_INPUT, name="input"))
    excitatory = network.add_group(AdaptiveLIFGroup(
        N_EXC, refractory=2.0, theta_plus=0.05, name="excitatory"
    ))
    network.add_connection(Connection(
        input_group, excitatory,
        rng.uniform(0.0, weight, size=(N_INPUT, N_EXC)),
        w_max=weight * 2, learning_rule=learning_rule, name="input_to_exc",
    ))
    return network


def paired_networks(rule_factory=None, **kwargs):
    """Two bit-identical networks, one for each engine under comparison.

    Each network gets its own learning-rule instance (rules carry state, so
    sharing one across both engines would couple the comparison).
    """
    return (
        build_network(learning_rule=rule_factory() if rule_factory else None,
                      **kwargs),
        build_network(learning_rule=rule_factory() if rule_factory else None,
                      **kwargs),
    )


class TestEventStream:
    def test_dense_round_trip_is_lossless(self):
        train = bursty_train()
        stream = EventStream.from_dense(train)
        np.testing.assert_array_equal(stream.to_dense(), train)
        assert stream.n_events == int(train.sum())
        assert stream.density == pytest.approx(train.mean())

    def test_events_are_stably_sorted_by_time(self):
        stream = EventStream(times=[5, 1, 5, 0], channels=[2, 1, 0, 3],
                             n_steps=6, n_channels=4)
        np.testing.assert_array_equal(stream.times, [0, 1, 5, 5])
        np.testing.assert_array_equal(stream.channels, [3, 1, 2, 0])

    def test_step_channels_groups_by_active_step(self):
        stream = EventStream(times=[0, 0, 7], channels=[1, 2, 0],
                             n_steps=10, n_channels=3)
        active, per_step = stream.step_channels()
        np.testing.assert_array_equal(active, [0, 7])
        np.testing.assert_array_equal(sorted(per_step[0]), [1, 2])
        np.testing.assert_array_equal(per_step[1], [0])

    def test_bounds_are_validated(self):
        with pytest.raises(ValueError, match="times"):
            EventStream(times=[10], channels=[0], n_steps=10, n_channels=2)
        with pytest.raises(ValueError, match="channels"):
            EventStream(times=[0], channels=[2], n_steps=10, n_channels=2)
        with pytest.raises(ValueError, match="equal length"):
            EventStream(times=[0, 1], channels=[0], n_steps=10, n_channels=2)

    @pytest.mark.parametrize("n_steps,n_channels", [(0, 4), (10, 0), (-1, 2)])
    def test_grid_must_be_non_empty(self, n_steps, n_channels):
        with pytest.raises(ValueError):
            EventStream(times=[], channels=[], n_steps=n_steps, n_channels=n_channels)

    @pytest.mark.parametrize("shape", [(10,), (2, 10, 3)])
    def test_from_dense_needs_a_two_dimensional_train(self, shape):
        with pytest.raises(ValueError, match="timesteps, n"):
            EventStream.from_dense(np.zeros(shape, dtype=bool))

    def test_empty_stream(self):
        stream = EventStream.empty(50, 4)
        assert stream.n_events == 0
        assert stream.active_steps.size == 0
        assert not stream.to_dense().any()

    def test_as_event_stream_checks_the_channel_count(self):
        stream = EventStream.empty(10, 4)
        assert as_event_stream(stream) is stream
        with pytest.raises(ValueError, match="channels"):
            as_event_stream(stream, n_channels=5)


class TestSilenceBound:
    def test_fresh_network_is_provably_silent(self):
        network = build_network()
        assert silence_is_provable(network)

    def test_pending_spikes_veto_the_jump(self):
        network = build_network()
        network.group("excitatory").spikes[:] = True
        assert not silence_is_provable(network)

    def test_refractory_timers_veto_the_jump(self):
        network = build_network()
        network.group("excitatory").refrac_remaining[0] = 1.0
        assert not silence_is_provable(network)

    def test_membrane_near_threshold_vetoes_the_jump(self):
        network = build_network()
        group = network.group("excitatory")
        group.v[:] = group.v_thresh - 1e-9
        assert not silence_is_provable(network)

    def test_advance_matches_stepping_on_silent_input(self):
        stepped, jumped = paired_networks()
        silent_row = np.zeros(N_INPUT, dtype=bool)
        # Charge both networks identically, then step out the unprovable
        # post-burst span in lockstep before comparing an analytic jump.
        burst = bursty_train(timesteps=6, bursts=1, burst_steps=3, p=0.9)
        for network in (stepped, jumped):
            for t, row in enumerate(burst):
                network.compile().step(row, t, learning=False)
        t = len(burst)
        while not silence_is_provable(jumped):
            for network in (stepped, jumped):
                network.compile().step(silent_row, t, learning=False)
            t += 1
            assert t < 200, "silence never became provable"
        for offset in range(30):
            stepped.compile().step(silent_row, t + offset, learning=False)
        advance_analytic(jumped, 30)
        exc_s, exc_j = stepped.group("excitatory"), jumped.group("excitatory")
        np.testing.assert_allclose(exc_j.v, exc_s.v, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(exc_j.theta, exc_s.theta,
                                   rtol=1e-6, atol=1e-9)
        conn_s, conn_j = stepped.connections[0], jumped.connections[0]
        np.testing.assert_allclose(conn_j.conductance, conn_s.conductance,
                                   rtol=1e-6, atol=1e-9)


class TestRunEventsEquivalence:
    def test_counts_match_the_stepped_reference_exactly(self):
        stepped, events = paired_networks()
        train = bursty_train()
        reference = stepped.run_sample(train, learning=False)
        result = events.run_events(train, learning=False)
        np.testing.assert_array_equal(result.counts("excitatory"),
                                      reference.counts("excitatory"))
        assert events.counter.steps_skipped > len(train) // 2
        assert events.counter.events_processed == int(train.sum())

    def test_event_stream_and_dense_inputs_agree(self):
        first, second = paired_networks()
        train = bursty_train()
        a = first.run_events(EventStream.from_dense(train), learning=False)
        b = second.run_events(train, learning=False)
        np.testing.assert_array_equal(a.counts("excitatory"),
                                      b.counts("excitatory"))

    def test_include_rest_matches_the_stepped_reference(self):
        stepped, events = paired_networks()
        train = bursty_train()
        reference = stepped.run_sample(train, learning=False,
                                       include_rest=True)
        result = events.run_events(train, learning=False, include_rest=True)
        assert result.steps == reference.steps
        np.testing.assert_array_equal(result.counts("excitatory"),
                                      reference.counts("excitatory"))

    def test_batched_inputs_return_one_result_per_sample(self):
        network = build_network()
        trains = np.stack([bursty_train(seed=s) for s in (1, 2)])
        results = network.run_events(trains, learning=False)
        assert len(results) == 2
        streams = [EventStream.from_dense(t) for t in trains]
        listed = network.run_events(streams, learning=False)
        assert len(listed) == 2

    def test_run_events_rejects_active_batch_mode(self):
        network = build_network()
        network._begin_batch(2)
        try:
            with pytest.raises(RuntimeError, match="single-sample"):
                network.run_events(EventStream.empty(10, N_INPUT))
        finally:
            network._end_batch()

    def test_unsupporting_backend_defaults_to_stepping(self):
        class SteppingOnly(SparseEventBackend):
            supports_events = False

        network = build_network(backend=SteppingOnly())
        train = bursty_train()
        network.run_events(train, learning=False)
        assert network.counter.steps_skipped == 0
        # ... but the caller can force jumps explicitly.
        network.run_events(train, learning=False, allow_jumps=True)
        assert network.counter.steps_skipped > 0


class TestRunEventsLearning:
    def test_pairwise_stdp_learns_identically_through_jumps(self):
        stepped, events = paired_networks(rule_factory=PairwiseSTDP)
        train = bursty_train()
        stepped.run_sample(train, learning=True)
        events.run_events(train, learning=True)
        assert events.counter.steps_skipped > 0
        np.testing.assert_array_equal(events.connections[0].weights,
                                      stepped.connections[0].weights)

    @pytest.mark.parametrize("rule_factory", [ASPLearningRule,
                                              SpikeDynLearningRule])
    def test_per_step_rules_force_stepping_and_stay_exact(self, rule_factory):
        stepped, events = paired_networks(rule_factory=rule_factory)
        train = bursty_train()
        stepped.run_sample(train, learning=True)
        events.run_events(train, learning=True)
        assert events.counter.steps_skipped == 0
        np.testing.assert_array_equal(events.connections[0].weights,
                                      stepped.connections[0].weights)

    def test_silence_support_declarations(self):
        assert PairwiseSTDP.supports_analytic_silence is True
        assert ASPLearningRule.supports_analytic_silence is False
        assert SpikeDynLearningRule.supports_analytic_silence is False


class TestZeroSpikeInputs:
    def test_empty_stream_is_one_jump(self):
        network = build_network()
        result = network.run_events(EventStream.empty(500, N_INPUT))
        assert result.counts("excitatory").sum() == 0
        assert network.counter.steps_skipped == 500
        assert network.counter.events_processed == 0

    def test_empty_stream_matches_stepped_silence(self):
        stepped, events = paired_networks()
        silent = np.zeros((200, N_INPUT), dtype=bool)
        reference = stepped.run_sample(silent, learning=False)
        result = events.run_events(EventStream.empty(200, N_INPUT))
        np.testing.assert_array_equal(result.counts("excitatory"),
                                      reference.counts("excitatory"))


class TestGeometricDrive:
    """The closed-form drive of a silent gap equals the sum it replaces,
    including where the two decays coincide and the quotient degenerates."""

    @pytest.mark.parametrize("mu,lam", [(0.9, 0.8), (0.5, 0.95), (0.8, 0.8),
                                        (0.7, 0.7 + 1e-13)])
    @pytest.mark.parametrize("delta", [1, 17])
    def test_matches_the_explicit_sum(self, mu, lam, delta):
        explicit = sum(lam ** (delta - m) * mu ** m for m in range(1, delta + 1))
        assert _geometric_drive(mu, lam, delta) == pytest.approx(explicit, rel=1e-9)
