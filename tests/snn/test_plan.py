"""Tests for the compiled step plan and the seams that must keep it live.

Perfbench's traced mode and ``bench_batched_engine.py`` change networks
that have already run: they install a wrapping backend or flip
``adapt_theta``.  Each change must reach the very next run.

The plan's spike counts are the one record of a run (there are no
monitors), so the step order and the life of that record are pinned here.
"""

from __future__ import annotations

import importlib.util
from collections import Counter

import numpy as np
import pytest

import repro.snn
from repro.backends import SparseEventBackend
from repro.core.architecture import build_spikedyn_network
from repro.core.config import SpikeDynConfig
from repro.core.learning import SpikeDynLearningRule
from repro.snn.network import Network
from repro.snn.neurons import AdaptiveLIFGroup, InputGroup, LIFGroup, NeuronGroup
from repro.snn.simulation import OperationCounter, SimulationParameters
from repro.snn.synapses import Connection, UniformLateralInhibition
from repro.snn.traces import SpikeTrace

KERNELS = ("lif_step", "theta_step", "decay_state", "propagate_spikes",
           "propagate_lateral", "bump_trace", "stdp_potentiation",
           "stdp_depression")
N_INPUT = 49
N_EXC = 10
STEPS = 30


class RecordingBackend(SparseEventBackend):
    """The reference kernels, counting every call made through this instance."""

    def __init__(self) -> None:
        self.calls = Counter()


def _recorded(kernel: str):
    def method(self, *args, **kwargs):
        self.calls[kernel] += 1
        return getattr(SparseEventBackend, kernel)(self, *args, **kwargs)

    return method


for _kernel in KERNELS:
    setattr(RecordingBackend, _kernel, _recorded(_kernel))


def build(theta_plus=None):
    config = SpikeDynConfig.scaled_down(n_input=N_INPUT, n_exc=N_EXC,
                                        t_sim=float(STEPS), seed=5)
    network = build_spikedyn_network(config, learning_rule=SpikeDynLearningRule(),
                                     rng=5)
    if theta_plus is not None:
        network.group("excitatory").theta_plus = theta_plus
    return network


def trains(count=2, seed=9):
    return np.random.default_rng(seed).random((count, STEPS, N_INPUT)) < 0.2


class TestCompile:
    def test_plan_is_cached_per_batch_size(self):
        network = build()
        single = network.compile()
        assert network.compile(1) is single
        network.run_batch(trains(3), learning=False)
        assert network.compile() is single
        batched = network.compile(3)
        assert batched is not single
        assert network.compile(3) is batched
        assert batched.stages[0].current.shape == (3, N_EXC)

    def test_plan_holds_the_topology(self):
        network = build()
        plan = network.compile()
        (stage,) = plan.stages
        assert stage.group is network.group("excitatory")
        assert [connection for connection, _, _ in stage.inputs] == network.connections
        assert [gain for _, gain, _ in stage.inputs] == [1.0, -1.0]
        assert [connection for connection, _ in plan.transmissions] == network.connections

    def test_plan_allocates_only_buffers(self):
        network = build()
        plan = network.compile()
        arrays = [stage.current for stage in plan.stages] + [plan.silent_input]
        assert [array.shape for array in arrays] == [(1, N_EXC), (1, N_INPUT)]
        weights = network.connection("input_to_exc").weights
        assert not any(np.shares_memory(array, weights) for array in arrays)

    def test_adding_a_connection_recompiles(self):
        network = build()
        before = network.compile()
        exc = network.group("excitatory")
        network.add_connection(Connection(exc, exc, np.zeros((N_EXC, N_EXC)),
                                          name="recurrent"))
        after = network.compile()
        assert after is not before
        assert len(after.stages[0].inputs) == 3


class TestSeamsStayLive:
    def test_installed_backend_runs_every_kernel(self):
        network, reference = build(), build()
        first, second = trains()
        for net in (network, reference):
            net.run_sample(first)
        recorder = RecordingBackend()
        network.set_backend(recorder)
        result = network.run_sample(second)
        # Per step: one call decays both connections' conductances and one
        # both traces; both connections propagate, the group integrates and
        # adapts theta, and both traces bump.
        assert recorder.calls == Counter(
            propagate_spikes=STEPS, propagate_lateral=STEPS, lif_step=STEPS,
            theta_step=STEPS, decay_state=2 * STEPS, bump_trace=2 * STEPS,
        )
        expected = reference.run_sample(second)
        np.testing.assert_array_equal(result.counts("excitatory"),
                                      expected.counts("excitatory"))
        np.testing.assert_array_equal(network.connection("input_to_exc").weights,
                                      reference.connection("input_to_exc").weights)

        replacement = RecordingBackend()
        network.set_backend(replacement)
        network.run_batch(trains(3), learning=False)
        assert recorder.calls["lif_step"] == STEPS
        assert replacement.calls["lif_step"] == STEPS
        assert replacement.calls["propagate_spikes"] == STEPS

    def test_adapt_theta_flip_after_a_run_changes_the_tallies(self):
        # theta_plus = 0 keeps theta at zero, so the flag changes the work
        # charged but not the spikes, and both networks stay comparable.
        network, fresh = build(theta_plus=0.0), build(theta_plus=0.0)
        first, second = trains()
        network.run_sample(first, learning=False)
        network.group("excitatory").adapt_theta = False
        fresh.group("excitatory").adapt_theta = False
        fresh.run_sample(first, learning=False)

        before, fresh_before = network.counter.copy(), fresh.counter.copy()
        network.run_sample(second, learning=False)
        fresh.run_sample(second, learning=False)
        delta = network.counter - before
        assert delta == fresh.counter - fresh_before
        assert delta.neuron_updates == STEPS * N_EXC

    def test_tallies_match_per_step_accounting(self):
        network = build()
        train = trains(1)[0]
        result = network.run_sample(train, learning=False)
        spikes = int(result.counts("excitatory").sum())
        assert network.counter == OperationCounter(
            neuron_updates=2 * STEPS * N_EXC,
            synaptic_events=STEPS * (N_INPUT * N_EXC + N_EXC),
            exponential_ops=STEPS * (2 * N_EXC + 2 * N_EXC),
            spike_events=spikes,
        )


class TestOneSteppingPath:
    """The step plan (and the analytic jump) is the only code that advances
    a network: no monitors, no per-component stepping methods."""

    def test_no_monitors(self):
        assert importlib.util.find_spec("repro.snn.monitors") is None
        for name in ("SpikeMonitor", "StateMonitor"):
            assert not hasattr(repro.snn, name)
            assert name not in repro.snn.__all__
        network = build()
        for attribute in ("add_spike_monitor", "add_state_monitor",
                          "spike_monitors", "state_monitors"):
            assert not hasattr(network, attribute)
            assert not hasattr(Network, attribute)

    @pytest.mark.parametrize("component, attributes", [
        (NeuronGroup, ("step",)),
        (InputGroup, ("step",)),
        (LIFGroup, ("step",)),
        (AdaptiveLIFGroup, ("step",)),
        (Connection, ("propagate",)),
        (UniformLateralInhibition, ("propagate",)),
        (SpikeTrace, ("step", "decay", "begin_batch", "end_batch",
                      "batch_size", "state_shape")),
    ])
    def test_components_do_not_step_themselves(self, component, attributes):
        for attribute in attributes:
            assert not hasattr(component, attribute), attribute


class TestOneStateShape:
    """``begin`` gives a run ``(B, n)`` copies of every state array (views
    for a sequential run); ``end`` puts the ``(n,)`` arrays back, writing
    row 0 into them only for a sequential run."""

    @pytest.mark.parametrize("carry", [True, False])
    def test_end_puts_the_rest_arrays_back(self, carry):
        network = build()
        excitatory = network.group("excitatory")
        rest = {name: getattr(excitatory, name) for name in excitatory.state_names}
        theta = excitatory.theta.copy()
        plan = network.compile()
        plan.begin(carry)
        for name in excitatory.state_names:
            assert getattr(excitatory, name).shape == (1, N_EXC)
        for t_index, row in enumerate(np.swapaxes(trains(1), 0, 1)):
            plan.step(row, t_index, learning=False)
        run_theta = excitatory.theta[0].copy()
        assert not np.array_equal(run_theta, theta)
        plan.end()
        for name, array in rest.items():
            assert getattr(excitatory, name) is array
        np.testing.assert_array_equal(excitatory.theta,
                                      run_theta if carry else theta)


def chain(weight=20.0, params=None):
    """input -> first -> second, two neurons each, one-to-one weights
    strong enough that one presynaptic spike fires the target."""
    network = Network(params or SimulationParameters(dt=1.0, t_sim=10.0, t_rest=5.0))
    source = network.add_group(InputGroup(2, name="input"))
    first = network.add_group(LIFGroup(2, refractory=0.0, name="first"))
    second = network.add_group(LIFGroup(2, refractory=0.0, name="second"))
    network.add_connection(Connection(source, first, weight * np.eye(2),
                                      w_max=2 * weight, name="input_to_first"))
    network.add_connection(Connection(first, second, weight * np.eye(2),
                                      w_max=2 * weight, name="first_to_second"))
    return network


def first_spike_steps(network, train):
    """Step ``network`` through ``train`` with its plan; return the first
    step at which each non-input group fired (``None`` if it never did)."""
    plan = network.compile()
    plan.begin()
    first = {stage.group.name: None for stage in plan.stages}
    for t_index, row in enumerate(train):
        plan.step(row[None], t_index, learning=False)
        for stage in plan.stages:
            if first[stage.group.name] is None and stage.group.spikes.any():
                first[stage.group.name] = t_index
    plan.end()
    return first


class TestStepOrder:
    """The per-step order documented in :mod:`repro.snn.plan`."""

    def test_input_spikes_reach_their_target_on_the_same_step(self):
        train = np.zeros((4, 2), dtype=bool)
        train[0, 0] = True
        first = first_spike_steps(chain(), train)
        assert first["first"] == 0

    def test_spikes_of_a_group_arrive_one_step_later(self):
        train = np.zeros((4, 2), dtype=bool)
        train[0, 0] = True
        first = first_spike_steps(chain(), train)
        assert first["second"] == first["first"] + 1

    def test_conductances_decay_before_this_steps_spikes_are_injected(self):
        network = chain()
        plan = network.compile()
        plan.begin()
        connection = network.connection("input_to_first")
        row = np.array([[True, False]])
        plan.step(row, 0, learning=False)
        np.testing.assert_array_equal(connection.conductance, [[20.0, 0.0]])
        plan.step(row, 1, learning=False)
        decay = connection.decay_factor(network.params.dt)
        np.testing.assert_array_equal(connection.conductance,
                                      [[20.0 * decay + 20.0, 0.0]])

    def test_learning_off_never_steps_a_rule(self):
        network = build()
        rule = network.connection("input_to_exc").learning_rule
        weights = network.connection("input_to_exc").weights.copy()
        plan = network.compile()
        plan.begin()
        rule.on_sample_start(network.connection("input_to_exc"),
                             {name: counts[0] for name, counts in plan.counts.items()})
        for t_index, row in enumerate(np.swapaxes(trains(1), 0, 1)):
            plan.step(row, t_index, learning=False)
        np.testing.assert_array_equal(rule._traces, 0.0)
        np.testing.assert_array_equal(network.connection("input_to_exc").weights,
                                      weights)

    def test_a_network_without_connections_still_counts_its_input(self):
        network = Network(SimulationParameters(dt=1.0, t_sim=10.0, t_rest=0.0))
        network.add_group(InputGroup(3, name="input"))
        plan = network.compile()
        assert plan.conductances is None and plan.stages == []
        train = np.random.default_rng(3).random((10, 3)) < 0.5
        result = network.run_sample(train, learning=False)
        np.testing.assert_array_equal(result.counts("input"), train.sum(axis=0))
        assert network.counter.total_ops() == 0


class TestRunRecord:
    """The plan's spike counts are the one record of a run: whatever a
    caller observes of the spikes is read from them."""

    def test_begin_starts_fresh_counts_for_every_group(self):
        network = chain()
        previous = network.run_sample(np.ones((5, 2), dtype=bool), learning=False)
        plan = network.compile()
        plan.begin()
        assert set(plan.counts) == set(network.groups)
        for name, counts in plan.counts.items():
            assert counts.dtype == np.int64
            assert counts.shape == (1, network.group(name).n)
            assert not counts.any()
            assert not np.shares_memory(counts, previous.counts(name))
        assert plan.steps_taken == 0
        assert previous.counts("input").sum() == 10

    def test_counts_are_the_sum_of_every_steps_spikes(self):
        network = build()
        plan = network.compile()
        plan.begin()
        train = trains(1)
        raster = {name: [] for name in network.groups}
        for t_index, row in enumerate(np.swapaxes(train, 0, 1)):
            plan.step(row, t_index, learning=False)
            for name, group in network.groups.items():
                raster[name].append(group.spikes.copy())
        assert plan.steps_taken == STEPS
        for name, rows in raster.items():
            np.testing.assert_array_equal(plan.counts[name],
                                          np.sum(rows, axis=0))
        np.testing.assert_array_equal(plan.counts["input"], train.sum(axis=1))
        assert plan.counts["excitatory"].sum() > 0

    def test_counts_take_the_batch_shape(self):
        network = build()
        plan = network.compile(3)
        plan.begin()
        for t_index, row in enumerate(np.swapaxes(trains(3), 0, 1)):
            plan.step(row, t_index, learning=False)
        assert plan.counts["input"].shape == (3, N_INPUT)
        assert plan.counts["excitatory"].shape == (3, N_EXC)
        np.testing.assert_array_equal(plan.counts["input"],
                                      trains(3).sum(axis=1))
        plan.end()

    def test_end_presentation_freezes_the_presented_counts(self):
        network = chain()
        plan = network.compile()
        plan.begin()
        for t_index in range(3):
            plan.step(np.ones((1, 2), dtype=bool), t_index, learning=False)
        presented = plan.end_presentation()
        frozen = {name: counts.copy() for name, counts in presented.items()}
        for name, counts in plan.counts.items():
            np.testing.assert_array_equal(counts, frozen[name])
            assert not np.shares_memory(counts, presented[name])
        for t_index in range(3, 6):
            plan.step(plan.silent_input, t_index, learning=False)
        for name, counts in presented.items():
            np.testing.assert_array_equal(counts, frozen[name])
        # The conductance tail keeps "first" firing into the silence.
        assert plan.counts["first"].sum() > frozen["first"].sum()

    def test_flush_charges_the_rest_spikes_the_result_leaves_out(self):
        network = chain()
        result = network.run_sample(np.ones((3, 2), dtype=bool),
                                    learning=False, include_rest=True)
        presented = int(result.counts("first").sum() + result.counts("second").sum())
        assert network.counter.spike_events > presented

    def test_flush_charges_every_step_once_and_starts_over(self):
        network = chain()
        plan = network.compile()
        plan.begin()
        for t_index in range(4):
            plan.step(np.ones((1, 2), dtype=bool), t_index, learning=False)
        counter = OperationCounter()
        plan.flush(counter)
        assert plan.steps_taken == 0
        # Two LIF groups and two connections of two neurons each.
        assert counter.neuron_updates == 4 * 2 * 2
        assert counter.synaptic_events == 4 * 2 * 2
        assert counter.exponential_ops == 4 * (2 * 2 + 2 * 2)
        # Input spikes are delivered, not emitted by a simulated neuron.
        assert counter.spike_events == int(plan.counts["first"].sum()
                                           + plan.counts["second"].sum())
