"""Tests for the compiled step plan and the seams that must keep it live.

Perfbench's traced mode and ``bench_batched_engine.py`` change networks
that have already run: they install a wrapping backend, attach monitors or
flip ``adapt_theta``.  Each change must reach the very next run.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.backends import SparseEventBackend
from repro.core.architecture import build_spikedyn_network
from repro.core.config import SpikeDynConfig
from repro.core.learning import SpikeDynLearningRule
from repro.snn.monitors import SpikeMonitor
from repro.snn.simulation import OperationCounter
from repro.snn.synapses import Connection

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
    def test_plan_is_cached_per_batch_shape(self):
        network = build()
        single = network.compile()
        assert network.compile() is single
        network.run_batch(trains(3), learning=False)
        assert network.compile() is single
        network._begin_batch(3)
        try:
            batched = network.compile()
            assert batched is not single
            assert batched.stages[0].current.shape == (3, N_EXC)
        finally:
            network._end_batch()

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
        assert [array.shape for array in arrays] == [(N_EXC,), (N_INPUT,)]
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

    def test_monitor_attached_after_a_run_sees_every_step(self):
        network = build()
        first, second = trains()
        network.run_sample(first, learning=False)
        monitor = network.add_spike_monitor(
            SpikeMonitor(network.group("excitatory"), record_raster=True))
        result = network.run_sample(second, learning=False)
        assert monitor.raster.shape == (STEPS, N_EXC)
        np.testing.assert_array_equal(monitor.raster.sum(axis=0),
                                      result.counts("excitatory"))

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
