"""Batched-vs-sequential equivalence of the simulation engine.

Every run advances ``(B, n)`` state, and ``run_sample`` is a batch of one.
``Network.run_batch`` must reproduce ``B`` sequential ``run_sample`` calls
bit-for-bit: spike counts, learned weights (with plasticity enabled),
membrane/conductance trajectories, and ``OperationCounter`` totals.  The
tests build twin networks from identical seeds, drive one sequentially and
one batched, and compare exactly (no tolerances).  Between runs every group
and connection holds its ``(n,)`` rest state.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.architecture import build_baseline_network, build_spikedyn_network
from repro.core.config import SpikeDynConfig
from repro.core.learning import SpikeDynLearningRule
from repro.learning.stdp import PairwiseSTDP
from repro.snn.neurons import AdaptiveLIFGroup, InputGroup
from repro.snn.network import Network
from repro.snn.simulation import SimulationParameters
from repro.snn.synapses import Connection


def _spikedyn_net(n_exc: int = 24, seed: int = 0, t_sim: float = 40.0) -> "Network":
    config = SpikeDynConfig.scaled_down(n_input=196, n_exc=n_exc,
                                        t_sim=t_sim, seed=seed)
    return build_spikedyn_network(config, learning_rule=SpikeDynLearningRule(),
                                  rng=seed)


def _baseline_net(n_exc: int = 16, seed: int = 0, t_sim: float = 40.0) -> "Network":
    config = SpikeDynConfig.scaled_down(n_input=196, n_exc=n_exc,
                                        t_sim=t_sim, seed=seed)
    return build_baseline_network(config, learning_rule=PairwiseSTDP(), rng=seed)


def _random_trains(batch_size: int, timesteps: int, n_input: int = 196,
                   seed: int = 7, density: float = 0.05) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((batch_size, timesteps, n_input)) < density


def _assert_rest_shapes(network) -> None:
    """Every group's and connection's state has its ``(n,)`` rest shape."""
    for group in network.groups.values():
        for state in ("spikes", "v", "refrac_remaining", "theta"):
            if hasattr(group, state):
                assert getattr(group, state).shape == (group.n,), (group.name, state)
    for connection in network.connections:
        assert connection.conductance.shape == (connection.post.n,), connection.name


def _freeze_adaptation(network) -> None:
    """Make sequential samples independent (no cross-sample theta drift)."""
    for group in network.groups.values():
        if isinstance(group, AdaptiveLIFGroup):
            group.adapt_theta = False


class TestBatchedInferenceEquivalence:
    @pytest.mark.parametrize("make_net", [_spikedyn_net, _baseline_net])
    def test_spike_counts_and_counters_match_exactly(self, make_net):
        trains = _random_trains(6, 40)
        sequential_net, batched_net = make_net(), make_net()
        _freeze_adaptation(sequential_net)
        _freeze_adaptation(batched_net)

        sequential = [sequential_net.run_sample(train, learning=False)
                      for train in trains]
        batched = batched_net.run_batch(trains, learning=False)

        assert len(batched) == len(sequential)
        for seq, bat in zip(sequential, batched):
            assert bat.steps == seq.steps
            assert bat.learning is False
            for name in seq.spike_counts:
                np.testing.assert_array_equal(bat.counts(name), seq.counts(name))
        assert batched_net.counter.as_dict() == sequential_net.counter.as_dict()

    def test_acceptance_case_b8_on_100_excitatory_neurons(self):
        """The issue's acceptance scenario: B=8, 100 excitatory neurons."""
        trains = _random_trains(8, 30)
        sequential_net = _spikedyn_net(n_exc=100, t_sim=30.0)
        batched_net = _spikedyn_net(n_exc=100, t_sim=30.0)
        _freeze_adaptation(sequential_net)
        _freeze_adaptation(batched_net)

        sequential = [sequential_net.run_sample(train, learning=False)
                      for train in trains]
        batched = batched_net.run_batch(trains, learning=False)
        for seq, bat in zip(sequential, batched):
            np.testing.assert_array_equal(bat.counts("excitatory"),
                                          seq.counts("excitatory"))
        np.testing.assert_array_equal(
            sequential_net.connection("input_to_exc").weights,
            batched_net.connection("input_to_exc").weights,
        )
        assert batched_net.counter.as_dict() == sequential_net.counter.as_dict()

    def test_batch_of_one_matches_run_sample(self):
        trains = _random_trains(1, 40)
        sequential_net, batched_net = _spikedyn_net(), _spikedyn_net()
        _freeze_adaptation(sequential_net)
        _freeze_adaptation(batched_net)
        seq = sequential_net.run_sample(trains[0], learning=False)
        (bat,) = batched_net.run_batch(trains, learning=False)
        np.testing.assert_array_equal(bat.counts("excitatory"),
                                      seq.counts("excitatory"))
        assert batched_net.counter.as_dict() == sequential_net.counter.as_dict()

    def test_include_rest_matches(self):
        trains = _random_trains(4, 20)
        sequential_net, batched_net = _spikedyn_net(t_sim=20.0), _spikedyn_net(t_sim=20.0)
        _freeze_adaptation(sequential_net)
        _freeze_adaptation(batched_net)
        sequential = [sequential_net.run_sample(train, learning=False,
                                                include_rest=True)
                      for train in trains]
        batched = batched_net.run_batch(trains, learning=False,
                                        include_rest=True)
        for seq, bat in zip(sequential, batched):
            assert bat.steps == seq.steps
            np.testing.assert_array_equal(bat.counts("excitatory"),
                                          seq.counts("excitatory"))
        assert batched_net.counter.as_dict() == sequential_net.counter.as_dict()


class TestBatchedLearningEquivalence:
    @pytest.mark.parametrize("make_net", [_spikedyn_net, _baseline_net])
    def test_final_weights_match_bit_for_bit(self, make_net):
        trains = _random_trains(5, 40)
        sequential_net, batched_net = make_net(), make_net()

        sequential = [sequential_net.run_sample(train, learning=True)
                      for train in trains]
        batched = batched_net.run_batch(trains, learning=True)

        np.testing.assert_array_equal(
            sequential_net.connection("input_to_exc").weights,
            batched_net.connection("input_to_exc").weights,
        )
        for seq, bat in zip(sequential, batched):
            assert bat.learning is True
            np.testing.assert_array_equal(bat.counts("excitatory"),
                                          seq.counts("excitatory"))
        assert batched_net.counter.as_dict() == sequential_net.counter.as_dict()
        # Learning mode also preserves adaptation drift exactly.
        np.testing.assert_array_equal(
            sequential_net.group("excitatory").theta,
            batched_net.group("excitatory").theta,
        )


class TestBatchLifecycle:
    def test_adaptation_state_is_restored_after_batched_inference(self):
        network = _spikedyn_net()
        excitatory = network.group("excitatory")
        theta_before = excitatory.theta.copy()
        network.run_batch(_random_trains(4, 40), learning=False)
        assert excitatory.theta.shape == (excitatory.n,)
        np.testing.assert_array_equal(excitatory.theta, theta_before)

    def test_state_buffers_are_single_sample_after_run_batch(self):
        network = _spikedyn_net()
        network.run_batch(_random_trains(3, 40), learning=False)
        _assert_rest_shapes(network)

    def test_run_sample_works_after_run_batch(self):
        trains = _random_trains(3, 40)
        network = _spikedyn_net()
        _freeze_adaptation(network)
        reference = _spikedyn_net()
        _freeze_adaptation(reference)

        network.run_batch(trains, learning=False)
        after_batch = network.run_sample(trains[0], learning=False)
        fresh = reference.run_sample(trains[0], learning=False)
        np.testing.assert_array_equal(after_batch.counts("excitatory"),
                                      fresh.counts("excitatory"))

    @pytest.mark.parametrize("hook", ["on_sample_start", "step"])
    def test_a_run_that_raises_leaves_rest_shapes(self, hook):
        class FailingRule(SpikeDynLearningRule):
            def on_sample_start(self, connection, record):
                if hook == "on_sample_start":
                    raise RuntimeError("rule failed")
                super().on_sample_start(connection, record)

            def step(self, connection, dt, t_index, counter=None):
                if hook == "step" and t_index == 10:
                    raise RuntimeError("rule failed")
                super().step(connection, dt, t_index, counter)

        config = SpikeDynConfig.scaled_down(n_input=196, n_exc=24, t_sim=40.0, seed=0)
        network = build_spikedyn_network(config, learning_rule=FailingRule(), rng=0)
        train = _random_trains(1, 40, density=0.2)[0]
        network.run_sample(train, learning=False)
        theta = network.group("excitatory").theta.copy()
        before = network.counter.copy()
        with pytest.raises(RuntimeError, match="rule failed"):
            network.run_sample(train, learning=True)
        _assert_rest_shapes(network)
        if hook == "on_sample_start":
            # No step was taken: nothing is charged and theta stays put.
            assert network.counter == before
            np.testing.assert_array_equal(network.group("excitatory").theta, theta)
        result = network.run_sample(train, learning=False)
        assert result.counts("excitatory").shape == (24,)

    def test_learning_reads_a_batch_of_one_only(self):
        network = _spikedyn_net()
        connection = next(c for c in network.connections if c.learning_rule)
        rows = connection.learning_rule.spike_rows(connection)
        assert [row.shape for row in rows] == [(connection.pre.n,), (connection.post.n,)]
        connection.pre.spikes = np.zeros((1, connection.pre.n), dtype=bool)
        assert connection.learning_rule.spike_rows(connection)[0].shape == (connection.pre.n,)
        connection.pre.spikes = np.zeros((2, connection.pre.n), dtype=bool)
        with pytest.raises(ValueError):
            connection.learning_rule.spike_rows(connection)


class TestBatchOfOne:
    """The served path: a batch of one performs ``run_sample``'s arithmetic
    and leaves the persistent adaptation state where it was."""

    def test_counts_match_and_only_run_sample_moves_theta(self):
        network = _spikedyn_net()
        excitatory = network.group("excitatory")
        assert excitatory.adapt_theta and excitatory.theta_plus > 0.0
        train = _random_trains(1, 40, density=0.2)[0]
        theta = excitatory.theta.copy()

        before = network.counter.copy()
        (batched,) = network.run_batch(train[None], learning=False)
        batch_ops = network.counter - before
        np.testing.assert_array_equal(excitatory.theta, theta)
        _assert_rest_shapes(network)

        before = network.counter.copy()
        single = network.run_sample(train, learning=False)
        assert network.counter - before == batch_ops
        assert single.counts("excitatory").sum() > 0
        for name in single.spike_counts:
            np.testing.assert_array_equal(batched.counts(name), single.counts(name))
        assert not np.array_equal(excitatory.theta, theta)
        _assert_rest_shapes(network)


class TestRunBatchValidation:
    def test_rejects_wrong_rank(self):
        network = _spikedyn_net()
        with pytest.raises(ValueError, match="batch_size, timesteps"):
            network.run_batch(np.zeros((10, 196), dtype=bool))

    def test_rejects_wrong_input_width(self):
        network = _spikedyn_net()
        with pytest.raises(ValueError, match="input channels"):
            network.run_batch(np.zeros((2, 10, 7), dtype=bool))

    def test_rejects_an_empty_batch(self):
        network = _spikedyn_net()
        with pytest.raises(ValueError, match="at least one spike train"):
            network.run_batch(np.zeros((0, 10, 196), dtype=bool))

    @pytest.mark.parametrize("shape", [(10, 7), (1, 10, 196), (196,)])
    def test_run_sample_names_its_own_shape(self, shape):
        network = _spikedyn_net()
        with pytest.raises(ValueError, match=r"spike_train must have shape "
                           r"\(timesteps, n_input\) with 196 input channels"):
            network.run_sample(np.zeros(shape, dtype=bool))

    def test_rejects_ragged_trains(self):
        network = _spikedyn_net()
        ragged = [np.zeros((10, 196), dtype=bool), np.zeros((12, 196), dtype=bool)]
        with pytest.raises(ValueError, match="same number of timesteps"):
            network.run_batch(ragged)

    def test_accepts_a_list_of_equal_length_trains(self):
        network = _spikedyn_net()
        trains = [train for train in _random_trains(3, 20)]
        results = network.run_batch(trains, learning=False)
        assert len(results) == 3


class TestRunBatchReadsTrainsInPlace:
    """A boolean batch is read where it lies: the engine's own allocations
    over a run stay below the size of the train it is handed."""

    def test_bool_batch_is_not_copied(self):
        network = _spikedyn_net()
        trains = _random_trains(16, 300)
        network.run_batch(trains[:, :20], learning=False)  # compile the B=16 plan
        tracemalloc.start()
        try:
            results = network.run_batch(trains, learning=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == 16
        assert peak < trains.nbytes, (peak, trains.nbytes)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_validate_train_returns_a_bool_train_as_is(self, batch):
        network = _spikedyn_net()
        trains = _random_trains(batch, 30)
        assert network.input_group.validate_train(trains) is trains


class TestHandBuiltNetworkBatched:
    """Equivalence on a minimal hand-assembled network (no model builders)."""

    @staticmethod
    def _make():
        params = SimulationParameters(dt=1.0, t_sim=15.0, t_rest=5.0)
        network = Network(params, name="tiny")
        inputs = network.add_group(InputGroup(6, name="input"))
        excitatory = network.add_group(
            AdaptiveLIFGroup(4, name="excitatory", theta_plus=0.0)
        )
        rng = np.random.default_rng(11)
        network.add_connection(Connection(
            inputs, excitatory, rng.random((6, 4)), gain=40.0,
            name="input_to_exc",
        ))
        return network

    def test_counts_match(self):
        trains = _random_trains(5, 15, n_input=6, density=0.4)
        sequential_net, batched_net = self._make(), self._make()
        sequential = [sequential_net.run_sample(train, learning=False)
                      for train in trains]
        batched = batched_net.run_batch(trains, learning=False)
        for seq, bat in zip(sequential, batched):
            np.testing.assert_array_equal(bat.counts("excitatory"),
                                          seq.counts("excitatory"))
        assert batched_net.counter.as_dict() == sequential_net.counter.as_dict()
