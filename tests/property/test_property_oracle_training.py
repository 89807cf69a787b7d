"""Multi-sample training on random small networks: reference kernels vs oracle.

``tests/backends/test_paper_scale_training.py`` holds one fixed paper-scale
SpikeDyn stream to the dense GEMV oracle.  This property draws small random
networks instead — SpikeDyn (lateral inhibition, window-gated learning,
weight decay) and pairwise STDP behind an excitatory -> inhibitory ->
excitatory loop — and trains each for several samples on ``sparse`` and on
:class:`~gemv_oracle.GemvOracle` from the same seed.  Between training
samples both run batched inference (``run_batch``) and an event stream with
silent-gap jumps (``run_events``), so the learned state, the traces and the
conductances must survive every run entry point.  After every run the spike
counts, the weights, ``theta`` and every ``OperationCounter`` field must be
identical bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from gemv_oracle import GemvOracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.learning import SpikeDynLearningRule
from repro.core.weight_decay import SynapticWeightDecay
from repro.learning.stdp import PairwiseSTDP
from repro.snn.network import Network
from repro.snn.neurons import AdaptiveLIFGroup, InputGroup, LIFGroup
from repro.snn.simulation import SimulationParameters
from repro.snn.synapses import Connection, UniformLateralInhibition

seeds = st.integers(min_value=0, max_value=2**32 - 1)
SAMPLES = 4


def random_network(seed: int, kind: str, backend) -> Network:
    """A small random network drawn from ``seed`` (the backend does not
    touch the draw, so both kernel sets get the same network)."""
    rng = np.random.default_rng(seed)
    steps = int(rng.integers(20, 60))
    network = Network(SimulationParameters(dt=1.0, t_sim=float(steps),
                                           t_rest=float(rng.integers(0, 20))),
                      backend=backend)
    n_input, n_exc = int(rng.integers(4, 24)), int(rng.integers(2, 9))
    inputs = network.add_group(InputGroup(n_input, name="input"))
    excitatory = network.add_group(AdaptiveLIFGroup(
        n_exc, tau_m=float(rng.uniform(10.0, 100.0)),
        refractory=float(rng.choice([0.0, 2.0, 5.0])),
        theta_plus=float(rng.uniform(0.0, 0.5)),
        tau_theta=float(rng.uniform(1.0e2, 1.0e4)), name="excitatory"))
    trace_mode = str(rng.choice(["set", "add"]))
    if kind == "spikedyn":
        rule = SpikeDynLearningRule(
            nu_pre=float(rng.uniform(1e-4, 0.2)),
            nu_post=float(rng.uniform(1e-3, 0.5)),
            spike_threshold=float(rng.uniform(1.0, 6.0)),
            update_interval=float(rng.choice([1.0, 3.0, 5.0, 10.0])),
            weight_decay=SynapticWeightDecay(float(rng.uniform(0.0, 2.0)),
                                             tau_decay=100.0),
            soft_bounds=bool(rng.random() < 0.8), trace_mode=trace_mode)
    else:
        rule = PairwiseSTDP(nu_pre=float(rng.uniform(1e-4, 0.1)),
                            nu_post=float(rng.uniform(1e-3, 0.3)),
                            soft_bounds=bool(rng.random() < 0.8),
                            trace_mode=trace_mode)
    weight = float(rng.uniform(2.0, 10.0))
    norm = float(rng.uniform(0.5, 2.0)) * weight * n_input / 4 \
        if rng.random() < 0.5 else None
    network.add_connection(Connection(
        inputs, excitatory, rng.uniform(0.0, weight, (n_input, n_exc)),
        w_max=2.0 * weight, tau_syn=float(rng.uniform(1.0, 10.0)),
        learning_rule=rule, norm=norm, name="input_to_exc"))
    if kind == "spikedyn":
        network.add_connection(UniformLateralInhibition(
            excitatory, float(rng.uniform(0.5, 5.0)),
            tau_syn=float(rng.uniform(1.0, 5.0))))
    else:
        inhibitory = network.add_group(LIFGroup(
            n_exc, refractory=float(rng.choice([0.0, 2.0])), name="inhibitory"))
        network.add_connection(Connection(
            excitatory, inhibitory, rng.uniform(5.0, 20.0, (n_exc, n_exc)),
            w_max=20.0, tau_syn=1.0, name="exc_to_inh"))
        network.add_connection(Connection(
            inhibitory, excitatory, rng.uniform(0.0, 5.0, (n_exc, n_exc)),
            w_max=5.0, sign=-1, tau_syn=float(rng.uniform(1.0, 5.0)),
            name="inh_to_exc"))
    return network


def _state(network: Network, results) -> dict:
    """Everything that must match: counts, weights, theta, counters."""
    if not isinstance(results, list):
        results = [results]
    return {
        "counts": [{name: counts.copy() for name, counts in result.spike_counts.items()}
                   for result in results],
        "weights": [connection.weights.copy() for connection in network.connections
                    if isinstance(connection, Connection)],
        "theta": network.group("excitatory").theta.copy(),
        "counter": network.counter.as_dict(),
    }


def _session(seed: int, kind: str, backend) -> list:
    """Train ``SAMPLES`` samples, with inference between them; the state
    after every run, in order."""
    network = random_network(seed, kind, backend)
    rng = np.random.default_rng(seed + 1)
    steps = network.params.steps_per_sample
    n_input = network.input_group.n
    states = []
    for _ in range(SAMPLES):
        train = rng.random((steps, n_input)) < rng.uniform(0.05, 0.5)
        states.append(_state(network, network.run_sample(
            train, learning=True, include_rest=bool(rng.random() < 0.5))))
        batch = rng.random((3, steps, n_input)) < rng.uniform(0.05, 0.5)
        states.append(_state(network, network.run_batch(batch, learning=False)))
        bursts = np.zeros((steps, n_input), dtype=bool)
        start = int(rng.integers(0, steps - 3))
        bursts[start:start + 3] = rng.random((3, n_input)) < 0.6
        states.append(_state(network, network.run_events(
            bursts, learning=False, include_rest=True, allow_jumps=True)))
    return states


def _assert_sessions_equal(seed: int, kind: str) -> list:
    reference = _session(seed, kind, "sparse")
    oracle = _session(seed, kind, GemvOracle())
    for index, (got, expected) in enumerate(zip(reference, oracle)):
        where = f"{kind} seed {seed}, run {index}"
        assert len(got["counts"]) == len(expected["counts"]), where
        for counts, expected_counts in zip(got["counts"], expected["counts"]):
            assert counts.keys() == expected_counts.keys(), where
            for name in counts:
                np.testing.assert_array_equal(counts[name], expected_counts[name],
                                              err_msg=f"{where}: {name} counts")
        for weights, expected_weights in zip(got["weights"], expected["weights"]):
            np.testing.assert_array_equal(weights, expected_weights,
                                          err_msg=f"{where}: weights")
        np.testing.assert_array_equal(got["theta"], expected["theta"],
                                      err_msg=f"{where}: theta")
        assert got["counter"] == expected["counter"], where
    return reference


@settings(max_examples=25, deadline=None)
@given(seed=seeds, kind=st.sampled_from(["spikedyn", "pairwise"]))
def test_training_matches_the_oracle_bit_for_bit(seed, kind):
    _assert_sessions_equal(seed, kind)


@pytest.mark.parametrize("kind", ["spikedyn", "pairwise"])
def test_the_sessions_learn_spike_and_jump(kind):
    """The property is not vacuous: the random sessions spike, change their
    weights and jump silent gaps."""
    spiked = learned = jumped = 0
    for seed in range(8):
        states = _assert_sessions_equal(seed, kind)
        network = random_network(seed, kind, "sparse")
        initial = network.connection("input_to_exc").weights
        spiked += any(counts["excitatory"].sum() > 0
                      for state in states for counts in state["counts"])
        learned += not np.array_equal(states[-1]["weights"][0], initial)
        jumped += states[-1]["counter"]["steps_skipped"] > 0
    assert spiked == learned == 8 and jumped >= 6
