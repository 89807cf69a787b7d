"""Network-architecture builders (paper Section III-B).

Two architectures are provided:

* :func:`build_baseline_network` — the classic Diehl & Cook topology used by
  both the baseline and the ASP comparator: a learned input→excitatory
  projection, a one-to-one excitatory→inhibitory projection, and a dense
  inhibitory→excitatory projection implementing winner-take-all competition.
* :func:`build_spikedyn_network` — SpikeDyn's optimized architecture in which
  the inhibitory layer is removed and replaced by *direct lateral inhibition*
  among the excitatory neurons, eliminating the inhibitory neurons' state,
  parameters, and per-timestep operations.

Group and connection names are fixed (``input``, ``excitatory``,
``inhibitory``; ``input_to_exc``, ``exc_to_inh``, ``inh_to_exc``,
``lateral_inhibition``) so that models, monitors, and the estimation code can
find them by name.
"""

from __future__ import annotations

from typing import Optional

from repro.core.adaptive_threshold import AdaptiveThresholdPolicy
from repro.core.config import SpikeDynConfig
from repro.snn.network import Network
from repro.snn.neurons import AdaptiveLIFGroup, InputGroup, LIFGroup
from repro.snn.synapses import Connection, UniformLateralInhibition
from repro.snn.topology import (
    all_to_all_except_self_weights,
    dense_random_weights,
    one_to_one_weights,
)
from repro.utils.rng import SeedLike, ensure_rng

#: Diehl & Cook constants for the inhibitory layer of the baseline topology.
INHIBITORY_NEURON_DEFAULTS = {
    "v_rest": -60.0,
    "v_reset": -45.0,
    "v_thresh": -40.0,
    "tau_m": 10.0,
    "refractory": 2.0,
}

#: Per-spike threshold increment and decay constant used by the baseline's
#: excitatory neurons (the SpikeDyn architecture replaces these with the
#: adaptive threshold policy of Section III-D).
BASELINE_THETA_PLUS = 0.05
BASELINE_TAU_THETA = 1.0e7

#: Strength of the fixed excitatory->inhibitory one-to-one projection.
EXC_TO_INH_STRENGTH = 22.5


def _make_input_and_excitatory(config: SpikeDynConfig) -> tuple:
    """Input group plus excitatory group shared by both architectures."""
    input_group = InputGroup(config.n_input, name="input")
    excitatory = AdaptiveLIFGroup(
        config.n_exc,
        v_rest=config.v_rest,
        v_reset=config.v_reset,
        v_thresh=config.v_thresh,
        tau_m=config.tau_m,
        refractory=config.refractory,
        theta_plus=BASELINE_THETA_PLUS,
        tau_theta=BASELINE_TAU_THETA,
        name="excitatory",
    )
    return input_group, excitatory


def _make_input_projection(config: SpikeDynConfig, input_group: InputGroup,
                           excitatory: AdaptiveLIFGroup, learning_rule,
                           rng: SeedLike) -> Connection:
    """The learned input→excitatory projection shared by both architectures."""
    weights = dense_random_weights(
        config.n_input, config.n_exc, low=0.0, high=0.3, rng=rng
    )
    return Connection(
        input_group,
        excitatory,
        weights,
        sign=1,
        tau_syn=5.0,
        w_min=config.w_min,
        w_max=config.w_max,
        learning_rule=learning_rule,
        norm=config.effective_norm_total,
        name="input_to_exc",
    )


def build_baseline_network(
    config: SpikeDynConfig,
    *,
    learning_rule,
    rng: SeedLike = None,
    exc_to_inh_strength: float = EXC_TO_INH_STRENGTH,
    inh_to_exc_strength: Optional[float] = None,
    name: str = "baseline",
    backend=None,
) -> Network:
    """Build the excitatory + inhibitory architecture of Fig. 1(a).

    Parameters
    ----------
    config:
        Shared sizes, neuron constants, and timing parameters.
    learning_rule:
        Learning rule attached to the input→excitatory projection (pairwise
        STDP for the baseline, ASP for the state-of-the-art comparator).
    rng:
        Seed or generator for the weight initialization.
    exc_to_inh_strength:
        Weight of the one-to-one excitatory→inhibitory projection.
    inh_to_exc_strength:
        Weight of the dense inhibitory→excitatory projection; defaults to the
        configuration's ``inhibition_strength``.
    name:
        Network identifier.
    backend:
        Compute backend (name or instance) for the network's kernels;
        defaults to the one shared kernel set.
    """
    rng = ensure_rng(rng if rng is not None else config.seed)
    inh_strength = (
        config.inhibition_strength if inh_to_exc_strength is None else inh_to_exc_strength
    )

    network = Network(config.simulation_parameters(), name=name,
                      backend=backend)
    input_group, excitatory = _make_input_and_excitatory(config)
    inhibitory = LIFGroup(config.n_exc, name="inhibitory", **INHIBITORY_NEURON_DEFAULTS)

    network.add_group(input_group)
    network.add_group(excitatory)
    network.add_group(inhibitory)

    network.add_connection(
        _make_input_projection(config, input_group, excitatory, learning_rule, rng)
    )
    network.add_connection(
        Connection(
            excitatory,
            inhibitory,
            one_to_one_weights(config.n_exc, exc_to_inh_strength),
            sign=1,
            tau_syn=1.0,
            w_max=max(exc_to_inh_strength, 1.0) * 2,
            name="exc_to_inh",
        )
    )
    network.add_connection(
        Connection(
            inhibitory,
            excitatory,
            all_to_all_except_self_weights(config.n_exc, inh_strength),
            sign=-1,
            tau_syn=config.tau_inhibition,
            w_max=max(inh_strength, 1.0) * 2,
            name="inh_to_exc",
        )
    )
    return network


def build_spikedyn_network(
    config: SpikeDynConfig,
    *,
    learning_rule,
    rng: SeedLike = None,
    name: str = "spikedyn",
    backend=None,
) -> Network:
    """Build SpikeDyn's optimized architecture (Fig. 4a, right).

    The inhibitory layer is replaced by a :class:`UniformLateralInhibition`
    projection on the excitatory group, and the excitatory group's threshold
    adaptation is configured by the adaptive threshold policy
    (``theta = c_theta * theta_decay * t_sim``).

    Parameters
    ----------
    config:
        Sizes, neuron constants, threshold-adaptation constants, lateral
        inhibition strength, and timing parameters.
    learning_rule:
        Learning rule attached to the input→excitatory projection (normally a
        :class:`repro.core.learning.SpikeDynLearningRule`).
    rng:
        Seed or generator for the weight initialization.
    name:
        Network identifier.
    backend:
        Compute backend (name or instance) for the network's kernels;
        defaults to the one shared kernel set.
    """
    rng = ensure_rng(rng if rng is not None else config.seed)

    network = Network(config.simulation_parameters(), name=name,
                      backend=backend)
    input_group, excitatory = _make_input_and_excitatory(config)

    policy = AdaptiveThresholdPolicy(
        c_theta=config.c_theta,
        theta_decay=config.theta_decay,
        t_sim=config.t_sim,
    )
    policy.configure_group(excitatory)

    network.add_group(input_group)
    network.add_group(excitatory)

    network.add_connection(
        _make_input_projection(config, input_group, excitatory, learning_rule, rng)
    )
    network.add_connection(
        UniformLateralInhibition(
            excitatory,
            config.inhibition_strength,
            tau_syn=config.tau_inhibition,
            name="lateral_inhibition",
        )
    )
    return network
