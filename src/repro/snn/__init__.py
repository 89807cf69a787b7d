"""Clock-driven spiking-neural-network simulation substrate.

This package implements the simulation engine that every model in the
reproduction is built on: neuron groups (Poisson input, LIF, adaptive LIF),
conductance-style synaptic connections, spike traces, topology builders,
and the :class:`~repro.snn.network.Network` orchestrator.  Only the
compiled :class:`~repro.snn.plan.StepPlan` and the analytic silent-gap
jumps of :mod:`repro.snn.events` advance a network; a run's spike counts
are its record.

The engine is intentionally small and fully vectorized with numpy, with the
same semantics as the BindsNET/Brian-style pipelines used by the original
paper: exponential membrane / conductance / trace decay, adaptive threshold
potential, and per-timestep learning-rule hooks.
"""

from repro.snn.network import Network
from repro.snn.neurons import (
    AdaptiveLIFGroup,
    InputGroup,
    LIFGroup,
    NeuronGroup,
)
from repro.snn.plan import StepPlan
from repro.snn.simulation import OperationCounter, SimulationParameters
from repro.snn.synapses import Connection, UniformLateralInhibition
from repro.snn.topology import (
    all_to_all_except_self_weights,
    dense_random_weights,
    one_to_one_weights,
)
from repro.snn.traces import SpikeTrace

__all__ = [
    "AdaptiveLIFGroup",
    "Connection",
    "InputGroup",
    "LIFGroup",
    "Network",
    "NeuronGroup",
    "OperationCounter",
    "SimulationParameters",
    "SpikeTrace",
    "StepPlan",
    "UniformLateralInhibition",
    "all_to_all_except_self_weights",
    "dense_random_weights",
    "one_to_one_weights",
]
