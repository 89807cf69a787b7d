"""Simulation-wide parameters and operation accounting.

The :class:`OperationCounter` is the bridge between the functional simulation
and the energy/latency estimation in :mod:`repro.estimation`: every neuron
update, synaptic event, exponential decay evaluation, trace update, and weight
update performed by the engine is tallied here.  The paper's energy savings
(eliminating the inhibitory layer, removing exponential calculations, and
reducing spurious weight updates) therefore show up directly as reduced
operation counts, which the hardware model converts into time and energy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import Dict

from repro.utils.validation import check_positive


@dataclass
class SimulationParameters:
    """Global timing parameters of a clock-driven simulation.

    Parameters
    ----------
    dt:
        Simulation timestep in milliseconds.
    t_sim:
        Presentation time of a single input sample in milliseconds.
    t_rest:
        Resting (no input) period between samples in milliseconds, used to
        let membrane potentials and conductances settle.
    """

    dt: float = 1.0
    t_sim: float = 350.0
    t_rest: float = 150.0

    def __post_init__(self) -> None:
        check_positive(self.dt, "dt")
        check_positive(self.t_sim, "t_sim")
        if self.t_rest < 0:
            raise ValueError(f"t_rest must be >= 0, got {self.t_rest}")
        if self.t_sim < self.dt:
            raise ValueError(
                f"t_sim ({self.t_sim}) must be at least one timestep ({self.dt})"
            )

    @property
    def steps_per_sample(self) -> int:
        """Number of simulation steps used to present one sample."""
        return int(round(self.t_sim / self.dt))

    @property
    def rest_steps(self) -> int:
        """Number of simulation steps in the inter-sample rest period."""
        return int(round(self.t_rest / self.dt))


@dataclass
class OperationCounter:
    """Tally of the primitive operations executed by the simulation engine.

    Attributes
    ----------
    neuron_updates:
        Number of per-neuron state updates (one per neuron per timestep).
    synaptic_events:
        Number of synapse activations, i.e. (presynaptic spike, outgoing
        synapse) pairs that injected charge into a postsynaptic conductance.
    exponential_ops:
        Number of exponential-decay evaluations (membrane, threshold
        adaptation, conductance, spike traces, and weight decay).
    trace_updates:
        Number of spike-trace element updates.
    weight_updates:
        Number of individual synaptic-weight modifications performed by a
        learning rule (potentiation, depression, decay, or leak).
    spike_events:
        Total number of spikes emitted by non-input neuron groups.
    events_processed:
        Number of input spike events delivered by the event-driven engine
        (:meth:`repro.snn.network.Network.run_events`).  Stays zero on the
        clock-driven paths.
    steps_skipped:
        Number of timesteps the event-driven engine advanced analytically
        (closed-form exponential decay) instead of executing step by step.
        Together with ``events_processed`` this attributes the energy-proxy
        savings of event-driven execution to skipped grid work.
    """

    neuron_updates: int = 0
    synaptic_events: int = 0
    exponential_ops: int = 0
    trace_updates: int = 0
    weight_updates: int = 0
    spike_events: int = 0
    events_processed: int = 0
    steps_skipped: int = 0

    def add(self, **increments: int) -> None:
        """Increment one or more counters by the given amounts.

        Names are checked against the counter fields, so a method name such
        as ``copy`` is rejected like any other unknown name.
        """
        for name, value in increments.items():
            if name not in COUNTER_FIELDS:
                raise AttributeError(f"OperationCounter has no counter named {name!r}")
            setattr(self, name, getattr(self, name) + int(value))

    def reset(self) -> None:
        """Zero every counter."""
        for spec in fields(self):
            setattr(self, spec.name, 0)

    def total_ops(self) -> int:
        """Total number of counted primitive operations."""
        return (
            self.neuron_updates
            + self.synaptic_events
            + self.exponential_ops
            + self.trace_updates
            + self.weight_updates
        )

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def copy(self) -> "OperationCounter":
        """Return an independent copy of the current counts."""
        return OperationCounter(**self.as_dict())

    def _combine(self, other, operation) -> "OperationCounter":
        """A new counter holding ``operation(mine, theirs)`` field by field."""
        if not isinstance(other, OperationCounter):
            return NotImplemented
        mine, theirs = self.as_dict(), other.as_dict()
        return OperationCounter(**{key: operation(value, theirs[key])
                                   for key, value in mine.items()})

    def __add__(self, other: "OperationCounter") -> "OperationCounter":
        return self._combine(other, operator.add)

    def __sub__(self, other: "OperationCounter") -> "OperationCounter":
        return self._combine(other, operator.sub)


#: Names of the :class:`OperationCounter` fields, in declaration order.
COUNTER_FIELDS = tuple(spec.name for spec in fields(OperationCounter))
