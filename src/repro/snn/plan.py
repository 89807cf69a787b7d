"""The compiled step plan: one network timestep with nothing left to decide.

:meth:`repro.snn.network.Network.compile` turns a network into a
:class:`StepPlan` for its current batch shape, the way a population-based
simulator wires each population to its input synapses once: every
non-input group gets the list of connections that target it and one
preallocated current buffer, and every ``exp(-dt / tau)`` factor of a
group or connection is evaluated once.  The network caches one plan per
batch shape and drops them all when a group or connection is added or the
backend changes; the plan holds no state arrays (groups rebind those every
step) and copies no weights.

The per-timestep order lives in :meth:`StepPlan.step`:

1. the input group takes this step's input row;
2. every connection, in insertion order, decays its conductance and injects
   its presynaptic spikes — input spikes of this step, recurrent and lateral
   spikes of the previous one;
3. every non-input group, in insertion order, sums the currents of its
   incoming connections into its buffer, then integrates and fires;
4. with learning on, every plastic connection's rule steps;
5. monitors observe;
6. every group's spikes are added to the run's spike counts.

Kernels are called through each group's and connection's ``backend``, i.e.
the instance installed by :meth:`~repro.snn.network.Network.set_backend`.
Operation tallies that do not depend on spikes are charged once per run by
:meth:`StepPlan.flush`, from each component's ``step_operations()`` read at
flush time; spike tallies come from the accumulated spike counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.snn.neurons import InputGroup, NeuronGroup
from repro.snn.simulation import COUNTER_FIELDS, OperationCounter


class GroupStage:
    """One non-input group of a plan: its incoming connections and buffer.

    ``inputs`` holds ``(connection, gain, decay)`` triples: the signed gain
    turning the connection's conductance into current, and the
    connection's per-step conductance decay.
    """

    __slots__ = ("group", "decays", "inputs", "current")

    def __init__(self, group: NeuronGroup, decays: tuple,
                 inputs: List[tuple]) -> None:
        self.group = group
        self.decays = decays
        self.inputs = inputs
        self.current = np.zeros(group.state_shape, dtype=float)


class StepPlan:
    """A network compiled for one batch shape (see the module docstring)."""

    def __init__(self, network) -> None:
        dt = network.params.dt
        self.network = network
        self.dt = dt
        self.input_group: Optional[InputGroup] = network._input_group
        self.transmissions: List[tuple] = [
            (connection, connection.decay_factor(dt))
            for connection in network.connections
        ]
        self.stages = [
            GroupStage(
                group,
                group.decay_factors(dt),
                [(connection, connection.sign * connection.gain, decay)
                 for connection, decay in self.transmissions
                 if connection.post is group],
            )
            for group in network.groups.values()
            if not isinstance(group, InputGroup)
        ]
        self.silent_input = None if self.input_group is None else np.zeros(
            self.input_group.state_shape, dtype=bool)
        self.counts: Dict[str, np.ndarray] = {}
        self._counted: List[tuple] = []
        self.steps_taken = 0

    def begin(self) -> None:
        """Start a run: fresh spike counts and no steps taken yet."""
        groups = self.network.groups
        self.counts = {name: np.zeros(group.state_shape, dtype=np.int64)
                       for name, group in groups.items()}
        self._counted = [(groups[name], counts)
                         for name, counts in self.counts.items()]
        self.steps_taken = 0

    def step(self, input_spikes: Optional[np.ndarray], t_index: int,
             learning: bool) -> None:
        """Advance the network by one timestep with ``input_spikes`` as the
        input group's spikes (the single-step entry point of every run)."""
        network = self.network
        dt = self.dt
        if self.input_group is not None:
            self.input_group.spikes = input_spikes
        for connection, decay in self.transmissions:
            connection.transmit(decay)
        for stage in self.stages:
            current = stage.current
            current.fill(0.0)
            # Same IEEE operations as adding ``gain * conductance`` to zero:
            # multiplying by +-1.0 is exact, and subtraction is addition of
            # the negation.
            for connection, gain, _ in stage.inputs:
                if gain == 1.0:
                    current += connection.conductance
                elif gain == -1.0:
                    current -= connection.conductance
                else:
                    current += gain * connection.conductance
            stage.group.integrate(current, dt, stage.decays)
        if learning:
            counter = network.counter
            for connection in network.connections:
                rule = connection.learning_rule
                if rule is not None:
                    rule.step(connection, dt, t_index, counter)
        for monitor in network.spike_monitors:
            monitor.observe()
        for monitor in network.state_monitors:
            monitor.observe()
        for group, counts in self._counted:
            counts += group.spikes
        self.steps_taken += 1

    def flush(self, counter: OperationCounter) -> None:
        """Charge the tallies of the steps taken since :meth:`begin`."""
        steps = self.steps_taken
        totals = dict.fromkeys(COUNTER_FIELDS, 0)
        components = [stage.group for stage in self.stages]
        components += [connection for connection, _ in self.transmissions]
        for component in components:
            for name, value in component.step_operations().items():
                totals[name] += value * steps
        totals["spike_events"] = sum(
            int(self.counts[stage.group.name].sum()) for stage in self.stages
        )
        counter.add(**totals)
        self.steps_taken = 0
