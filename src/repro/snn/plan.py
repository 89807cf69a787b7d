"""The compiled step plan: one network timestep with nothing left to decide.

:meth:`repro.snn.network.Network.compile` turns a network into a
:class:`StepPlan` for a batch of ``B`` samples, the way a population-based
simulator wires each population to its input synapses once: every
non-input group gets the list of connections that target it and one
preallocated ``(B, n)`` current buffer, and every ``exp(-dt / tau)``
factor of a group or connection is evaluated once.  The network caches
one plan per batch size and drops them all when a group or connection is
added or the backend changes.  The plan copies no weights.

A run has one state shape.  :meth:`StepPlan.begin` replaces every group's
and connection's ``(n,)`` state arrays (their ``state_names``) with ``B``
stacked copies, or with ``(1, n)`` views for a sequential run, and
:meth:`StepPlan.end` puts the ``(n,)`` arrays back, after writing row 0
into them when the run is sequential.  In between,
every connection's conductance is a view of one ``(B, total)`` buffer, so
that one backend call with a per-element factor vector decays them all.

The per-timestep order lives in :meth:`StepPlan.step`:

1. the input group takes this step's input row;
2. the conductances of all connections decay, in one call;
3. every connection, in insertion order, injects its presynaptic spikes —
   input spikes of this step, recurrent and lateral spikes of the previous
   one;
4. every non-input group, in insertion order, sums the currents of its
   incoming connections into its buffer, then integrates and fires;
5. every group's spikes are added to the run's spike counts;
6. with learning on, every plastic connection's rule steps (and reads the
   counts of step 5: the run keeps one spike record).

The plan and :func:`repro.snn.events.advance_analytic` are the only code
that advances network state; whatever a caller observes of a run is read
from its spike counts or from the state left behind.

Kernels are called through the network's backend, i.e. the instance
installed by :meth:`~repro.snn.network.Network.set_backend`, which every
group and connection also holds.  Operation tallies that do not depend on
spikes are charged once per run by :meth:`StepPlan.flush`, from each
component's per-sample ``step_operations()`` read at flush time, times the
batch size; spike tallies come from the accumulated spike counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.backends.base import store_state
from repro.snn.neurons import InputGroup, NeuronGroup
from repro.snn.simulation import COUNTER_FIELDS, OperationCounter


class GroupStage:
    """One non-input group of a plan: its incoming connections and buffer.

    ``inputs`` holds ``(connection, gain, decay)`` triples: the signed gain
    turning the connection's conductance into current, and the
    connection's per-step conductance decay.
    """

    __slots__ = ("group", "decays", "inputs", "current")

    def __init__(self, group: NeuronGroup, batch_size: int, decays: tuple,
                 inputs: List[tuple]) -> None:
        self.group = group
        self.decays = decays
        self.inputs = inputs
        self.current = np.zeros((batch_size, group.n), dtype=float)


class StepPlan:
    """A network compiled for a batch of ``batch_size`` samples (see the
    module docstring)."""

    def __init__(self, network, batch_size: int = 1) -> None:
        dt = network.params.dt
        self.network = network
        self.batch_size = batch_size
        self.dt = dt
        self.backend = network.backend
        self.input_group: Optional[InputGroup] = network._input_group
        self.transmissions: List[tuple] = [
            (connection, connection.decay_factor(dt))
            for connection in network.connections
        ]
        self.connections = list(network.connections)
        # One factor per conductance element: its connection's decay, in a
        # row, so a batch of one decays without a broadcast.
        self.conductance_decays = np.concatenate(
            [np.full(connection.post.n, decay)
             for connection, decay in self.transmissions] or [np.zeros(0)])[None]
        self.conductances: Optional[np.ndarray] = None
        self.stages = [
            GroupStage(
                group, batch_size,
                group.decay_factors(dt),
                [(connection, connection.sign * connection.gain, decay)
                 for connection, decay in self.transmissions
                 if connection.post is group],
            )
            for group in network.groups.values()
            if not isinstance(group, InputGroup)
        ]
        self.silent_input = None if self.input_group is None else np.zeros(
            (batch_size, self.input_group.n), dtype=bool)
        self.components = [*network.groups.values(), *network.connections]
        self.counts: Dict[str, np.ndarray] = {}
        self._counted: List[tuple] = []
        self._rest: List[tuple] = []
        self._carry = False
        self.steps_taken = 0

    def begin(self, carry: bool = False) -> None:
        """Start a run: every state array becomes ``batch_size`` stacked
        copies of its ``(n,)`` rest array, the conductances are bound to
        one buffer, the spike counts start fresh and no steps are taken.

        A sequential run (``carry``, one sample) advances ``(1, n)`` views
        of the rest arrays instead: in-place kernels write through, and
        :meth:`end`'s write-back only matters for arrays a kernel rebound.
        """
        batch = self.batch_size
        groups = self.network.groups
        self.counts = {name: np.zeros((batch, group.n), dtype=np.int64)
                       for name, group in groups.items()}
        self._count_into(self.counts)
        self.steps_taken = 0
        self._carry = carry
        self._rest = [(component, name, getattr(component, name))
                      for component in self.components
                      for name in component.state_names]
        for component, name, rest in self._rest:
            setattr(component, name, rest[None] if carry
                    else np.repeat(rest[None], batch, axis=0))
        if self.connections:
            buffer = np.concatenate(
                [connection.conductance for connection in self.connections], axis=-1)
            start = 0
            for connection in self.connections:
                stop = start + connection.post.n
                connection.conductance = buffer[..., start:stop]
                start = stop
            self.conductances = buffer

    def end(self) -> None:
        """End a run: every component gets its ``(n,)`` arrays back.  A
        sequential run writes row 0 of its state into them first, so e.g.
        ``theta`` keeps the run's drift.  Safe after a :meth:`begin` that
        raised: an array it had not replaced yet is left as it is."""
        for component, name, rest in self._rest:
            run_state = getattr(component, name)
            if self._carry and run_state is not rest:
                rest[...] = run_state[0]
            setattr(component, name, rest)
        self._rest = []

    def end_presentation(self) -> Dict[str, np.ndarray]:
        """The spike counts of the presentation so far, frozen; the rest
        steps count on in copies, which :meth:`flush` charges."""
        presented = self.counts
        self.counts = {name: counts.copy() for name, counts in presented.items()}
        self._count_into(self.counts)
        return presented

    def _count_into(self, counts: Dict[str, np.ndarray]) -> None:
        """Add every step's spikes to ``counts`` from now on, through flat
        views: adding raveled spikes is cheaper than a 2-D add."""
        groups = self.network.groups
        self._counted = [(groups[name], group_counts.reshape(-1))
                         for name, group_counts in counts.items()]

    def step(self, input_spikes: Optional[np.ndarray], t_index: int,
             learning: bool) -> None:
        """Advance the network by one timestep with ``input_spikes`` as the
        input group's spikes (the single-step entry point of every run)."""
        dt = self.dt
        if self.input_group is not None:
            self.input_group.spikes = input_spikes
        conductances = self.conductances
        if conductances is not None:
            store_state(conductances, self.backend.decay_state(
                conductances, self.conductance_decays))
        for connection in self.connections:
            connection.inject()
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
        for group, counts in self._counted:
            counts += group.spikes.ravel()
        if learning:
            counter = self.network.counter
            for connection in self.connections:
                rule = connection.learning_rule
                if rule is not None:
                    rule.step(connection, dt, t_index, counter)
        self.steps_taken += 1

    def flush(self, counter: OperationCounter) -> None:
        """Charge the tallies of the steps taken since :meth:`begin`."""
        steps = self.steps_taken
        totals = dict.fromkeys(COUNTER_FIELDS, 0)
        components = [stage.group for stage in self.stages]
        components += [connection for connection, _ in self.transmissions]
        for component in components:
            for name, value in component.step_operations().items():
                totals[name] += value * steps * self.batch_size
        totals["spike_events"] = sum(
            int(self.counts[stage.group.name].sum()) for stage in self.stages
        )
        counter.add(**totals)
        self.steps_taken = 0
