"""Network orchestration: groups, connections, and the run loop.

A :class:`Network` owns an input group, any number of downstream neuron
groups, and the connections between them.  :meth:`Network.run_sample`
presents one rate-coded sample (a boolean spike train) to the input group,
advances the whole network timestep by timestep, drives attached learning
rules, and returns per-group spike counts.  :meth:`Network.run_batch`
presents ``B`` samples at once, the hot path for evaluation-heavy
workloads.  :meth:`Network.run_events` presents an event stream and jumps
provably silent gaps.

All three share one stepping loop and one state shape: every run advances
``(B, n)`` state, with ``B = 1`` for :meth:`~Network.run_sample`,
:meth:`~Network.run_events` and each sample of a learning
:meth:`~Network.run_batch`, so a sample run alone is a batch of one.  They
differ only in where the input rows come from, whether silent gaps may be
jumped, and whether the run is sequential: a sequential run keeps its
adaptation drift (``theta``), a batch leaves it where it was.  Between
runs every group and connection holds its ``(n,)`` rest state.  Each
timestep is one call of :meth:`repro.snn.plan.StepPlan.step`, and the
order of work within a timestep is documented there.
:meth:`Network.compile` builds that plan once per batch size and caches
it; adding a group or a connection, or :meth:`Network.set_backend`, drops
the cache so the next run recompiles.

All primitive operations are tallied in the network's
:class:`~repro.snn.simulation.OperationCounter`, which feeds the energy and
latency models in :mod:`repro.estimation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.backends import BackendLike, get_backend
from repro.snn.events import (EventRows, advance_analytic, as_event_stream,
                              silence_is_provable)
from repro.snn.neurons import InputGroup, NeuronGroup
from repro.snn.plan import StepPlan
from repro.snn.simulation import OperationCounter, SimulationParameters
from repro.snn.synapses import Connection


@dataclass
class SampleResult:
    """Outcome of presenting a single sample to the network.

    Attributes
    ----------
    spike_counts:
        Mapping from group name to the per-neuron spike-count vector
        accumulated over the presentation window.
    steps:
        Number of simulation steps executed (presentation plus rest).
    learning:
        Whether plasticity was enabled during the presentation.
    """

    spike_counts: Dict[str, np.ndarray] = field(default_factory=dict)
    steps: int = 0
    learning: bool = True

    def counts(self, group_name: str) -> np.ndarray:
        """Spike counts of ``group_name`` (raises ``KeyError`` if unknown)."""
        return self.spike_counts[group_name]


class Network:
    """A spiking neural network assembled from groups and connections.

    Parameters
    ----------
    params:
        Global simulation timing parameters.  Defaults to the paper's
        350 ms presentation / 150 ms rest at a 1 ms timestep; experiments in
        this repository typically scale these down.
    name:
        Identifier used in reports.
    backend:
        Compute backend (name or instance) executing every state-update
        kernel; defaults to ``"sparse"``.  The network owns the compute
        policy: every group and connection added to it is switched to this
        backend, and :meth:`set_backend` retargets a built network in place.
    """

    def __init__(self, params: Optional[SimulationParameters] = None,
                 name: str = "snn", backend: BackendLike = None) -> None:
        self.params = params if params is not None else SimulationParameters()
        self.name = str(name)
        self.backend = get_backend(backend)
        self.groups: Dict[str, NeuronGroup] = {}
        self.connections: List[Connection] = []
        self.counter = OperationCounter()
        self._input_group: Optional[InputGroup] = None
        self._plans: Dict[int, StepPlan] = {}

    # -- construction -------------------------------------------------------

    def add_group(self, group: NeuronGroup) -> NeuronGroup:
        """Register a neuron group (its name must be unique)."""
        if group.name in self.groups:
            raise ValueError(f"a group named {group.name!r} already exists")
        self.groups[group.name] = group
        group.backend = self.backend
        self._plans.clear()
        if isinstance(group, InputGroup):
            if self._input_group is not None:
                raise ValueError("network already has an input group")
            self._input_group = group
        return group

    def add_connection(self, connection: Connection) -> Connection:
        """Register a connection (both endpoint groups must be registered)."""
        for endpoint in (connection.pre, connection.post):
            if endpoint.name not in self.groups or self.groups[endpoint.name] is not endpoint:
                raise ValueError(
                    f"group {endpoint.name!r} must be added to the network "
                    "before connections that use it"
                )
        self.connections.append(connection)
        connection.backend = self.backend
        self._plans.clear()
        return connection

    # -- introspection -------------------------------------------------------

    @property
    def backend_name(self) -> str:
        """Name of the kernel set the network runs on."""
        return self.backend.name

    def set_backend(self, backend: BackendLike) -> None:
        """Switch the whole network to ``backend`` (name or instance).

        Backends are stateless kernel bundles, so switching mid-simulation is
        safe: all state arrays stay where they are and only the kernels that
        advance them change.
        """
        self.backend = get_backend(backend)
        for group in self.groups.values():
            group.backend = self.backend
        for connection in self.connections:
            connection.backend = self.backend
        self._plans.clear()

    @property
    def input_group(self) -> InputGroup:
        """The network's input group (raises if none was added)."""
        if self._input_group is None:
            raise RuntimeError("network has no InputGroup")
        return self._input_group

    def group(self, name: str) -> NeuronGroup:
        """Look up a group by name."""
        return self.groups[name]

    def connection(self, name: str) -> Connection:
        """Look up a connection by name (raises ``KeyError`` if unknown)."""
        for conn in self.connections:
            if conn.name == name:
                return conn
        raise KeyError(f"no connection named {name!r}")

    @property
    def weight_count(self) -> int:
        """Total number of synaptic weights across all connections."""
        return sum(conn.weight_count for conn in self.connections)

    @property
    def neuron_parameter_count(self) -> int:
        """Total number of per-neuron state parameters across all groups."""
        return sum(group.parameter_count for group in self.groups.values())

    # -- simulation ----------------------------------------------------------

    def reset_transient_state(self) -> None:
        """Reset per-sample state (potentials, conductances, input cursors)."""
        for group in self.groups.values():
            group.reset_state(full=False)
        for connection in self.connections:
            connection.reset_state(full=False)

    def reset(self, full: bool = False) -> None:
        """Reset the network.

        With ``full=True`` adaptation variables and learning-rule state are
        also cleared; synaptic weights are never touched.
        """
        for group in self.groups.values():
            group.reset_state(full=full)
        for connection in self.connections:
            connection.reset_state(full=full)
        self.counter.reset()

    def compile(self, batch_size: int = 1) -> StepPlan:
        """The :class:`~repro.snn.plan.StepPlan` for ``batch_size`` samples.

        Compiled on first use and cached per batch size; adding a group or
        connection, or :meth:`set_backend`, drops the cache.  Time constants
        and ``params.dt`` are read when the plan compiles.
        """
        plan = self._plans.get(batch_size)
        if plan is None:
            plan = self._plans[batch_size] = StepPlan(self, batch_size)
        return plan

    def _simulate(self, rows, steps: int, batch_size: int, *, learning: bool,
                  include_rest: bool, carry: bool,
                  next_input=None) -> List[SampleResult]:
        """The one stepping loop behind every ``run_*`` entry point.

        ``rows[t]`` is the ``(batch_size, n_input)`` input row of
        presentation step ``t``; rest steps get silence.  The plan's
        :meth:`~repro.snn.plan.StepPlan.begin` and
        :meth:`~repro.snn.plan.StepPlan.end` around the loop are the one
        place that sizes the run's ``(batch_size, n)`` state and puts the
        ``(n,)`` rest state back; ``carry`` (a sequential run, one sample)
        keeps the run's row in it.  ``next_input()`` (event inputs only)
        names the next step that carries input; silent gaps up to it are
        jumped whenever :func:`~repro.snn.events.silence_is_provable`.
        Returns one result per sample, holding the spike counts of the
        presentation window.
        """
        plan = self.compile(batch_size)
        silent = plan.silent_input
        total = steps + (self.params.rest_steps if include_rest else 0)
        plastic = [connection for connection in self.connections
                   if learning and connection.learning_rule is not None]
        presented = False
        t_index = 0
        try:
            plan.begin(carry)
            # Each sample's rows of the run's spike record; the record stops
            # at the end of the presentation, when learning does.  Learning
            # is sequential: the rules read sample 0.
            samples = [{name: counts[index]
                        for name, counts in plan.counts.items()}
                       for index in range(batch_size)]
            for connection in plastic:
                connection.learning_rule.on_sample_start(connection, samples[0])
            while t_index < total:
                if t_index >= steps and not presented:
                    plan.end_presentation()
                    presented = True
                learn_now = learning and t_index < steps
                row = rows[t_index] if t_index < steps else silent
                if next_input is not None and row is silent:
                    # Plasticity stops at the presentation boundary (the
                    # rest period never updates traces): jumps stop there.
                    target = min(next_input(), steps if learn_now else total)
                    if silence_is_provable(self):
                        advance_analytic(self, target - t_index,
                                         decay_traces=learn_now)
                        t_index = target
                        continue
                plan.step(row, t_index, learn_now)
                t_index += 1
        finally:
            plan.flush(self.counter)
            plan.end()
        for connection in plastic:
            connection.learning_rule.on_sample_end(connection, self.counter)
        self.reset_transient_state()
        return [SampleResult(spike_counts=counts, steps=total, learning=learning)
                for counts in samples]

    def run_sample(self, spike_train: np.ndarray, *, learning: bool = True,
                   include_rest: bool = False) -> SampleResult:
        """Present one rate-coded sample to the network.

        Parameters
        ----------
        spike_train:
            Boolean array of shape ``(timesteps, n_input)``.
        learning:
            Enable plasticity on connections with learning rules.
        include_rest:
            When ``True``, simulate ``params.rest_steps`` additional steps
            with no input after the presentation window.

        Returns
        -------
        SampleResult
            Per-group spike counts over the presentation window.
        """
        train = np.asarray(spike_train)
        n_input = self.input_group.n
        if train.ndim != 2 or train.shape[1] != n_input:
            raise ValueError(
                "spike_train must have shape (timesteps, n_input) with "
                f"{n_input} input channels, got {train.shape}"
            )
        # A batch of one: rows[t] is the (1, n_input) input of step t.
        (result,) = self._simulate(train.astype(bool, copy=False)[:, None],
                                   len(train), 1, learning=learning,
                                   include_rest=include_rest, carry=True)
        return result

    def run_batch(self, spike_trains: np.ndarray, *, learning: bool = False,
                  include_rest: bool = False) -> List[SampleResult]:
        """Present a batch of rate-coded samples and return per-sample results.

        Parameters
        ----------
        spike_trains:
            Boolean array of shape ``(batch_size, timesteps, n_input)`` (or a
            sequence of equal-length ``(timesteps, n_input)`` trains, which is
            stacked).  A boolean array is read in place, not copied.
        learning:
            When ``False`` (the default, the inference hot path) all samples
            advance together in ``(batch_size, n)`` state.  When ``True``
            the samples are applied one at a time via :meth:`run_sample`, so
            plasticity sees exactly the same weight trajectory as a
            sequential loop.
        include_rest:
            When ``True``, simulate ``params.rest_steps`` additional steps
            with no input after the presentation window.

        Returns
        -------
        list of SampleResult
            One result per sample, in input order — identical to what ``B``
            :meth:`run_sample` calls would return.

        Notes
        -----
        **Equivalence guarantee.**  A run of one sample is a batch of one,
        and every state update is elementwise over the batch axis (the
        spike-to-conductance projection gathers each spiking sample's
        weight rows and sums them first to last, as a batch of one does),
        so spike counts, membrane trajectories, and
        :class:`~repro.snn.simulation.OperationCounter` totals are bit-for-bit
        identical to ``B`` independent :meth:`run_sample` calls.

        **Adaptation state.**  Samples in a batch are independent: each
        starts from the persistent slowly-varying adaptation state (e.g.
        the threshold potential ``theta``), which the batch leaves
        unchanged, at any batch size.  A *sequential* loop over samples
        instead carries ``theta`` drift from one sample into the next; the
        two modes therefore only diverge when ``adapt_theta`` is enabled
        with a nonzero ``theta_plus``.  With ``learning=True`` the
        sequential-equivalent path is used, which preserves that drift
        exactly.
        """
        try:
            trains = np.asarray(spike_trains)
        except ValueError as error:
            raise ValueError(
                "all spike trains in a batch must have the same number of "
                "timesteps"
            ) from error
        if trains.dtype == object:
            raise ValueError(
                "all spike trains in a batch must have the same number of "
                "timesteps"
            )
        trains = self.input_group.validate_train(trains)
        if learning:
            # Sequential-equivalent application keeps the weight trajectory —
            # and therefore the learned weights — bit-for-bit identical to a
            # run_sample loop.
            return [
                self.run_sample(train, learning=True, include_rest=include_rest)
                for train in trains
            ]
        # rows[t] is the (batch_size, n_input) input of step t.
        return self._simulate(np.swapaxes(trains, 0, 1), trains.shape[1],
                              len(trains), learning=False,
                              include_rest=include_rest, carry=False)

    def run_events(self, events, *, learning: bool = False,
                   include_rest: bool = False,
                   allow_jumps: Optional[bool] = None):
        """Present input as spike *events*; cost scales with events, not steps.

        The event-driven counterpart of :meth:`run_sample`: the input is a
        time-ordered queue of (step, channel) firings, and between active
        steps the engine advances all exponential state (membranes,
        conductances, theta, STDP traces) analytically across the silent
        gap — but only when a conservative bound proves the gap could not
        have produced a spike under the stepped arithmetic (see
        :mod:`repro.snn.events`).  Steps that deliver events, or whose
        silence is not provable (e.g. post-burst conductance tails), are
        executed with the ordinary per-timestep kernels, so spike counts
        match the stepped reference exactly on every workload the bound
        covers; float state differs only by closed-form-vs-iterated decay
        rounding (bounded at ``rtol=1e-6`` by the event tests).

        Parameters
        ----------
        events:
            An :class:`~repro.snn.events.EventStream`, a dense boolean
            ``(timesteps, n_input)`` train (converted losslessly), or a
            sequence / ``(batch, timesteps, n_input)`` stack of either —
            batches are streamed one sample at a time, which is the
            intended serving shape for long-horizon low-rate inputs.
        learning:
            Enable plasticity.  Gaps are only jumped when every attached
            learning rule declares ``supports_analytic_silence`` (pairwise
            STDP does; rules that update weights on silent steps, like ASP
            leak or SpikeDyn window boundaries, force full stepping).
        include_rest:
            Simulate ``params.rest_steps`` of silence after the
            presentation — usually one analytic jump.
        allow_jumps:
            Override the jump policy; defaults to the active backend's
            ``supports_events`` declaration.

        Returns
        -------
        SampleResult or list of SampleResult
            One result for a single stream/train, a list for a batch.
        """
        if isinstance(events, (list, tuple)) or (
                not hasattr(events, "n_events") and np.ndim(events) == 3):
            return [self.run_events(item, learning=learning,
                                    include_rest=include_rest,
                                    allow_jumps=allow_jumps)
                    for item in events]
        stream = as_event_stream(events, n_channels=self.input_group.n)

        jumps = allow_jumps if allow_jumps is not None \
            else self.backend.supports_events
        if learning and jumps:
            jumps = all(
                getattr(conn.learning_rule, "supports_analytic_silence", False)
                for conn in self.connections
                if conn.learning_rule is not None
            )

        rows = EventRows(stream, self.compile().silent_input)
        (result,) = self._simulate(rows, stream.n_steps, 1, learning=learning,
                                   include_rest=include_rest, carry=True,
                                   next_input=rows.next_input if jumps else None)
        # Every event is delivered on an executed step: gaps stop before it.
        self.counter.add(events_processed=stream.n_events)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(name={self.name!r}, groups={list(self.groups)}, "
            f"connections={[c.name for c in self.connections]})"
        )
