"""Event-stream representation and the analytic silent-gap machinery.

This module is the heart of the event-driven simulation path
(:meth:`repro.snn.network.Network.run_events`): instead of walking every
timestep of the grid, the engine keeps a time-ordered queue of input spike
events and advances the network between events with *closed-form*
exponential decay.

Two pieces live here:

:class:`EventStream`
    A native sparse representation of an input spike train — parallel
    ``(times, channels)`` arrays of step-indexed firings, the
    ``list_firings`` idiom.  Converts losslessly to and from the dense
    ``(timesteps, n)`` boolean trains the rest of the system uses, so both
    representations drive the same engine.

The analytic advance
    :func:`silence_is_provable` decides whether a gap of input-silent
    timesteps can be skipped: it proves, with a conservative bound, that no
    neuron could fire anywhere in the gap even under the stepped
    arithmetic.  :func:`advance_analytic` then moves every exponential
    state variable (membranes, conductances, theta, STDP traces) across
    the gap in one closed-form update each.

The no-spike bound
------------------
With the engine's step order (conductances decay *before* injecting
current), a gap of ``k`` input-silent steps evolves each membrane as::

    v_k - v_rest = lam**k (v_0 - v_rest)
                   + dt * sum_j c_j g_j0 * sum_{m=1..k} lam**(k-m) mu_j**m

where ``lam = exp(-dt/tau_m)``, ``mu_j = exp(-dt/tau_syn_j)`` and ``c_j``
is the connection's signed gain.  Dropping inhibitory terms (``c_j < 0``),
bounding ``lam**(k-m) <= 1`` and summing the geometric tail gives the
per-neuron ceiling::

    v_k <= v_rest + max(v_0 - v_rest, 0) + dt * sum_{c_j>0} c_j g_j0 mu_j/(1-mu_j)

valid for *every* ``k``.  If that ceiling clears the firing-threshold
floor (``v_thresh``; adaptive theta only raises it) by an absolute safety
margin far above float rounding, the whole gap is provably silent and can
be jumped.  Anything unprovable is simply stepped with the ordinary
bit-exact kernels — correctness never depends on the bound being tight.

The closed form multiplies by ``decay**k`` where the stepped path
multiplies by ``decay`` ``k`` times; the two differ by accumulated
rounding (~1 ULP per decade of ``k``), so float state after a jump is
only tolerance-close to the stepped path while spike counts stay exact
(jumped steps are provably spike-free under either arithmetic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.snn.neurons import AdaptiveLIFGroup, LIFGroup

#: Absolute safety margin (mV) between the no-spike ceiling and the
#: threshold floor.  Stepped float rounding over a gap is ~1e-10 mV; the
#: margin is orders of magnitude above it, and a bound this close to
#: threshold is not worth jumping anyway.
NO_SPIKE_MARGIN = 1e-6


@dataclass(frozen=True)
class EventStream:
    """Sparse (time, channel) representation of an input spike train.

    Parameters
    ----------
    times:
        Integer step indices of the events, ``0 <= t < n_steps``.  Sorted
        on construction (stably, so same-step channel order is kept).
    channels:
        Input-channel index of each event, ``0 <= c < n_channels``.
    n_steps:
        Length of the time grid the events live on.
    n_channels:
        Width of the input population.
    """

    times: np.ndarray
    channels: np.ndarray
    n_steps: int
    n_channels: int

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.int64).ravel()
        channels = np.asarray(self.channels, dtype=np.int64).ravel()
        if times.shape != channels.shape:
            raise ValueError(
                f"times and channels must have equal length, got "
                f"{times.size} and {channels.size}"
            )
        n_steps = int(self.n_steps)
        n_channels = int(self.n_channels)
        if n_steps <= 0 or n_channels <= 0:
            raise ValueError(
                f"n_steps and n_channels must be positive, got "
                f"({n_steps}, {n_channels})"
            )
        if times.size:
            if times.min() < 0 or times.max() >= n_steps:
                raise ValueError(
                    f"event times must lie in [0, {n_steps}), got "
                    f"[{times.min()}, {times.max()}]"
                )
            if channels.min() < 0 or channels.max() >= n_channels:
                raise ValueError(
                    f"event channels must lie in [0, {n_channels}), got "
                    f"[{channels.min()}, {channels.max()}]"
                )
            order = np.argsort(times, kind="stable")
            times = times[order]
            channels = channels[order]
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "n_steps", n_steps)
        object.__setattr__(self, "n_channels", n_channels)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dense(cls, train: np.ndarray) -> "EventStream":
        """Convert a dense ``(timesteps, n)`` boolean train losslessly."""
        train = np.asarray(train)
        if train.ndim != 2:
            raise ValueError(
                f"dense train must have shape (timesteps, n), got {train.shape}"
            )
        times, channels = np.nonzero(np.asarray(train, dtype=bool))
        return cls(times=times, channels=channels,
                   n_steps=train.shape[0], n_channels=train.shape[1])

    @classmethod
    def empty(cls, n_steps: int, n_channels: int) -> "EventStream":
        """A stream with no events (an all-silent input)."""
        return cls(times=np.zeros(0, dtype=np.int64),
                   channels=np.zeros(0, dtype=np.int64),
                   n_steps=n_steps, n_channels=n_channels)

    # -- views ---------------------------------------------------------------

    @property
    def n_events(self) -> int:
        """Total number of (time, channel) events."""
        return int(self.times.size)

    @property
    def density(self) -> float:
        """Events per grid cell, ``n_events / (n_steps * n_channels)``."""
        return self.n_events / float(self.n_steps * self.n_channels)

    @property
    def active_steps(self) -> np.ndarray:
        """Sorted unique step indices that carry at least one event."""
        return np.unique(self.times)

    def to_dense(self) -> np.ndarray:
        """The equivalent dense ``(n_steps, n_channels)`` boolean train."""
        train = np.zeros((self.n_steps, self.n_channels), dtype=bool)
        train[self.times, self.channels] = True
        return train

    def step_channels(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Events grouped by step: ``(active_steps, channels_per_step)``."""
        if not self.n_events:
            return np.zeros(0, dtype=np.int64), []
        unique_times, starts = np.unique(self.times, return_index=True)
        return unique_times, np.split(self.channels, starts[1:])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventStream(n_events={self.n_events}, n_steps={self.n_steps}, "
            f"n_channels={self.n_channels}, density={self.density:.4%})"
        )


def as_event_stream(source, n_channels: Optional[int] = None) -> "EventStream":
    """Coerce ``source`` (EventStream or dense 2-D train) to an EventStream."""
    if isinstance(source, EventStream):
        stream = source
    else:
        stream = EventStream.from_dense(source)
    if n_channels is not None and stream.n_channels != n_channels:
        raise ValueError(
            f"event stream has {stream.n_channels} channels, "
            f"expected {n_channels}"
        )
    return stream


class EventRows:
    """The input rows of an event stream, built as the stepping loop asks.

    Rows must be requested in increasing step order: ``rows[t]`` is a fresh
    boolean row where events fall at step ``t`` and the shared ``silent``
    row elsewhere, and :meth:`next_input` names the next step with events.
    """

    def __init__(self, stream: EventStream, silent: np.ndarray) -> None:
        self.times, self.channels = stream.step_channels()
        self.silent = silent
        self._pointer = 0

    def __getitem__(self, t_index: int) -> np.ndarray:
        pointer = self._pointer
        if pointer < self.times.size and self.times[pointer] == t_index:
            self._pointer = pointer + 1
            row = np.zeros_like(self.silent)
            row[self.channels[pointer]] = True
            return row
        return self.silent

    def next_input(self) -> float:
        """The next step with events not yet handed out (``inf`` if none)."""
        if self._pointer < self.times.size:
            return int(self.times[self._pointer])
        return math.inf


# -- the analytic silent-gap advance ----------------------------------------


def silence_is_provable(network, margin: float = NO_SPIKE_MARGIN) -> bool:
    """Whether no neuron can fire in an input-silent gap starting now.

    Conservative on three axes: pending spikes or active refractory timers
    anywhere veto the jump outright (their delayed deliveries and reset
    dynamics are cheap to just step through), inhibitory drive is dropped
    from the membrane ceiling, and the ceiling must clear the threshold
    floor by :data:`NO_SPIKE_MARGIN`.  A ``False`` costs a few stepped
    timesteps; a ``True`` is a proof.
    """
    dt = network.params.dt
    for stage in network.compile().stages:
        group = stage.group
        if np.count_nonzero(group.spikes):
            # Last step's spikes still owe a delayed lateral/recurrent
            # delivery on the next step; step it instead of proving it.
            return False
        if np.count_nonzero(group.refrac_remaining):
            # Clocks never go negative, so any non-zero clock is running.
            return False
        # ``v_rest + max(v - v_rest, 0) + sum(...)`` built in place, with one
        # scratch buffer for the terms: the same IEEE operations per element
        # in the same order (addition commutes), so the same decisions.
        ceiling = np.subtract(group.v, group.v_rest)
        np.maximum(ceiling, 0.0, out=ceiling)
        ceiling += group.v_rest
        drive = None
        for connection, _, mu in stage.inputs:
            if connection.sign <= 0:
                continue  # inhibition only lowers the ceiling
            tail = mu / (1.0 - mu)
            drive = np.maximum(connection.conductance, 0.0, out=drive)
            drive *= dt * connection.gain * tail
            ceiling += drive
        floor = group.v_thresh
        theta = getattr(group, "theta", None)
        if theta is not None:
            # theta >= 0 only raises the threshold; a (hypothetical)
            # negative theta decays toward zero from below, so its initial
            # value is the conservative floor offset.
            floor = floor + min(float(theta.min()), 0.0)
        if ceiling.max() >= floor - margin:
            return False
    return True


def _geometric_drive(mu: float, lam: float, delta: int) -> float:
    """``sum_{m=1..delta} lam**(delta-m) * mu**m`` in closed form."""
    if abs(mu - lam) < 1e-12:
        return delta * lam ** delta
    return mu * (mu ** delta - lam ** delta) / (mu - lam)


def advance_analytic(network, delta: int, *, decay_traces: bool = False) -> None:
    """Advance all exponential state across ``delta`` provably silent steps.

    One closed-form update per state array, in place (conductances and
    traces are views of shared buffers, see :mod:`repro.snn.plan`):
    membranes get the two-exponential drive formula from the module
    docstring, conductances / theta / traces a single ``decay**delta``.
    Tallies the work actually performed (one analytic update per element)
    plus ``steps_skipped=delta``, which is what lets the energy model
    attribute event-driven savings honestly.

    Callers must have established :func:`silence_is_provable` first; this
    function assumes zero refractory timers and no pending spikes.
    """
    dt = network.params.dt
    counter = network.counter
    plan = network.compile()

    for stage in plan.stages:
        group = stage.group
        if not isinstance(group, LIFGroup):
            continue
        lam = np.exp(-dt / group.tau_m)
        lam_pow = lam ** delta
        drive = np.zeros(group.state_shape, dtype=float)
        for connection, coefficient, mu in stage.inputs:
            drive += (coefficient * _geometric_drive(mu, lam, delta)) \
                * connection.conductance
        # ``v_rest + (v - v_rest) * lam**delta + dt * drive`` in place (state
        # arrays may be views): the same IEEE operations, addition commutes.
        v = group.v
        v -= group.v_rest
        v *= lam_pow
        v += group.v_rest
        drive *= dt
        v += drive
        counter.add(neuron_updates=group.n, exponential_ops=group.n)
        if isinstance(group, AdaptiveLIFGroup) and group.adapt_theta:
            group.theta *= np.exp(-dt / group.tau_theta) ** delta
            counter.add(neuron_updates=group.n, exponential_ops=group.n)

    for connection, mu in plan.transmissions:
        # In place: each conductance is a view of the plan's buffer.
        connection.conductance *= mu ** delta
        counter.add(exponential_ops=connection.post.n)

    if decay_traces:
        for connection in network.connections:
            rule = connection.learning_rule
            if rule is None:
                continue
            for trace in (getattr(rule, "pre_trace", None),
                          getattr(rule, "post_trace", None)):
                if trace is None:
                    continue
                trace.values *= np.exp(-dt / trace.tau) ** delta
                counter.add(exponential_ops=trace.n, trace_updates=trace.n)

    counter.add(steps_skipped=int(delta))
