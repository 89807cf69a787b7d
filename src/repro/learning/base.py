"""Base class shared by all learning rules.

A learning rule is attached to a plastic :class:`~repro.snn.synapses.Connection`
and driven by the network once per timestep.  The rule owns its own pre- and
postsynaptic spike traces so that the connection object stays a passive
weight container.  Both traces are views of one buffer, so each step decays
them with one backend call and a per-element factor vector.

Learning is sequential: a network steps the rules in a run of one sample,
whose ``(1, n)`` spikes every rule reads as ``(n,)`` rows through
:meth:`LearningRule.spike_rows`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.backends.base import store_state
from repro.snn.simulation import OperationCounter
from repro.snn.synapses import Connection
from repro.snn.traces import SpikeTrace
from repro.utils.validation import check_positive


class LearningRule:
    """Abstract learning rule with lazily initialized spike traces.

    Parameters
    ----------
    tau_pre, tau_post:
        Time constants (ms) of the presynaptic and postsynaptic traces.
    trace_mode:
        ``'set'`` or ``'add'`` — see :class:`~repro.snn.traces.SpikeTrace`.
    """

    #: Whether a run of input-silent, spike-free timesteps leaves the rule's
    #: weights untouched and only decays its traces — the condition under
    #: which :meth:`repro.snn.network.Network.run_events` may advance the
    #: traces analytically instead of stepping the rule.  Defaults to
    #: ``False`` (rules that act on a timer or every step, like window
    #: boundaries or weight leak, must be stepped); rules whose silent
    #: steps are pure trace decay opt in.
    supports_analytic_silence: bool = False

    def __init__(self, *, tau_pre: float = 20.0, tau_post: float = 20.0,
                 trace_mode: str = "set") -> None:
        self.tau_pre = check_positive(tau_pre, "tau_pre")
        self.tau_post = check_positive(tau_post, "tau_post")
        self.trace_mode = trace_mode
        self.pre_trace: Optional[SpikeTrace] = None
        self.post_trace: Optional[SpikeTrace] = None
        # The buffer both traces' values are views of, and its per-element
        # decay factors for one timestep size.
        self._traces: Optional[np.ndarray] = None
        self._trace_decays: Optional[np.ndarray] = None
        self._trace_dt: Optional[float] = None
        # The weight matrix found inside [w_min, w_max] at sample start.
        self._bounded_weights: Optional[np.ndarray] = None

    # -- trace management ---------------------------------------------------

    def _ensure_traces(self, connection: Connection) -> None:
        """Create the spike traces on first use (sizes come from the connection)."""
        if self.pre_trace is None or self.pre_trace.n != connection.pre.n:
            self.pre_trace = SpikeTrace(connection.pre.n, tau=self.tau_pre,
                                        mode=self.trace_mode,
                                        backend=connection.backend)
        if self.post_trace is None or self.post_trace.n != connection.post.n:
            self.post_trace = SpikeTrace(connection.post.n, tau=self.tau_post,
                                         mode=self.trace_mode,
                                         backend=connection.backend)
        # Follow backend switches (e.g. Network.set_backend after traces
        # were lazily created).
        self.pre_trace.backend = connection.backend
        self.post_trace.backend = connection.backend
        traces = self._traces
        if (traces is None or self.pre_trace.values.base is not traces
                or self.post_trace.values.base is not traces):
            self._bind_traces()

    def _bind_traces(self) -> None:
        """Make both traces' values views of one buffer (values kept)."""
        pre, post = self.pre_trace, self.post_trace
        traces = np.concatenate((pre.values, post.values), axis=-1)
        pre.values = traces[..., :pre.n]
        post.values = traces[..., pre.n:]
        self._traces = traces
        self._trace_dt = None

    def _decay_traces(self, dt: float,
                      counter: Optional[OperationCounter] = None) -> None:
        """One timestep of decay for both traces, in one backend call.

        Each element is multiplied by its own trace's ``exp(-dt / tau)``,
        the same IEEE operation as decaying each trace by its scalar.
        """
        if dt != self._trace_dt:
            pre, post = self.pre_trace, self.post_trace
            self._trace_decays = np.concatenate(
                (np.full(pre.n, pre.decay_factor(dt)),
                 np.full(post.n, post.decay_factor(dt))))
            self._trace_dt = dt
        traces = self._traces
        store_state(traces, self.pre_trace.backend.decay_state(
            traces, self._trace_decays))
        if counter is not None:
            counter.add(exponential_ops=traces.size, trace_updates=traces.size)

    @staticmethod
    def spike_rows(connection: Connection) -> tuple:
        """``connection``'s pre- and postsynaptic spikes as ``(n,)`` rows.

        A rule steps in a run of one sample and reads its ``(1, n)`` spikes
        as views; spikes a caller set as ``(n,)`` come back as they are.
        The reshape raises for a larger batch rather than mix its samples.
        """
        return (connection.pre.spikes.reshape(connection.pre.n),
                connection.post.spikes.reshape(connection.post.n))

    def _update_traces(self, connection: Connection, dt: float,
                       counter: Optional[OperationCounter]) -> tuple:
        """Decay and bump both traces from the current spikes; returns
        them as :meth:`spike_rows`."""
        self._ensure_traces(connection)
        self._decay_traces(dt, counter)
        pre_spikes, post_spikes = self.spike_rows(connection)
        self.pre_trace.update(pre_spikes, counter)
        self.post_trace.update(post_spikes, counter)
        return pre_spikes, post_spikes

    def reset(self) -> None:
        """Clear all rule-internal state (traces and spike records)."""
        if self.pre_trace is not None:
            self.pre_trace.reset()
        if self.post_trace is not None:
            self.post_trace.reset()

    # -- hooks driven by the network ----------------------------------------

    def _weights_in_bounds(self, connection: Connection) -> bool:
        """Whether ``connection``'s weights are known to lie in
        ``[w_min, w_max]``, so a full-matrix clip would change nothing.

        :meth:`on_sample_start` checks the bounds once per sample; every
        weight update of a rule keeps them (it clips what it touches, or
        skips a clip only where the bounds provably hold), so the answer
        stays valid for the rest of the sample.  It is ``False`` outside a
        sample, for weights that started it out of bounds and for a weight
        array replaced since the check, which restores every full clip.
        """
        return self._bounded_weights is connection.weights

    def on_sample_start(self, connection: Connection,
                        counts: Optional[Dict[str, np.ndarray]] = None) -> None:
        """Called before a sample presentation begins.

        ``counts`` is the run's spike record, ``{group name: counts}``, to
        which the driver adds every group's spikes of a step before the
        rule steps (:class:`~repro.snn.network.Network` hands over its step
        plan's counts).  Rules that need accumulated spike counts read them
        there instead of counting again.
        """
        self._ensure_traces(connection)
        self.pre_trace.reset()
        self.post_trace.reset()
        weights = connection.weights
        in_bounds = weights.min() >= connection.w_min and weights.max() <= connection.w_max
        self._bounded_weights = weights if in_bounds else None

    def step(self, connection: Connection, dt: float, t_index: int,
             counter: Optional[OperationCounter] = None) -> None:
        """Called once per timestep while learning is enabled."""
        raise NotImplementedError

    def on_sample_end(self, connection: Connection,
                      counter: Optional[OperationCounter] = None) -> None:
        """Called after a sample presentation ends (weight normalization)."""
        self._bounded_weights = None
        connection.normalize(counter)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
