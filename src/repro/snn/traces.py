"""Exponentially decaying spike traces.

Trace-based STDP (used by the baseline, ASP, and SpikeDyn learning rules)
keeps a low-pass-filtered record of recent spiking activity per neuron: a
trace ``x`` is bumped whenever the neuron spikes and decays exponentially
otherwise.  The trace value at the moment of the *other* side's spike
determines the magnitude of the weight change.

A trace does not advance itself: its learning rule decays the pre- and
postsynaptic traces together (both are views of one rule buffer, see
:meth:`repro.learning.base.LearningRule._decay_traces`) and bumps each with
:meth:`SpikeTrace.update` or :meth:`SpikeTrace.bump`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backends import BackendLike, get_backend
from repro.backends.base import store_state
from repro.snn.simulation import OperationCounter
from repro.utils.validation import check_choice, check_positive, check_positive_int


class SpikeTrace:
    """Vector of exponentially decaying spike traces.

    Parameters
    ----------
    n:
        Number of trace elements (one per neuron).
    tau:
        Exponential decay time constant in milliseconds.
    increment:
        Amount added (``mode='add'``) or assigned (``mode='set'``) on a spike.
    mode:
        ``'add'`` accumulates increments (the trace can exceed ``increment``);
        ``'set'`` clamps the trace to ``increment`` on each spike, which is
        the behaviour used by Diehl & Cook style pipelines.
    backend:
        Compute backend executing the bump kernel (and the rule's decay);
        learning rules keep it synchronized with their connection's
        backend.
    """

    def __init__(
        self,
        n: int,
        tau: float = 20.0,
        increment: float = 1.0,
        mode: str = "set",
        backend: BackendLike = None,
    ) -> None:
        self.n = check_positive_int(n, "n")
        self.tau = check_positive(tau, "tau")
        self.increment = float(increment)
        self.mode = check_choice(mode, ("set", "add"), "mode")
        self.backend = get_backend(backend)
        self.values = np.zeros(self.n, dtype=float)
        self._decay_dt: Optional[float] = None
        self._decay = 1.0

    def reset(self) -> None:
        """Zero all trace values."""
        self.values[:] = 0.0

    def decay_factor(self, dt: float) -> float:
        """``exp(-dt / tau)``, evaluated once per timestep size."""
        if dt != self._decay_dt:
            self._decay_dt = dt
            self._decay = np.exp(-dt / self.tau)
        return self._decay

    def update(self, spikes: np.ndarray,
               counter: Optional[OperationCounter] = None) -> None:
        """Bump the traces of the neurons that spiked this timestep."""
        spikes = np.asarray(spikes, dtype=bool)
        if spikes.shape != (self.n,):
            raise ValueError(
                f"spikes must have shape ({self.n},), got {spikes.shape}"
            )
        self.bump(spikes)
        if counter is not None:
            counter.add(trace_updates=int(spikes.sum()))

    def bump(self, spikes: np.ndarray) -> None:
        """:meth:`update` for a caller that has already validated ``spikes``
        and charges the trace work itself: the same kernel, no checks and
        no tallies."""
        store_state(self.values, self.backend.bump_trace(
            self.values, spikes, self.increment, self.mode))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpikeTrace(n={self.n}, tau={self.tau}, mode={self.mode!r})"
