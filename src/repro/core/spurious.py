"""The spike record behind spurious-update reduction (paper Alg. 2, Fig. 7).

The baseline STDP rule updates weights at every spike event, which produces
"spurious updates": weight changes driven by unpredictable spikes from the
random weight initialization, or by neurons that respond to overlapping
features of different classes.  SpikeDyn instead accumulates pre- and
postsynaptic spikes and only commits weight changes at *timestep* (update
window) boundaries: potentiation for the most active postsynaptic neuron when
at least one postsynaptic spike occurred in the window, depression otherwise.

The accumulated counts (``Nsp_pre``, ``Nsp_post`` in the paper's notation)
are the spike counts the engine keeps for every run anyway: the step plan
adds each group's spikes to the run's record before the learning rules step
(:meth:`repro.snn.plan.StepPlan.step`).  A :class:`SpikeRecord` reads the
pre- and postsynaptic vectors of that record and keeps one integer per
window, the postsynaptic total when the window opened, from which "a
postsynaptic spike occurred in this window" follows.  It counts nothing
itself.
"""

from __future__ import annotations

import numpy as np


class SpikeRecord:
    """Read-only view of a presentation's pre-/postsynaptic spike counts.

    Parameters
    ----------
    pre_counts:
        Accumulated presynaptic (input) spike counts, one per neuron; the
        driver adds each step's spikes to it before the rule steps.
    post_counts:
        Accumulated postsynaptic (excitatory) spike counts, likewise.

    Notes
    -----
    The paper's Alg. 2 stores presynaptic counts per (neuron, synapse) pair;
    because every excitatory neuron sees the same input spike train, the
    per-input-neuron vector carries the identical information with ``n_post``
    times less memory.
    """

    __slots__ = ("pre_counts", "post_counts", "_window_opened_at")

    def __init__(self, pre_counts: np.ndarray, post_counts: np.ndarray) -> None:
        self.pre_counts = pre_counts
        self.post_counts = post_counts
        self._window_opened_at = int(post_counts.sum())

    @property
    def max_pre(self) -> int:
        """``maxSp_pre``: largest accumulated presynaptic spike count."""
        return int(self.pre_counts.max())

    @property
    def max_post(self) -> int:
        """``maxSp_post``: largest accumulated postsynaptic spike count."""
        return int(self.post_counts.max())

    @property
    def most_active_post(self) -> int:
        """Index ``m`` of the most active postsynaptic neuron (accumulated)."""
        return int(np.argmax(self.post_counts))

    @property
    def post_spiked_in_window(self) -> bool:
        """Whether any postsynaptic spike occurred in the current window."""
        # Counts only grow, so the window saw a spike iff the total moved.
        return int(self.post_counts.sum()) > self._window_opened_at

    def close_window(self) -> None:
        """Open the next window (called at window boundaries)."""
        self._window_opened_at = int(self.post_counts.sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpikeRecord(n_pre={self.pre_counts.size}, "
            f"n_post={self.post_counts.size}, max_pre={self.max_pre}, "
            f"max_post={self.max_post})"
        )
