"""Spike accumulation for spurious-update reduction (paper Alg. 2, Fig. 7).

The baseline STDP rule updates weights at every spike event, which produces
"spurious updates": weight changes driven by unpredictable spikes from the
random weight initialization, or by neurons that respond to overlapping
features of different classes.  SpikeDyn instead accumulates pre- and
postsynaptic spikes and only commits weight changes at *timestep* (update
window) boundaries: potentiation for the most active postsynaptic neuron when
at least one postsynaptic spike occurred in the window, depression otherwise.

The :class:`SpikeAccumulator` keeps the accumulated counts (``Nsp_pre``,
``Nsp_post`` in the paper's notation) over a sample presentation, plus the
per-window postsynaptic activity needed to decide between potentiation and
depression.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive_int


class SpikeAccumulator:
    """Accumulates pre-/postsynaptic spike counts over a sample presentation.

    Parameters
    ----------
    n_pre:
        Number of presynaptic (input) neurons.
    n_post:
        Number of postsynaptic (excitatory) neurons.

    Notes
    -----
    The paper's Alg. 2 stores presynaptic counts per (neuron, synapse) pair;
    because every excitatory neuron sees the same input spike train, the
    per-input-neuron vector kept here carries the identical information with
    ``n_post`` times less memory.
    """

    def __init__(self, n_pre: int, n_post: int) -> None:
        self.n_pre = check_positive_int(n_pre, "n_pre")
        self.n_post = check_positive_int(n_post, "n_post")
        self.pre_counts = np.zeros(self.n_pre, dtype=np.int64)
        self.post_counts = np.zeros(self.n_post, dtype=np.int64)
        self.window_post_counts = np.zeros(self.n_post, dtype=np.int64)

    # -- updates -------------------------------------------------------------

    def update(self, pre_spikes: np.ndarray, post_spikes: np.ndarray) -> None:
        """Add one timestep's spikes to the accumulated counts."""
        pre_spikes = np.asarray(pre_spikes, dtype=bool)
        post_spikes = np.asarray(post_spikes, dtype=bool)
        if pre_spikes.shape != (self.n_pre,):
            raise ValueError(
                f"pre_spikes must have shape ({self.n_pre},), got {pre_spikes.shape}"
            )
        if post_spikes.shape != (self.n_post,):
            raise ValueError(
                f"post_spikes must have shape ({self.n_post},), got {post_spikes.shape}"
            )
        self.add(pre_spikes, post_spikes)

    def add(self, pre_spikes: np.ndarray, post_spikes: np.ndarray) -> None:
        """:meth:`update` for spike vectors already known to be boolean and
        correctly shaped (the learning rule's per-timestep path)."""
        self.pre_counts += pre_spikes
        self.post_counts += post_spikes
        self.window_post_counts += post_spikes

    def close_window(self) -> None:
        """Reset the per-window postsynaptic counts (called at boundaries)."""
        self.window_post_counts[:] = 0

    def reset(self) -> None:
        """Clear all accumulated counts (called at sample boundaries)."""
        self.pre_counts[:] = 0
        self.post_counts[:] = 0
        self.window_post_counts[:] = 0

    # -- statistics -----------------------------------------------------------

    @property
    def max_pre(self) -> int:
        """``maxSp_pre``: largest accumulated presynaptic spike count."""
        return int(self.pre_counts.max())

    @property
    def max_post(self) -> int:
        """``maxSp_post``: largest accumulated postsynaptic spike count."""
        return int(self.post_counts.max())

    @property
    def post_spiked_in_window(self) -> bool:
        """Whether any postsynaptic spike occurred in the current window."""
        return bool(self.window_post_counts.any())

    @property
    def most_active_post(self) -> int:
        """Index ``m`` of the most active postsynaptic neuron (accumulated)."""
        return int(np.argmax(self.post_counts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpikeAccumulator(n_pre={self.n_pre}, n_post={self.n_post}, "
            f"max_pre={self.max_pre}, max_post={self.max_post})"
        )
