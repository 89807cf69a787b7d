"""Pair-based trace STDP (the Diehl & Cook 2015 baseline rule).

Weight changes are applied at *every* spike event:

* when a postsynaptic neuron fires, its incoming weights are potentiated in
  proportion to the presynaptic trace (``+ nu_post * x_pre``), optionally
  scaled by the soft bound ``(w_max - w)``;
* when a presynaptic neuron fires, its outgoing weights are depressed in
  proportion to the postsynaptic trace (``- nu_pre * x_post``).

The per-spike-event nature of these updates is exactly what the SpikeDyn
paper identifies as the source of "spurious updates" (Section III-D); the
baseline keeps it to remain faithful to the original pipeline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.learning.base import LearningRule
from repro.snn.simulation import OperationCounter
from repro.snn.synapses import Connection
from repro.utils.validation import check_non_negative


class PairwiseSTDP(LearningRule):
    """Classic pair-based STDP with exponential spike traces.

    Parameters
    ----------
    nu_pre:
        Learning rate of the depression applied on presynaptic spikes.
    nu_post:
        Learning rate of the potentiation applied on postsynaptic spikes.
    tau_pre, tau_post:
        Trace time constants in milliseconds.
    soft_bounds:
        When ``True``, potentiation is scaled by ``(w_max - w)`` and
        depression by ``(w - w_min)``, keeping weights away from the hard
        bounds (the multiplicative variant used by Diehl & Cook).
    trace_mode:
        Spike-trace update mode (``'set'`` or ``'add'``).
    """

    # A spike-free timestep touches nothing but the trace decay (both weight
    # branches below gate on spikes), so the event engine may advance the
    # traces analytically across provably silent gaps.
    supports_analytic_silence = True

    def __init__(
        self,
        *,
        nu_pre: float = 1e-4,
        nu_post: float = 1e-2,
        tau_pre: float = 20.0,
        tau_post: float = 20.0,
        soft_bounds: bool = True,
        trace_mode: str = "set",
    ) -> None:
        super().__init__(tau_pre=tau_pre, tau_post=tau_post, trace_mode=trace_mode)
        self.nu_pre = check_non_negative(nu_pre, "nu_pre")
        self.nu_post = check_non_negative(nu_post, "nu_post")
        self.soft_bounds = bool(soft_bounds)

    # -- weight updates ------------------------------------------------------

    def _modulation(self) -> Optional[np.ndarray]:
        """Per-postsynaptic-neuron factor on the potentiation (``None``: 1)."""
        return None

    def _potentiation(self, connection: Connection,
                      post_spikes: np.ndarray) -> int:
        """Potentiate the spiking postsynaptic columns; returns the update count."""
        return connection.backend.stdp_potentiation(
            self.pre_trace.values,
            post_spikes,
            connection.weights,
            nu=self.nu_post,
            w_min=connection.w_min,
            w_max=connection.w_max,
            soft_bounds=self.soft_bounds,
            modulation=self._modulation(),
        )

    def _depression(self, connection: Connection,
                    pre_spikes: np.ndarray) -> int:
        """Depress the spiking presynaptic rows; returns the update count."""
        return connection.backend.stdp_depression(
            pre_spikes,
            self.post_trace.values,
            connection.weights,
            nu=self.nu_pre,
            w_min=connection.w_min,
            w_max=connection.w_max,
            soft_bounds=self.soft_bounds,
        )

    def _commit(self, connection: Connection, updates: int,
                counter: Optional[OperationCounter]) -> None:
        """Finish one kernel update: the kernels clip only what they touch,
        so weights that started the sample out of bounds get the full clip
        (clipping twice equals clipping once)."""
        if not self._weights_in_bounds(connection):
            connection.clip_weights()
        if counter is not None:
            counter.add(weight_updates=updates)

    def step(self, connection: Connection, dt: float, t_index: int,
             counter: Optional[OperationCounter] = None) -> None:
        self._update_traces(connection, dt, counter)

        pre_spikes = connection.pre.spikes
        post_spikes = connection.post.spikes

        # count_nonzero is ~3x cheaper than any() on small bool arrays.
        if np.count_nonzero(post_spikes) and self.nu_post > 0.0:
            self._commit(connection, self._potentiation(connection, post_spikes),
                         counter)
        if np.count_nonzero(pre_spikes) and self.nu_pre > 0.0:
            self._commit(connection, self._depression(connection, pre_spikes),
                         counter)
