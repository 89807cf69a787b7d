"""Adaptive Synaptic Plasticity (ASP) — the state-of-the-art comparator.

ASP (Panda et al., "ASP: Learning to Forget with Adaptive Synaptic Plasticity
in Spiking Neural Networks", IEEE JETCAS 2018) extends trace STDP with two
mechanisms aimed at continual learning:

* **adaptive learning rates** — the potentiation rate of a postsynaptic
  neuron grows with its recent activity, so neurons that respond to the
  currently presented task learn it faster;
* **weight leak ("learning to forget")** — every timestep all weights leak
  exponentially towards a baseline value, with the leak of a neuron's
  incoming weights accelerated by its recent activity, so synapses encoding
  old tasks gradually free up for new ones.

Both mechanisms add exponential computations and per-timestep weight updates
on top of the baseline, which is exactly the energy overhead the SpikeDyn
paper measures in its motivational study (Fig. 1b).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.learning.stdp import PairwiseSTDP
from repro.snn.simulation import OperationCounter
from repro.snn.synapses import Connection
from repro.utils.validation import check_non_negative, check_positive


class ASPLearningRule(PairwiseSTDP):
    """Trace STDP with recency-modulated learning rates and weight leak.

    Parameters
    ----------
    nu_pre, nu_post, tau_pre, tau_post, soft_bounds, trace_mode:
        As in :class:`~repro.learning.stdp.PairwiseSTDP`.
    tau_leak:
        Time constant (ms) of the baseline exponential weight leak.
    leak_activity_gain:
        How strongly a postsynaptic neuron's recent activity accelerates the
        leak of its incoming weights (0 disables the activity modulation).
    tau_activity:
        Time constant (ms) of the slow postsynaptic activity trace used for
        both the adaptive learning rate and the activity-modulated leak.
    learning_rate_gain:
        How strongly recent postsynaptic activity boosts the potentiation
        learning rate.
    w_baseline:
        Weight value towards which the leak pulls every synapse.
    """

    # The weight leak runs every timestep, silent or not, so the event
    # engine must step ASP through silent gaps (overrides the PairwiseSTDP
    # opt-in inherited above).
    supports_analytic_silence = False

    def __init__(
        self,
        *,
        nu_pre: float = 1e-4,
        nu_post: float = 1e-2,
        tau_pre: float = 20.0,
        tau_post: float = 20.0,
        soft_bounds: bool = True,
        trace_mode: str = "set",
        tau_leak: float = 2.0e4,
        leak_activity_gain: float = 1.0,
        tau_activity: float = 1.0e3,
        learning_rate_gain: float = 0.5,
        w_baseline: float = 0.0,
    ) -> None:
        super().__init__(
            nu_pre=nu_pre,
            nu_post=nu_post,
            tau_pre=tau_pre,
            tau_post=tau_post,
            soft_bounds=soft_bounds,
            trace_mode=trace_mode,
        )
        self.tau_leak = check_positive(tau_leak, "tau_leak")
        self.leak_activity_gain = check_non_negative(
            leak_activity_gain, "leak_activity_gain"
        )
        self.tau_activity = check_positive(tau_activity, "tau_activity")
        self.learning_rate_gain = check_non_negative(
            learning_rate_gain, "learning_rate_gain"
        )
        self.w_baseline = check_non_negative(w_baseline, "w_baseline")
        self._activity: Optional[np.ndarray] = None

    # -- internal state ------------------------------------------------------

    def _ensure_activity(self, connection: Connection) -> np.ndarray:
        if self._activity is None or self._activity.shape != (connection.post.n,):
            self._activity = np.zeros(connection.post.n, dtype=float)
        return self._activity

    def reset(self) -> None:
        super().reset()
        self._activity = None

    # -- ASP-specific dynamics ------------------------------------------------

    def _update_activity(self, connection: Connection, dt: float,
                         counter: Optional[OperationCounter]) -> np.ndarray:
        """Slow postsynaptic activity trace (decays between spikes)."""
        activity = self._ensure_activity(connection)
        activity *= np.exp(-dt / self.tau_activity)
        activity += self.spike_rows(connection)[1].astype(float)
        if counter is not None:
            counter.add(exponential_ops=connection.post.n,
                        trace_updates=connection.post.n)
        return activity

    def _apply_leak(self, connection: Connection, dt: float,
                    activity: np.ndarray,
                    counter: Optional[OperationCounter]) -> None:
        """Exponential weight leak, accelerated for recently active neurons."""
        base_decay = dt / self.tau_leak
        per_post_decay = base_decay * (1.0 + self.leak_activity_gain * activity)
        # Clamp so a very active neuron cannot erase its weights in one step.
        per_post_decay = np.clip(per_post_decay, 0.0, 0.5)
        connection.weights -= (
            (connection.weights - self.w_baseline) * per_post_decay[None, :]
        )
        connection.clip_weights()
        if counter is not None:
            counter.add(weight_updates=connection.weights.size,
                        exponential_ops=connection.weights.size)

    def _modulation(self) -> Optional[np.ndarray]:
        """The recency-modulated learning rate's per-neuron factor."""
        if self.learning_rate_gain > 0.0 and self._activity is not None:
            return 1.0 + self.learning_rate_gain * np.tanh(self._activity)
        return None

    def step(self, connection: Connection, dt: float, t_index: int,
             counter: Optional[OperationCounter] = None) -> None:
        activity = self._update_activity(connection, dt, counter)
        super().step(connection, dt, t_index, counter)
        self._apply_leak(connection, dt, activity, counter)
