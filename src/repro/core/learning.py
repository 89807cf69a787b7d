"""SpikeDyn's continual and unsupervised learning rule (paper Alg. 2).

The rule combines the four mechanisms of Section III-D:

1. **Adaptive learning rates** — the potentiation factor ``kp`` and the
   depression factor ``kd`` (Eq. 1) scale the trace-STDP update of Eq. 2.
2. **Synaptic weight decay** — weak connections, which represent old and
   insignificant information, are gradually removed so the synapses become
   available for new tasks.
3. **Adaptive membrane threshold potential** — installed on the excitatory
   group by :class:`repro.core.adaptive_threshold.AdaptiveThresholdPolicy`
   (not part of this rule, but part of the same algorithm).
4. **Spurious-update reduction** — weight changes are committed only at
   update-window boundaries: potentiation of the most active postsynaptic
   neuron if at least one postsynaptic spike occurred in the window,
   depression of all synapses otherwise.

Compared to the per-spike-event updates of the baseline and ASP rules, this
drastically reduces the number of weight updates per sample, which is one of
the three sources of SpikeDyn's training-energy savings (together with the
eliminated inhibitory layer and the reduced exponential calculations).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.adaptive_rates import AdaptiveLearningRates
from repro.core.spurious import SpikeAccumulator
from repro.core.weight_decay import SynapticWeightDecay
from repro.learning.base import LearningRule
from repro.snn.simulation import OperationCounter
from repro.snn.synapses import Connection
from repro.utils.validation import check_non_negative, check_positive


class SpikeDynLearningRule(LearningRule):
    """Timestep-gated, activity-modulated STDP (Alg. 2 of the paper).

    Parameters
    ----------
    nu_pre:
        Base learning rate ``eta_pre`` of the depression term in Eq. 2.
    nu_post:
        Base learning rate ``eta_post`` of the potentiation term in Eq. 2.
    spike_threshold:
        Normalizing threshold ``Sp_th`` of the potentiation factor (Eq. 1a).
    update_interval:
        Window length ``t_step`` (ms) over which spikes are accumulated
        before a weight update is committed.
    weight_decay:
        The synaptic weight decay applied between updates; ``None`` disables
        it (used by the ablation benchmarks).
    adaptive_rates:
        When ``False``, ``kp`` and ``kd`` are pinned to 1 (ablation switch).
    gate_updates:
        When ``False``, the rule degenerates to per-timestep updates without
        the window gating (ablation switch for the spurious-update study).
    soft_bounds:
        Use multiplicative soft-bounded updates.
    tau_pre, tau_post, trace_mode:
        Spike-trace parameters (see :class:`repro.learning.base.LearningRule`).

    Notes
    -----
    **Clip elision.**  Every window used to end in a full-matrix clip into
    ``[w_min, w_max]``.  Where the clip provably changes nothing it is
    skipped, so the weights stay bit-identical to always clipping; any
    other case keeps the clip.  The proofs start from one bounds check per
    sample (:meth:`~repro.learning.base.LearningRule.on_sample_start`) that
    finds all weights inside ``[w_min, w_max]``:

    * the weight decay skips its clip when ``w_min <= 0 <= w_max``:
      multiplying by ``1 - fraction`` in ``[0, 1]`` only moves a weight
      towards zero;
    * the depression skips its clip when ``soft_bounds`` holds,
      ``w_min == 0`` and every rate ``d = kd * nu_pre * x_post`` lies in
      ``[0, 1]``: ``w - w * d`` then stays in ``[0, w]``.  It updates the
      whole matrix in one pass, as ``w -= w * d``: a column with ``d == 0``
      subtracts an exact zero;
    * the potentiation keeps its clip of the one updated column: its rate
      is not bounded by 1, and even ``w + r * (w_max - w)`` with ``r <= 1``
      can round past ``w_max``.
    """

    # Window boundaries fire on the timestep clock regardless of activity
    # (a silent window still commits depression and lazy decay), so the
    # event engine must step this rule through silent gaps.
    supports_analytic_silence = False

    def __init__(
        self,
        *,
        nu_pre: float = 1e-4,
        nu_post: float = 1e-2,
        spike_threshold: float = 4.0,
        update_interval: float = 10.0,
        weight_decay: Optional[SynapticWeightDecay] = None,
        adaptive_rates: bool = True,
        gate_updates: bool = True,
        soft_bounds: bool = True,
        tau_pre: float = 20.0,
        tau_post: float = 20.0,
        trace_mode: str = "set",
    ) -> None:
        super().__init__(tau_pre=tau_pre, tau_post=tau_post, trace_mode=trace_mode)
        self.nu_pre = check_non_negative(nu_pre, "nu_pre")
        self.nu_post = check_non_negative(nu_post, "nu_post")
        self.update_interval = check_positive(update_interval, "update_interval")
        self.rates = AdaptiveLearningRates(spike_threshold=spike_threshold)
        self.weight_decay = weight_decay
        self.adaptive_rates = bool(adaptive_rates)
        self.gate_updates = bool(gate_updates)
        self.soft_bounds = bool(soft_bounds)
        self.accumulator: Optional[SpikeAccumulator] = None
        self._steps_in_sample = 0

    # -- internal helpers -----------------------------------------------------

    def _ensure_accumulator(self, connection: Connection) -> SpikeAccumulator:
        if (
            self.accumulator is None
            or self.accumulator.n_pre != connection.pre.n
            or self.accumulator.n_post != connection.post.n
        ):
            self.accumulator = SpikeAccumulator(connection.pre.n, connection.post.n)
        return self.accumulator

    def _steps_per_window(self, dt: float) -> int:
        return max(1, int(round(self.update_interval / dt)))

    def _factors(self) -> tuple:
        """Current (kp, kd) pair, honouring the adaptive-rates ablation switch."""
        if not self.adaptive_rates:
            return 1.0, 1.0
        accumulator = self.accumulator
        kp = self.rates.kp(accumulator.max_post)
        kd = self.rates.kd(accumulator.max_post, accumulator.max_pre)
        return kp, kd

    # -- weight updates (Eq. 2) -----------------------------------------------

    def _potentiate(self, connection: Connection, kp: float,
                    counter: Optional[OperationCounter]) -> None:
        """Potentiation of the most active postsynaptic neuron's synapses."""
        if kp <= 0.0 or self.nu_post <= 0.0:
            return
        target = self.accumulator.most_active_post
        # A view: the update and its clip land in the weights.
        column = connection.weights[:, target]
        delta = kp * self.nu_post * self.pre_trace.values
        if self.soft_bounds:
            delta = delta * (connection.w_max - column)
        column += delta
        np.clip(column, connection.w_min, connection.w_max, out=column)
        if counter is not None:
            counter.add(weight_updates=connection.pre.n)

    def _depress(self, connection: Connection, kd: float,
                 counter: Optional[OperationCounter]) -> None:
        """Depression of every synapse (no postsynaptic spike in the window)."""
        if kd <= 0.0 or self.nu_pre <= 0.0:
            return
        # Row vector of per-column rates.
        delta = kd * self.nu_pre * self.post_trace.values
        weights = connection.weights
        if (self.soft_bounds and connection.w_min == 0.0
                and self._weights_in_bounds(connection)
                and delta.min() >= 0.0 and delta.max() <= 1.0):
            # ``w - w * d`` with ``0 <= d <= 1`` stays in ``[0, w]``, so no
            # clip.  One full pass: a column with ``d == 0`` subtracts an
            # exact zero, cheaper than gathering the others.
            weights -= weights * delta
        else:
            # The soft bound scales the rates by ``w - w_min`` in one
            # scratch matrix instead of two temporaries.
            if self.soft_bounds:
                bounded = weights - connection.w_min
                bounded *= delta
                delta = bounded
            weights -= delta
            connection.clip_weights()
        if counter is not None:
            counter.add(weight_updates=connection.weights.size)

    def _apply_decay(self, connection: Connection, elapsed_ms: float,
                     counter: Optional[OperationCounter]) -> None:
        """Lazily apply the accumulated weight decay over ``elapsed_ms``.

        Alg. 2 applies the decay on every non-boundary timestep; because the
        decay is a linear ODE, accumulating it and applying the exact
        closed-form factor once per window is mathematically equivalent and
        mirrors how an optimized implementation would batch the operation.
        """
        if self.weight_decay is None or not self.weight_decay.enabled:
            return
        self.weight_decay.apply(connection.weights, elapsed_ms, counter)
        # Scaling by ``1 - fraction`` in [0, 1] moves every weight towards
        # zero, so weights in bounds stay there when the bounds bracket 0.
        if not (self._weights_in_bounds(connection)
                and connection.w_min <= 0.0 <= connection.w_max):
            connection.clip_weights()

    # -- LearningRule interface -----------------------------------------------

    def reset(self) -> None:
        super().reset()
        self.accumulator = None

    def on_sample_start(self, connection: Connection) -> None:
        super().on_sample_start(connection)
        self._ensure_accumulator(connection).reset()
        self._steps_in_sample = 0

    def step(self, connection: Connection, dt: float, t_index: int,
             counter: Optional[OperationCounter] = None) -> None:
        """One timestep of Alg. 2.

        Weight updates are charged to ``counter`` as they happen; the trace
        work of the whole presentation is charged once, by
        :meth:`on_sample_end`, from the accumulated spike counts.
        """
        pre_spikes = connection.pre.spikes
        post_spikes = connection.post.spikes
        self._ensure_traces(connection)
        self.pre_trace.advance(pre_spikes, dt)
        self.post_trace.advance(post_spikes, dt)
        self._steps_in_sample += 1
        accumulator = self._ensure_accumulator(connection)
        accumulator.add(pre_spikes, post_spikes)

        steps_per_window = self._steps_per_window(dt) if self.gate_updates else 1
        at_boundary = (t_index + 1) % steps_per_window == 0
        if not at_boundary:
            return

        kp, kd = self._factors()
        if accumulator.post_spiked_in_window:
            self._potentiate(connection, kp, counter)
        else:
            self._depress(connection, kd, counter)
        self._apply_decay(connection, steps_per_window * dt, counter)
        accumulator.close_window()

    def on_sample_end(self, connection: Connection,
                      counter: Optional[OperationCounter] = None) -> None:
        if counter is not None and self._steps_in_sample:
            # Every step decayed every trace element and bumped one element
            # per spike: the spikes the accumulator has summed.
            decayed = self._steps_in_sample * (self.pre_trace.n + self.post_trace.n)
            bumped = int(self.accumulator.pre_counts.sum()
                         + self.accumulator.post_counts.sum())
            counter.add(exponential_ops=decayed, trace_updates=decayed + bumped)
        self._steps_in_sample = 0
        super().on_sample_end(connection, counter)
        if self.accumulator is not None:
            self.accumulator.reset()
