"""Fig. 6 — weight-decay and adaptation-potential sweep (Section III-D).

The paper sweeps the weight-decay rate ``w_decay`` (no decay, 1e-1 ... 1e-4)
and the adaptation-potential scale (via ``c_theta``) and shows their impact
on the accuracy of learning new tasks in a dynamic scenario: an appropriate
``w_decay`` and a balanced ``theta`` both improve the new-task accuracy.

The driver trains one SpikeDyn model per (``w_decay``, ``c_theta``) pair
under the dynamic protocol and records the mean most-recently-learned-task
accuracy, which is the quantity Fig. 6 plots per task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.learning import SpikeDynLearningRule
from repro.core.weight_decay import SynapticWeightDecay
from repro.evaluation.protocols import DynamicProtocolResult, run_dynamic_protocol
from repro.evaluation.reporting import format_table
from repro.experiments.common import ExperimentScale, build_model, default_digit_source
from repro.utils.rng import ensure_rng

#: Default sweep values, matching the legend of the paper's Fig. 6
#: (``w_decay``: no decay and four magnitudes; theta scale: 1.0 down to 0.1).
DEFAULT_W_DECAY_VALUES: Tuple[Optional[float], ...] = (None, 1e-1, 1e-2, 1e-3, 1e-4)
DEFAULT_THETA_SCALES: Tuple[float, ...] = (1.0, 0.4, 0.3, 0.2, 0.1)


@dataclass
class SweepPoint:
    """One (``w_decay``, ``c_theta``) sweep point and its accuracy outcome."""

    w_decay: Optional[float]
    theta_scale: float
    result: DynamicProtocolResult

    @property
    def label(self) -> str:
        """Legend label in the paper's ``w_decay / theta`` format."""
        decay_text = "no" if self.w_decay is None else f"{self.w_decay:g}"
        return f"{decay_text} / {self.theta_scale:g}"

    @property
    def mean_recent_accuracy(self) -> float:
        """Mean accuracy on the most recently learned task."""
        return self.result.mean_recent_accuracy


@dataclass
class DecayThetaSweepResult:
    """Structured output of the Fig. 6 reproduction.

    Attributes
    ----------
    scale:
        The experiment scale the sweep was run at.
    points:
        One :class:`SweepPoint` per swept configuration, in sweep order.
    """

    scale: ExperimentScale
    points: List[SweepPoint] = field(default_factory=list)

    def best_point(self) -> SweepPoint:
        """The sweep point with the highest mean new-task accuracy."""
        if not self.points:
            raise ValueError("the sweep recorded no points")
        return max(self.points, key=lambda point: point.mean_recent_accuracy)

    def to_text(self) -> str:
        """Render the sweep as a plain-text table (one row per legend entry)."""
        lines = ["Fig. 6 — impact of w_decay and adaptation potential "
                 "on new-task accuracy"]
        rows = []
        for point in self.points:
            per_task = [
                point.result.recent_task_accuracy[task] * 100.0
                for task in point.result.class_sequence
            ]
            rows.append([point.label, point.mean_recent_accuracy * 100.0]
                        + per_task)
        task_headers = [f"digit-{task}_%" for task in
                        (self.points[0].result.class_sequence if self.points else [])]
        lines.append(format_table(["w_decay / theta", "mean_%"] + task_headers, rows))
        return "\n".join(lines)


def run_decay_theta_sweep(
    scale: Optional[ExperimentScale] = None,
    *,
    w_decay_values: Sequence[Optional[float]] = DEFAULT_W_DECAY_VALUES,
    theta_scales: Sequence[float] = DEFAULT_THETA_SCALES,
    full_grid: bool = False,
) -> DecayThetaSweepResult:
    """Reproduce the Fig. 6 sweep.

    Parameters
    ----------
    scale:
        Experiment scale; defaults to :meth:`ExperimentScale.tiny`.
    w_decay_values:
        Weight-decay rates to sweep (``None`` disables the decay).
    theta_scales:
        Adaptation-potential scales (``c_theta``) to sweep.
    full_grid:
        When ``False`` (default, matching the paper's legend) the sweep
        follows the paper's two slices: every ``w_decay`` at the first theta
        scale, then every theta scale at the paper's best ``w_decay``.  When
        ``True`` the full Cartesian grid is swept instead.
    """
    scale = scale if scale is not None else ExperimentScale.tiny()
    if not w_decay_values:
        raise ValueError("w_decay_values must not be empty")
    if not theta_scales:
        raise ValueError("theta_scales must not be empty")

    if full_grid:
        grid = [(decay, theta) for decay in w_decay_values for theta in theta_scales]
    else:
        base_theta = theta_scales[0]
        best_decay = w_decay_values[min(2, len(w_decay_values) - 1)]
        grid = [(decay, base_theta) for decay in w_decay_values]
        grid += [(best_decay, theta) for theta in theta_scales[1:]]

    result = DecayThetaSweepResult(scale=scale)
    largest = max(scale.network_sizes)

    for w_decay, theta_scale in grid:
        config = scale.config(largest, c_theta=theta_scale)
        decay = (SynapticWeightDecay(w_decay, config.tau_decay)
                 if w_decay is not None else None)
        rule = SpikeDynLearningRule(
            nu_pre=config.nu_pre,
            nu_post=config.nu_post,
            spike_threshold=config.spike_threshold,
            update_interval=config.update_interval,
            weight_decay=decay,
            soft_bounds=config.soft_bounds,
            tau_pre=config.tau_pre,
            tau_post=config.tau_post,
        )
        model = build_model("spikedyn", config, learning_rule=rule)
        source = default_digit_source(scale)
        protocol_result = run_dynamic_protocol(
            model,
            source,
            class_sequence=list(scale.class_sequence),
            samples_per_task=scale.samples_per_task,
            eval_samples_per_class=scale.eval_samples_per_class,
            rng=ensure_rng(scale.seed),
        )
        result.points.append(SweepPoint(
            w_decay=w_decay, theta_scale=theta_scale, result=protocol_result
        ))
    return result
