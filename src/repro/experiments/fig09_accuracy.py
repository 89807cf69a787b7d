"""Fig. 9 — classification accuracy in dynamic and non-dynamic environments.

Three panels are reproduced:

* Fig. 9(a.1)/(b.1): accuracy on the *most recently learned* task after each
  task change, for N200 / N400 — the "learning new tasks" capability;
* Fig. 9(a.2)/(b.2): accuracy on every *previously learned* task after the
  whole sequence, for N200 / N400 — the "retaining old information"
  capability;
* Fig. 9(c.1)/(c.2): accuracy as a function of the number of training samples
  in the non-dynamic (randomly ordered) setting.

All three comparison partners (baseline, ASP, SpikeDyn) are evaluated with
identical streams, assignment sets, and evaluation sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.evaluation.protocols import (
    DynamicProtocolResult,
    NonDynamicProtocolResult,
    run_dynamic_protocol,
    run_nondynamic_protocol,
)
from repro.evaluation.reporting import format_table
from repro.experiments.common import (
    MODEL_ORDER,
    ExperimentScale,
    build_model,
    default_digit_source,
)
from repro.utils.rng import ensure_rng


@dataclass
class AccuracyComparisonResult:
    """Structured output of the Fig. 9(a,b) dynamic-environment panels.

    Attributes
    ----------
    scale:
        The experiment scale the comparison was run at.
    dynamic:
        ``{network_label: {model: DynamicProtocolResult}}``.
    """

    scale: ExperimentScale
    dynamic: Dict[str, Dict[str, DynamicProtocolResult]] = field(default_factory=dict)

    def recent_accuracy(self, network_label: str, model: str) -> float:
        """Mean most-recently-learned-task accuracy of one model."""
        return self.dynamic[network_label][model].mean_recent_accuracy

    def final_accuracy(self, network_label: str, model: str) -> float:
        """Mean previously-learned-task accuracy of one model."""
        return self.dynamic[network_label][model].mean_final_accuracy

    def improvement_over(self, network_label: str, reference: str,
                         candidate: str = "spikedyn") -> Dict[str, float]:
        """Accuracy improvement of ``candidate`` over ``reference`` in points.

        Returns a dictionary with ``recent`` and ``final`` percentage-point
        improvements, mirroring how the paper reports its accuracy gains.
        """
        return {
            "recent": (self.recent_accuracy(network_label, candidate)
                       - self.recent_accuracy(network_label, reference)) * 100.0,
            "final": (self.final_accuracy(network_label, candidate)
                      - self.final_accuracy(network_label, reference)) * 100.0,
        }

    def to_text(self) -> str:
        """Render the dynamic-environment panels as plain-text tables."""
        lines: List[str] = []
        for label, per_model in self.dynamic.items():
            lines.append(f"Fig. 9 ({label}) — most recently learned task accuracy [%]")
            sequence = next(iter(per_model.values())).class_sequence
            rows = []
            for model in per_model:
                rows.append([model] + [
                    per_model[model].recent_task_accuracy[task] * 100.0
                    for task in sequence
                ])
            headers = ["model"] + [f"digit-{task}" for task in sequence]
            lines.append(format_table(headers, rows))

            lines.append("")
            lines.append(f"Fig. 9 ({label}) — previously learned task accuracy [%]")
            rows = []
            for model in per_model:
                rows.append([model] + [
                    per_model[model].final_task_accuracy[task] * 100.0
                    for task in sequence
                ])
            lines.append(format_table(headers, rows))
            lines.append("")
        return "\n".join(lines).rstrip()


@dataclass
class NonDynamicComparisonResult:
    """Structured output of the Fig. 9(c) non-dynamic panels.

    Attributes
    ----------
    scale:
        The experiment scale the comparison was run at.
    nondynamic:
        ``{network_label: {model: NonDynamicProtocolResult}}``.
    """

    scale: ExperimentScale
    nondynamic: Dict[str, Dict[str, NonDynamicProtocolResult]] = field(default_factory=dict)

    def final_accuracy(self, network_label: str, model: str) -> float:
        """Accuracy of one model at the last training-sample checkpoint."""
        return self.nondynamic[network_label][model].final_accuracy

    def to_text(self) -> str:
        """Render the non-dynamic panels as plain-text tables."""
        lines: List[str] = []
        for label, per_model in self.nondynamic.items():
            lines.append(
                f"Fig. 9(c) ({label}) — accuracy vs. number of training samples [%]"
            )
            checkpoints = next(iter(per_model.values())).checkpoints
            rows = []
            for model in per_model:
                rows.append([model] + [
                    per_model[model].accuracy_at_checkpoint[checkpoint] * 100.0
                    for checkpoint in checkpoints
                ])
            headers = ["model"] + [str(checkpoint) for checkpoint in checkpoints]
            lines.append(format_table(headers, rows))
            lines.append("")
        return "\n".join(lines).rstrip()


def run_dynamic_accuracy_comparison(
    scale: Optional[ExperimentScale] = None,
    *,
    models: Sequence[str] = MODEL_ORDER,
) -> AccuracyComparisonResult:
    """Reproduce the dynamic-environment accuracy comparison of Fig. 9(a,b).

    Parameters
    ----------
    scale:
        Experiment scale; defaults to :meth:`ExperimentScale.tiny`.
    models:
        Which comparison partners to evaluate (default: all three).
    """
    scale = scale if scale is not None else ExperimentScale.tiny()
    result = AccuracyComparisonResult(scale=scale)

    for n_exc, label in zip(scale.network_sizes, scale.network_labels):
        result.dynamic[label] = {}
        for model_name in models:
            model = build_model(model_name, scale.config(n_exc))
            source = default_digit_source(scale)
            result.dynamic[label][model_name] = run_dynamic_protocol(
                model,
                source,
                class_sequence=list(scale.class_sequence),
                samples_per_task=scale.samples_per_task,
                eval_samples_per_class=scale.eval_samples_per_class,
                rng=ensure_rng(scale.seed),
            )
    return result


def run_nondynamic_accuracy_comparison(
    scale: Optional[ExperimentScale] = None,
    *,
    models: Sequence[str] = MODEL_ORDER,
) -> NonDynamicComparisonResult:
    """Reproduce the non-dynamic accuracy comparison of Fig. 9(c).

    Parameters
    ----------
    scale:
        Experiment scale; defaults to :meth:`ExperimentScale.tiny`.
    models:
        Which comparison partners to evaluate (default: all three).
    """
    scale = scale if scale is not None else ExperimentScale.tiny()
    result = NonDynamicComparisonResult(scale=scale)

    classes = list(scale.class_sequence)
    for n_exc, label in zip(scale.network_sizes, scale.network_labels):
        result.nondynamic[label] = {}
        for model_name in models:
            model = build_model(model_name, scale.config(n_exc))
            source = default_digit_source(scale)
            result.nondynamic[label][model_name] = run_nondynamic_protocol(
                model,
                source,
                checkpoints=list(scale.nondynamic_checkpoints),
                classes=classes,
                eval_samples_per_class=scale.eval_samples_per_class,
                rng=ensure_rng(scale.seed),
            )
    return result
