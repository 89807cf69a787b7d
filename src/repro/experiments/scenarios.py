"""Scenario experiments — continual learning beyond the paper's two streams.

The paper evaluates two environments (Section IV): strict task-incremental
("dynamic") and i.i.d. shuffled ("non-dynamic").  The drivers here run the
three comparison partners through the richer workloads of the scenario
catalogue (:data:`repro.scenarios.SCENARIOS`) — class-incremental arrival,
recurring tasks, concept drift, input corruption — and report the full
continual-learning accuracy matrix plus the forgetting/transfer summary
metrics of :mod:`repro.evaluation.continual`.

Each driver follows the registry contract ``runner(scale, **overrides)`` and
is fully deterministic in ``scale.seed``, so scenario runs flow through the
parallel runner's content-addressed result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.evaluation.continual import ContinualResult, run_scenario_protocol
from repro.evaluation.reporting import format_table
from repro.experiments.common import (
    MODEL_ORDER,
    ExperimentScale,
    build_model,
    default_digit_source,
)
from repro.scenarios.spec import ScenarioSpec, get_scenario
from repro.utils.rng import ensure_rng


@dataclass
class ScenarioStudyResult:
    """Structured output of one scenario experiment.

    Attributes
    ----------
    scale:
        The experiment scale the study was run at.
    scenario:
        Catalogue name of the scenario.
    spec:
        The materialized scenario declaration (schedule + transforms).
    results:
        ``{model: ContinualResult}`` at the study's network size.
    n_exc:
        Excitatory-layer size the study ran with (the scale's largest).
    """

    scale: ExperimentScale
    scenario: str
    spec: ScenarioSpec
    results: Dict[str, ContinualResult] = field(default_factory=dict)
    n_exc: int = 0

    def to_text(self) -> str:
        """Render the accuracy matrices and the summary metrics as tables."""
        lines: List[str] = []
        lines.append(f"Scenario {self.scenario!r} — {self.spec.description}")
        schedule = self.spec.schedule
        transforms = ", ".join(t["kind"] for t in self.spec.transforms) or "none"
        lines.append(
            f"schedule: {schedule['kind']}, phases: "
            f"{len(self.spec.phases())}, transforms: {transforms}, "
            f"network: N{self.n_exc}"
        )
        lines.append("")

        task_ids: List[int] = []
        for result in self.results.values():
            task_ids = result.task_ids
            break
        headers = ["model", "phase"] + [f"task-{task}" for task in task_ids]
        for model, result in self.results.items():
            lines.append(f"accuracy matrix of {model!r} [%] "
                         "(row i = after training phase i)")
            rows = []
            for phase in result.phases:
                rows.append(
                    [model, f"{phase.index} (task {phase.task_id})"]
                    + [value * 100.0 for value in result.accuracy_matrix[phase.index]]
                )
            lines.append(format_table(headers, rows))
            lines.append("")

        lines.append("continual-learning summary "
                     "(accuracies and transfers in percentage points)")
        rows = []
        for model, result in self.results.items():
            summary = result.summary()
            rows.append([
                model,
                summary["average_accuracy"] * 100.0,
                summary["average_forgetting"] * 100.0,
                summary["backward_transfer"] * 100.0,
                summary["forward_transfer"] * 100.0,
            ])
        lines.append(format_table(
            ["model", "avg_accuracy", "avg_forgetting", "bwt", "fwt"], rows
        ))
        return "\n".join(lines).rstrip()


def run_scenario_study(
    scale: Optional[ExperimentScale] = None,
    *,
    scenario: str = "class-incremental",
    models: Sequence[str] = MODEL_ORDER,
) -> ScenarioStudyResult:
    """Run one catalogue scenario for every comparison partner.

    The study runs at the scale's largest network size (the scenario axis
    varies the *workload*, not the architecture — the architecture axis is
    Fig. 9's job).

    Parameters
    ----------
    scale:
        Experiment scale; defaults to :meth:`ExperimentScale.tiny`.
    scenario:
        Catalogue name (see :func:`repro.scenarios.scenario_names`).
    models:
        Which comparison partners to evaluate (default: all three).
    """
    scale = scale if scale is not None else ExperimentScale.tiny()
    spec = get_scenario(scenario, scale)
    n_exc = max(scale.network_sizes)

    result = ScenarioStudyResult(
        scale=scale, scenario=scenario, spec=spec, n_exc=n_exc
    )
    for model_name in models:
        model = build_model(model_name, scale.config(n_exc))
        source = default_digit_source(scale)
        result.results[model_name] = run_scenario_protocol(
            model,
            source,
            spec,
            eval_samples_per_class=scale.eval_samples_per_class,
            rng=ensure_rng(scale.seed),
        )
    return result


def run_class_incremental_scenario(
    scale: Optional[ExperimentScale] = None, **overrides
) -> ScenarioStudyResult:
    """Class-incremental arrival with two-class tasks."""
    return run_scenario_study(scale, scenario="class-incremental", **overrides)


def run_recurring_scenario(
    scale: Optional[ExperimentScale] = None, **overrides
) -> ScenarioStudyResult:
    """Recurring/interleaved single-class tasks over two cycles."""
    return run_scenario_study(scale, scenario="recurring", **overrides)


def run_drift_scenario(
    scale: Optional[ExperimentScale] = None, **overrides
) -> ScenarioStudyResult:
    """Gradual concept drift from the first class to the last."""
    return run_scenario_study(scale, scenario="label-drift", **overrides)


def run_corrupted_scenario(
    scale: Optional[ExperimentScale] = None, **overrides
) -> ScenarioStudyResult:
    """Class-incremental arrival under Gaussian noise and occlusion."""
    return run_scenario_study(scale, scenario="corrupted", **overrides)
