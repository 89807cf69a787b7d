"""Explicit registry of the paper-experiment drivers.

Every table/figure driver of the reproduction is declared here as an
:class:`ExperimentSpec` that names the paper artifact, the callable that runs
it, the scale family it belongs to, and the schema of its structured result.
The registry is the single source of truth consumed by

* the CLI (``repro reproduce`` / ``repro run-all``),
* the parallel runner (:mod:`repro.runner`), which shards a run into one
  :class:`~repro.runner.jobs.JobSpec` per registry unit, and
* ``scripts/run_all_experiments.py``.

A driver is any callable ``runner(scale, **overrides)`` returning either a
plain string or an object with a ``to_text()`` rendering.  ``overrides`` must
be JSON-serializable because they are part of the content-addressed job key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments.ablation import run_mechanism_ablation
from repro.experiments.alg1_search import run_model_search_study
from repro.experiments.common import ExperimentScale
from repro.experiments.fig01_motivation import run_motivation_study
from repro.experiments.fig04_architecture import run_architecture_reduction
from repro.experiments.fig05_analytical import run_analytical_validation
from repro.experiments.fig06_sweep import run_decay_theta_sweep
from repro.experiments.fig09_accuracy import (
    run_dynamic_accuracy_comparison,
    run_nondynamic_accuracy_comparison,
)
from repro.experiments.fig10_confusion import run_confusion_study
from repro.experiments.eventstream import run_eventstream_study
from repro.experiments.fig11_energy import run_energy_comparison
from repro.experiments.scenarios import (
    run_class_incremental_scenario,
    run_corrupted_scenario,
    run_drift_scenario,
    run_recurring_scenario,
)
from repro.experiments.table1_gpus import gpu_specification_table
from repro.experiments.table2_latency import run_processing_time_study

#: Scale families used by full-suite runs to pick the right preset per driver.
#: ``accuracy`` drivers run the protocol workloads, ``energy`` drivers the
#: estimation workloads (larger images, few presentations), ``sweep`` drivers
#: the single-network hyperparameter grids, and ``static`` drivers need no
#: simulation at all.
SCALE_FAMILIES: Tuple[str, ...] = ("accuracy", "energy", "sweep", "static")


def render_report(result: Any) -> str:
    """Plain-text rendering of a driver result (a string or ``to_text()``).

    The single place that defines what counts as a renderable result — used
    by :meth:`ExperimentSpec.report` and the runner's worker.
    """
    text = result.to_text() if hasattr(result, "to_text") else result
    if not isinstance(text, str):
        raise TypeError(
            f"driver result of type {type(result).__name__} renders to neither "
            "str nor to_text()"
        )
    return text


@dataclass(frozen=True)
class ExperimentSpec:
    """Declaration of one paper-experiment driver.

    Attributes
    ----------
    name:
        Canonical CLI name (``repro reproduce <name>``).
    artifact:
        Paper artifact the driver reproduces (e.g. ``"Fig. 9(a,b)"``).
    output:
        Report filename stem used by ``repro run-all`` (``<output>.txt``).
    family:
        Scale family, one of :data:`SCALE_FAMILIES`.
    runner:
        ``runner(scale, **overrides)`` returning a string or an object with
        ``to_text()``.
    schema:
        Top-level fields of the structured result object (``()`` for drivers
        that return plain text).
    """

    name: str
    artifact: str
    output: str
    family: str
    runner: Callable[..., Any] = field(repr=False)
    schema: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in SCALE_FAMILIES:
            known = ", ".join(SCALE_FAMILIES)
            raise ValueError(f"unknown scale family {self.family!r}; known: {known}")

    def run(self, scale: ExperimentScale, **overrides: Any) -> Any:
        """Execute the driver and return its structured result."""
        return self.runner(scale, **overrides)

    def report(self, scale: ExperimentScale, **overrides: Any) -> str:
        """Execute the driver and render its plain-text report."""
        return render_report(self.run(scale, **overrides))

    def job_units(self, scale: ExperimentScale) -> List[Dict[str, Any]]:
        """The independent work units this driver shards into.

        Every driver is currently one unit (its internal network-size loop is
        cheap relative to process overhead at reproduction scales), but the
        runner schedules whatever is declared here, so a driver can later
        split per network size or per model without touching the scheduler.
        """
        del scale
        return [{"experiment": self.name}]


def _static_runner(fn: Callable[[], str]) -> Callable[..., str]:
    """Adapt a zero-argument table renderer to the ``runner(scale)`` shape."""

    def runner(scale: ExperimentScale, **overrides: Any) -> str:
        del scale
        return fn(**overrides)

    return runner


#: All paper-experiment drivers, in the paper's artifact order.
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            name="table1",
            artifact="Table I — GPU specifications",
            output="table1_gpu_specs",
            family="static",
            runner=_static_runner(gpu_specification_table),
        ),
        ExperimentSpec(
            name="table2",
            artifact="Table II — processing time on full MNIST",
            output="table2_processing_time",
            family="energy",
            runner=run_processing_time_study,
            schema=("scale", "per_sample_counters", "report"),
        ),
        ExperimentSpec(
            name="fig1",
            artifact="Fig. 1(b,c) — motivational case study",
            output="fig01_motivation",
            family="accuracy",
            runner=run_motivation_study,
            schema=(
                "scale",
                "device",
                "normalized_training_energy",
                "normalized_inference_energy",
                "accuracy_per_task",
            ),
        ),
        ExperimentSpec(
            name="fig4",
            artifact="Fig. 4(b,c,d) — inhibitory-layer elimination",
            output="fig04_arch_reduction",
            family="energy",
            runner=run_architecture_reduction,
            schema=(
                "scale",
                "device",
                "memory_bytes",
                "normalized_inference_energy",
                "accuracy_profiles",
            ),
        ),
        ExperimentSpec(
            name="fig5",
            artifact="Fig. 5(a-e) — analytical-model validation",
            output="fig05_analytical_models",
            family="energy",
            runner=run_analytical_validation,
            schema=(
                "scale",
                "device",
                "rows",
                "search_exploration_seconds",
                "actual_exploration_seconds",
            ),
        ),
        ExperimentSpec(
            name="fig6",
            artifact="Fig. 6 — weight-decay / adaptation-potential sweep",
            output="fig06_decay_theta_sweep",
            family="sweep",
            runner=run_decay_theta_sweep,
            schema=("scale", "points"),
        ),
        ExperimentSpec(
            name="fig9-dynamic",
            artifact="Fig. 9(a,b) — dynamic-environment accuracy",
            output="fig09_dynamic_accuracy",
            family="accuracy",
            runner=run_dynamic_accuracy_comparison,
            schema=("scale", "dynamic"),
        ),
        ExperimentSpec(
            name="fig9-nondynamic",
            artifact="Fig. 9(c) — non-dynamic accuracy",
            output="fig09_nondynamic_accuracy",
            family="accuracy",
            runner=run_nondynamic_accuracy_comparison,
            schema=("scale", "nondynamic"),
        ),
        ExperimentSpec(
            name="fig10",
            artifact="Fig. 10 — confusion matrices",
            output="fig10_confusion",
            family="accuracy",
            runner=run_confusion_study,
            schema=("scale", "protocol_results"),
        ),
        ExperimentSpec(
            name="fig11",
            artifact="Fig. 11 — normalized training/inference energy",
            output="fig11_energy",
            family="energy",
            runner=run_energy_comparison,
            schema=("scale", "normalized_training", "normalized_inference"),
        ),
        ExperimentSpec(
            name="alg1",
            artifact="Alg. 1 — constrained model search",
            output="alg1_model_search",
            family="energy",
            runner=run_model_search_study,
            schema=("scale", "device", "results"),
        ),
        ExperimentSpec(
            name="ablation",
            artifact="Mechanism ablation (design-choice study)",
            output="ablation_mechanisms",
            family="sweep",
            runner=run_mechanism_ablation,
            schema=("scale", "device", "variants"),
        ),
        # Beyond the paper: the event-driven engine study — same network,
        # clock-driven vs event-queue execution on long-horizon DVS-style
        # streams, with exact-equivalence checks and the event-mode
        # operation/energy accounting.
        ExperimentSpec(
            name="eventstream",
            artifact="Event-driven execution (O(events) engine study)",
            output="eventstream_study",
            family="energy",
            runner=run_eventstream_study,
            schema=("scale", "backend", "streams", "equivalence", "event_ops"),
        ),
        # Scenario experiments go beyond the paper's two stock streams: they
        # run the comparison partners through the continual-learning workload
        # catalogue of repro.scenarios and report accuracy-matrix/forgetting
        # metrics (repro.evaluation.continual).
        ExperimentSpec(
            name="scen-classinc",
            artifact="Scenario — class-incremental arrival (two-class tasks)",
            output="scenario_class_incremental",
            family="accuracy",
            runner=run_class_incremental_scenario,
            schema=("scale", "scenario", "results"),
        ),
        ExperimentSpec(
            name="scen-recurring",
            artifact="Scenario — recurring/interleaved tasks",
            output="scenario_recurring",
            family="accuracy",
            runner=run_recurring_scenario,
            schema=("scale", "scenario", "results"),
        ),
        ExperimentSpec(
            name="scen-drift",
            artifact="Scenario — gradual concept drift",
            output="scenario_label_drift",
            family="accuracy",
            runner=run_drift_scenario,
            schema=("scale", "scenario", "results"),
        ),
        ExperimentSpec(
            name="scen-corrupt",
            artifact="Scenario — corrupted inputs (noise + occlusion)",
            output="scenario_corrupted",
            family="accuracy",
            runner=run_corrupted_scenario,
            schema=("scale", "scenario", "results"),
        ),
    )
}


def get_experiment(name: str) -> ExperimentSpec:
    """Look up one driver by CLI name.

    Raises
    ------
    KeyError
        With the list of known names, if ``name`` is not registered.
    """
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiment {name!r}; known experiments: {known}") from None
