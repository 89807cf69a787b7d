"""Paper-experiment drivers (one module per table / figure).

Every evaluation artifact of the SpikeDyn paper has a driver module here that
builds the required models, runs the (scaled-down by default) workload, and
returns a structured result object with a ``to_text()`` rendering that prints
the same rows or series the paper reports.  The benchmark harness under
``benchmarks/`` and the ``EXPERIMENTS.md`` record are thin wrappers around
these drivers, so the experiment logic lives in exactly one place.

=====================  =====================================================
Module                 Paper artifact
=====================  =====================================================
``fig01_motivation``   Fig. 1(b,c) — motivational case study
``fig04_architecture`` Fig. 4(b,c,d) — inhibitory-layer elimination
``fig05_analytical``   Fig. 5(a-e) — analytical-model validation
``fig06_sweep``        Fig. 6 — weight-decay / adaptation-potential sweep
``fig09_accuracy``     Fig. 9 — dynamic & non-dynamic accuracy
``fig10_confusion``    Fig. 10 — confusion matrices
``fig11_energy``       Fig. 11 — normalized training/inference energy
``table1_gpus``        Table I — GPU specifications
``table2_latency``     Table II — processing time on full MNIST
``alg1_search``        Alg. 1 — constrained model search
``ablation``           mechanism ablation (design-choice study)
``registry``           explicit :class:`ExperimentSpec` registry of all of
                       the above, consumed by the CLI and ``repro.runner``
=====================  =====================================================
"""

from repro.experiments.common import (
    MODEL_BUILDERS,
    ExperimentScale,
    build_model,
    default_digit_source,
    measure_sample_counters,
)
from repro.experiments.fig01_motivation import MotivationResult, run_motivation_study
from repro.experiments.fig04_architecture import (
    ArchitectureReductionResult,
    run_architecture_reduction,
)
from repro.experiments.fig05_analytical import (
    AnalyticalValidationResult,
    run_analytical_validation,
)
from repro.experiments.fig06_sweep import DecayThetaSweepResult, run_decay_theta_sweep
from repro.experiments.fig09_accuracy import (
    AccuracyComparisonResult,
    NonDynamicComparisonResult,
    run_dynamic_accuracy_comparison,
    run_nondynamic_accuracy_comparison,
)
from repro.experiments.eventstream import (
    EventStreamStudyResult,
    run_eventstream_study,
)
from repro.experiments.fig10_confusion import ConfusionStudyResult, run_confusion_study
from repro.experiments.fig11_energy import EnergyComparisonResult, run_energy_comparison
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentSpec,
    get_experiment,
)
from repro.experiments.table1_gpus import gpu_specification_table
from repro.experiments.table2_latency import ProcessingTimeStudy, run_processing_time_study
from repro.experiments.alg1_search import ModelSearchStudy, run_model_search_study
from repro.experiments.ablation import AblationResult, run_mechanism_ablation

__all__ = [
    "AblationResult",
    "AccuracyComparisonResult",
    "AnalyticalValidationResult",
    "ArchitectureReductionResult",
    "ConfusionStudyResult",
    "DecayThetaSweepResult",
    "EnergyComparisonResult",
    "EventStreamStudyResult",
    "EXPERIMENTS",
    "ExperimentScale",
    "ExperimentSpec",
    "MODEL_BUILDERS",
    "ModelSearchStudy",
    "MotivationResult",
    "NonDynamicComparisonResult",
    "ProcessingTimeStudy",
    "build_model",
    "default_digit_source",
    "get_experiment",
    "gpu_specification_table",
    "measure_sample_counters",
    "run_analytical_validation",
    "run_architecture_reduction",
    "run_confusion_study",
    "run_decay_theta_sweep",
    "run_dynamic_accuracy_comparison",
    "run_energy_comparison",
    "run_eventstream_study",
    "run_mechanism_ablation",
    "run_model_search_study",
    "run_motivation_study",
    "run_nondynamic_accuracy_comparison",
    "run_processing_time_study",
]
