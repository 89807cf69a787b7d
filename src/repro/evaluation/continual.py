"""Continual-learning evaluation: accuracy matrix, forgetting, transfer.

The scenario engine (:mod:`repro.scenarios`) produces streams whose samples
are grouped into training *phases*; this module trains a model phase by
phase and measures the full accuracy matrix ``R`` — ``R[i, j]`` is the
accuracy on task ``j`` after finishing training phase ``i`` — using the
model's batched inference path.  From ``R`` the standard continual-learning
summary metrics follow:

* **average accuracy** — mean of the last row over all tasks;
* **average forgetting** — mean over tasks of the gap between the best
  accuracy a task ever had and its final accuracy (Chaudhry et al.);
* **backward transfer (BWT)** — mean over tasks of final accuracy minus the
  accuracy right after the task was last trained (negative = forgetting);
* **forward transfer (FWT)** — mean over tasks of the accuracy just before
  the task is first trained minus chance level (positive = earlier tasks
  prime later ones);
* **retention curve** — one task's accuracy over the phases after it was
  first trained.

Determinism: all sample draws derive from the ``rng`` handed to
:func:`run_scenario_protocol`, so a fixed seed yields a bit-identical matrix
(asserted by the property tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.evaluation.protocols import N_CLASSES, draw_evaluation_sets
from repro.scenarios.spec import Phase, ScenarioSpec
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int


@dataclass
class ContinualResult:
    """Outcome of one scenario run for one model.

    Attributes
    ----------
    model_name:
        Identifier of the evaluated model.
    scenario:
        Name of the scenario the model was run on.
    phases:
        The scenario's training phases, in stream order.
    task_classes:
        ``{task_id: classes}`` of the distinct tasks (evaluation columns).
    accuracy_matrix:
        ``(n_phases, n_tasks)`` matrix; entry ``[i, j]`` is the accuracy on
        task ``j`` after training phase ``i`` (every task is evaluated after
        every phase, including tasks not yet trained).
    chance_level:
        Chance accuracy used as the forward-transfer reference.
        :func:`run_scenario_protocol` sets it to ``1 / len(spec.classes())``
        — the model can only ever be assigned the scenario's declared
        classes, so guessing uniformly among them is the honest baseline
        (``1 / N_CLASSES`` would inflate FWT on scenarios that use fewer
        than ten classes).
    """

    model_name: str
    scenario: str
    phases: List[Phase] = field(default_factory=list)
    task_classes: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    accuracy_matrix: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0), dtype=float)
    )
    chance_level: float = 1.0 / N_CLASSES

    # -- structure helpers -------------------------------------------------------

    @property
    def task_ids(self) -> List[int]:
        """Distinct task ids in evaluation-column order."""
        return list(self.task_classes)

    def _column(self, task_id: int) -> int:
        try:
            return self.task_ids.index(task_id)
        except ValueError:
            raise KeyError(f"unknown task id {task_id}") from None

    def first_trained_phase(self, task_id: int) -> int:
        """Index of the first phase that trains ``task_id``."""
        for phase in self.phases:
            if phase.task_id == task_id:
                return phase.index
        raise KeyError(f"task {task_id} is never trained in this scenario")

    def last_trained_phase(self, task_id: int) -> int:
        """Index of the last phase that trains ``task_id``."""
        indices = [p.index for p in self.phases if p.task_id == task_id]
        if not indices:
            raise KeyError(f"task {task_id} is never trained in this scenario")
        return indices[-1]

    # -- metrics -----------------------------------------------------------------

    @property
    def average_accuracy(self) -> float:
        """Mean final accuracy over all tasks."""
        return float(self.accuracy_matrix[-1].mean())

    @property
    def average_forgetting(self) -> float:
        """Mean over tasks of (best accuracy ever − final accuracy).

        The maximum is taken over the phases from the task's first training
        up to (excluding) the final phase, so a single-phase scenario has
        zero forgetting by definition.
        """
        gaps: List[float] = []
        for task in self.task_ids:
            column = self.accuracy_matrix[:, self._column(task)]
            start = self.first_trained_phase(task)
            history = column[start:-1]
            if history.size == 0:
                continue
            gaps.append(float(history.max() - column[-1]))
        return float(np.mean(gaps)) if gaps else 0.0

    @property
    def backward_transfer(self) -> float:
        """Mean over tasks of (final accuracy − accuracy when last trained).

        Negative values mean later phases erased earlier tasks (catastrophic
        forgetting); values near zero mean retention.
        """
        deltas: List[float] = []
        last_phase = len(self.phases) - 1
        for task in self.task_ids:
            trained = self.last_trained_phase(task)
            if trained == last_phase:
                continue
            column = self.accuracy_matrix[:, self._column(task)]
            deltas.append(float(column[-1] - column[trained]))
        return float(np.mean(deltas)) if deltas else 0.0

    @property
    def forward_transfer(self) -> float:
        """Mean over tasks of (accuracy just before first training − chance)."""
        deltas: List[float] = []
        for task in self.task_ids:
            first = self.first_trained_phase(task)
            if first == 0:
                continue
            column = self.accuracy_matrix[:, self._column(task)]
            deltas.append(float(column[first - 1] - self.chance_level))
        return float(np.mean(deltas)) if deltas else 0.0

    def retention_curve(self, task_id: int) -> List[float]:
        """Accuracy of one task over the phases from its first training on."""
        column = self.accuracy_matrix[:, self._column(task_id)]
        return [float(v) for v in column[self.first_trained_phase(task_id):]]

    def summary(self) -> Dict[str, float]:
        """The scalar metrics in one dictionary (used by reports and tests)."""
        return {
            "average_accuracy": self.average_accuracy,
            "average_forgetting": self.average_forgetting,
            "backward_transfer": self.backward_transfer,
            "forward_transfer": self.forward_transfer,
        }


def run_scenario_protocol(
    model,
    source,
    spec: ScenarioSpec,
    *,
    eval_samples_per_class: int = 5,
    rng: SeedLike = None,
) -> ContinualResult:
    """Train ``model`` on a scenario phase by phase and fill the matrix.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.base.UnsupervisedDigitClassifier`.
    source:
        Digit source the scenario stream and evaluation sets are drawn from.
    spec:
        The scenario to run (schedule plus transform chain).
    eval_samples_per_class:
        Samples per class in both the assignment set and the evaluation set.
    rng:
        Seed or generator; fixes the stream and every evaluation draw.
    """
    check_positive_int(eval_samples_per_class, "eval_samples_per_class")
    generator = ensure_rng(rng)

    phases = spec.phases()
    tasks = spec.tasks()
    classes = spec.classes()

    # Fixed assignment/evaluation sets shared by every phase: the matrix then
    # measures what the *model* forgets, not evaluation-set noise.
    assignment, evaluation = draw_evaluation_sets(
        source, classes, eval_samples_per_class, generator
    )
    assign_images = [image for cls in classes for image in assignment[cls]]
    assign_labels = [int(cls) for cls in classes for _ in assignment[cls]]
    eval_per_task: Dict[int, Tuple[List[np.ndarray], List[int]]] = {}
    for task_id, task_classes in tasks.items():
        images = [image for cls in task_classes for image in evaluation[cls]]
        labels = [int(cls) for cls in task_classes for _ in evaluation[cls]]
        eval_per_task[task_id] = (images, labels)

    stream = spec.build(source, rng=generator)
    by_phase: Dict[int, List] = {phase.index: [] for phase in phases}
    for sample in stream:
        by_phase[sample.task_index].append(sample)

    matrix = np.zeros((len(phases), len(tasks)), dtype=float)
    task_order = list(tasks)
    for phase in phases:
        model.train_stream(by_phase[phase.index])
        model.assign_labels(assign_images, assign_labels)
        for column, task_id in enumerate(task_order):
            images, labels = eval_per_task[task_id]
            matrix[phase.index, column] = model.evaluate_accuracy(images, labels)

    return ContinualResult(
        model_name=model.name,
        scenario=spec.name,
        phases=phases,
        task_classes=tasks,
        accuracy_matrix=matrix,
        chance_level=1.0 / len(classes),
    )
