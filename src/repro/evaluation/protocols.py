"""Evaluation protocols for dynamic and non-dynamic environments (Section IV).

``run_dynamic_protocol`` reproduces the paper's dynamic-environment setup:
the model is trained on consecutive tasks (classes) without re-feeding
previous tasks, each task with the same number of samples.  After each task
the accuracy on the *most recently learned task* is recorded (Fig. 9 a.1/b.1);
after the whole sequence the per-task accuracy on *previously learned tasks*
and the confusion matrix are recorded (Fig. 9 a.2/b.2 and Fig. 10).

``run_nondynamic_protocol`` reproduces the non-dynamic setup: training samples
with randomly distributed classes, with accuracy measured at a series of
sample-count checkpoints (Fig. 9 c).

Both protocols run every assignment and evaluation pass through the model's
batched inference path (:meth:`~repro.models.base.UnsupervisedDigitClassifier.
respond_batch`), which advances
:data:`~repro.models.base.DEFAULT_EVAL_BATCH_SIZE` samples per vectorized
engine step; training stays sequential so the learned weight trajectory is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.streams import dynamic_task_stream, nondynamic_stream
from repro.evaluation.confusion import confusion_matrix
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

#: Number of digit classes in the (synthetic or real) MNIST task.  Defined
#: here rather than imported from :mod:`repro.models.base` to keep the
#: evaluation package free of model imports (models import the evaluation
#: read-out helpers, not the other way around).
N_CLASSES = 10


@dataclass
class DynamicProtocolResult:
    """Outcome of a dynamic-environment run.

    Attributes
    ----------
    model_name:
        Identifier of the evaluated model.
    class_sequence:
        The order in which the tasks were learned.
    recent_task_accuracy:
        ``{class: accuracy}`` measured on each task immediately after it was
        learned — the paper's "most recently learned task" metric.
    final_task_accuracy:
        ``{class: accuracy}`` measured on every task after the whole sequence
        was learned — the paper's "previously learned tasks" metric.
    confusion:
        Final confusion matrix over the evaluation samples of all tasks.
    """

    model_name: str
    class_sequence: List[int]
    recent_task_accuracy: Dict[int, float] = field(default_factory=dict)
    final_task_accuracy: Dict[int, float] = field(default_factory=dict)
    confusion: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=int))

    @property
    def mean_recent_accuracy(self) -> float:
        """Mean over tasks of the most-recently-learned-task accuracy."""
        return float(np.mean(list(self.recent_task_accuracy.values())))

    @property
    def mean_final_accuracy(self) -> float:
        """Mean over tasks of the final (retained) accuracy."""
        return float(np.mean(list(self.final_task_accuracy.values())))


@dataclass
class NonDynamicProtocolResult:
    """Outcome of a non-dynamic-environment run.

    Attributes
    ----------
    model_name:
        Identifier of the evaluated model.
    checkpoints:
        Cumulative training-sample counts at which accuracy was measured.
    accuracy_at_checkpoint:
        ``{checkpoint: accuracy}`` over all evaluated classes.
    """

    model_name: str
    checkpoints: List[int] = field(default_factory=list)
    accuracy_at_checkpoint: Dict[int, float] = field(default_factory=dict)

    @property
    def final_accuracy(self) -> float:
        """Accuracy at the last checkpoint."""
        if not self.checkpoints:
            raise ValueError("the protocol recorded no checkpoints")
        return self.accuracy_at_checkpoint[self.checkpoints[-1]]


def draw_evaluation_sets(
    source, classes: Sequence[int], samples_per_class: int, rng
) -> Tuple[Dict[int, np.ndarray], Dict[int, np.ndarray]]:
    """Per-class assignment and evaluation image sets (drawn separately).

    Shared by the paper protocols here and the continual-learning harness
    (:mod:`repro.evaluation.continual`) so both evaluate models on
    identically-constructed sets.
    """
    assignment: Dict[int, np.ndarray] = {}
    evaluation: Dict[int, np.ndarray] = {}
    for cls in classes:
        assignment[cls] = source.generate(int(cls), samples_per_class, rng=rng)
        evaluation[cls] = source.generate(int(cls), samples_per_class, rng=rng)
    return assignment, evaluation



def _assign_from_sets(model, assignment: Dict[int, np.ndarray],
                      classes: Sequence[int]) -> None:
    """Re-assign neuron labels using the assignment images of ``classes``.

    The images of every class are concatenated into one list so the model can
    respond to them in vectorized batches rather than class by class.
    """
    images: List[np.ndarray] = []
    labels: List[int] = []
    for cls in classes:
        for image in assignment[cls]:
            images.append(image)
            labels.append(int(cls))
    model.assign_labels(images, labels)


def _accuracy_on_class(model, evaluation: Dict[int, np.ndarray], cls: int) -> float:
    """Accuracy of ``model`` on the evaluation images of one class."""
    images = list(evaluation[cls])
    labels = [int(cls)] * len(images)
    return model.evaluate_accuracy(images, labels)


def run_dynamic_protocol(
    model,
    source,
    *,
    class_sequence: Optional[Sequence[int]] = None,
    samples_per_task: int = 10,
    eval_samples_per_class: int = 5,
    rng: SeedLike = None,
) -> DynamicProtocolResult:
    """Train and evaluate ``model`` in a dynamic environment.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.base.UnsupervisedDigitClassifier`.
    source:
        Digit source providing ``generate(digit, n, rng)``.
    class_sequence:
        Task order; defaults to the source's classes in ascending order.
    samples_per_task:
        Training samples presented for each task.
    eval_samples_per_class:
        Samples per class in both the assignment set and the evaluation set.
    rng:
        Seed or generator controlling sample draws.
    """
    check_positive_int(samples_per_task, "samples_per_task")
    check_positive_int(eval_samples_per_class, "eval_samples_per_class")
    generator = ensure_rng(rng)
    sequence = [int(c) for c in (class_sequence if class_sequence is not None
                                 else source.classes)]
    if not sequence:
        raise ValueError("class_sequence must not be empty")

    assignment, evaluation = draw_evaluation_sets(
        source, sequence, eval_samples_per_class, generator
    )

    result = DynamicProtocolResult(model_name=model.name,
                                   class_sequence=list(sequence))
    seen: List[int] = []
    for cls in sequence:
        stream = dynamic_task_stream(
            source, class_sequence=[cls], samples_per_task=samples_per_task,
            rng=generator,
        )
        model.train_stream(stream)
        seen.append(cls)
        _assign_from_sets(model, assignment, seen)
        result.recent_task_accuracy[cls] = _accuracy_on_class(model, evaluation, cls)

    # Final evaluation over every learned task (retained information).
    _assign_from_sets(model, assignment, sequence)
    all_images: List[np.ndarray] = []
    all_labels: List[int] = []
    for cls in sequence:
        result.final_task_accuracy[cls] = _accuracy_on_class(model, evaluation, cls)
        for image in evaluation[cls]:
            all_images.append(image)
            all_labels.append(int(cls))
    predictions = model.predict(all_images)
    result.confusion = confusion_matrix(
        np.asarray(all_labels), predictions, N_CLASSES
    )
    return result


def run_nondynamic_protocol(
    model,
    source,
    *,
    checkpoints: Sequence[int] = (20, 50, 100),
    classes: Optional[Sequence[int]] = None,
    eval_samples_per_class: int = 5,
    rng: SeedLike = None,
) -> NonDynamicProtocolResult:
    """Train and evaluate ``model`` in a non-dynamic environment.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.base.UnsupervisedDigitClassifier`.
    source:
        Digit source providing ``generate(digit, n, rng)``.
    checkpoints:
        Increasing cumulative sample counts at which accuracy is measured.
    classes:
        Classes included in the stream and the evaluation (defaults to all).
    eval_samples_per_class:
        Samples per class in the assignment and evaluation sets.
    rng:
        Seed or generator controlling sample draws.
    """
    checkpoints = [int(c) for c in checkpoints]
    if not checkpoints:
        raise ValueError("checkpoints must not be empty")
    if any(c <= 0 for c in checkpoints):
        raise ValueError("checkpoints must be positive sample counts")
    if sorted(checkpoints) != checkpoints:
        raise ValueError("checkpoints must be increasing")
    check_positive_int(eval_samples_per_class, "eval_samples_per_class")

    generator = ensure_rng(rng)
    eval_classes = [int(c) for c in (classes if classes is not None
                                     else source.classes)]
    assignment, evaluation = draw_evaluation_sets(
        source, eval_classes, eval_samples_per_class, generator
    )

    eval_images: List[np.ndarray] = []
    eval_labels: List[int] = []
    for cls in eval_classes:
        for image in evaluation[cls]:
            eval_images.append(image)
            eval_labels.append(int(cls))

    result = NonDynamicProtocolResult(model_name=model.name,
                                      checkpoints=list(checkpoints))
    trained = 0
    for checkpoint in checkpoints:
        to_train = checkpoint - trained
        if to_train < 0:
            raise ValueError("checkpoints must be increasing")
        if to_train:
            stream = nondynamic_stream(
                source, n_samples=to_train, classes=eval_classes, rng=generator
            )
            model.train_stream(stream)
            trained = checkpoint
        _assign_from_sets(model, assignment, eval_classes)
        result.accuracy_at_checkpoint[checkpoint] = model.evaluate_accuracy(
            eval_images, eval_labels
        )
    return result
