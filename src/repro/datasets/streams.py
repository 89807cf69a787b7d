"""Task streams for dynamic and non-dynamic environments (paper Section IV).

*Dynamic environments* feed the network consecutive task (class) changes —
first a stream of digit-0 samples, then digit-1, and so on — without ever
re-feeding previous tasks, each task contributing the same number of samples.
*Non-dynamic environments* feed samples whose classes are randomly
distributed.

Both stream builders operate on a *digit source*: any object exposing
``generate(digit, n, rng=None) -> (n, size, size) array`` and a ``classes``
attribute, such as :class:`~repro.datasets.synthetic_mnist.SyntheticDigits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

#: One task of a task schedule: a single class or a group of classes that
#: arrive together (see :func:`task_schedule_stream`).
TaskClasses = Union[int, Sequence[int]]


@dataclass
class StreamSample:
    """One element of a task stream.

    Attributes
    ----------
    image:
        The 2-D intensity image.
    label:
        The ground-truth class of the image.
    task_index:
        Position of the sample's task within the stream's task sequence
        (every sample of a non-dynamic stream has task index 0).
    """

    image: np.ndarray
    label: int
    task_index: int


def dynamic_task_stream(
    source,
    *,
    class_sequence: Optional[Sequence[int]] = None,
    samples_per_task: int = 10,
    rng: SeedLike = None,
) -> List[StreamSample]:
    """Build a dynamic-environment stream of consecutive task changes.

    Parameters
    ----------
    source:
        Digit source (``generate(digit, n, rng)`` plus ``classes``).
    class_sequence:
        Order in which tasks are presented; defaults to the source's classes
        in ascending order (digit-0 first, as in the paper's case study).
    samples_per_task:
        Number of samples presented for each task (equal for every task).
    rng:
        Seed or generator for the image draws.
    """
    check_positive_int(samples_per_task, "samples_per_task")
    generator = ensure_rng(rng)
    sequence = list(source.classes if class_sequence is None else class_sequence)
    if not sequence:
        raise ValueError(
            "the task sequence is empty: pass a non-empty class_sequence or "
            "use a digit source that serves at least one class"
        )

    stream: List[StreamSample] = []
    for task_index, digit in enumerate(sequence):
        images = source.generate(int(digit), samples_per_task, rng=generator)
        for image in images:
            stream.append(StreamSample(image=image, label=int(digit),
                                       task_index=task_index))
    return stream


def normalize_task_schedule(tasks: Sequence[TaskClasses]) -> List[Tuple[int, ...]]:
    """Canonical form of a task schedule: one class tuple per task.

    Accepts a mixture of bare class integers and class groups, so
    ``[0, (1, 2), 3]`` describes three tasks where the middle task presents
    classes 1 and 2 together.  Raises a clear :class:`ValueError` for an
    empty schedule or an empty task instead of failing later with an
    ``IndexError`` deep inside the stream builder.
    """
    schedule = list(tasks)
    if not schedule:
        raise ValueError(
            "the task schedule is empty: a scenario needs at least one task"
        )
    normalized: List[Tuple[int, ...]] = []
    for position, task in enumerate(schedule):
        classes = (int(task),) if np.isscalar(task) else tuple(int(c) for c in task)
        if not classes:
            raise ValueError(
                f"task {position} of the schedule has no classes; every task "
                "must present at least one class"
            )
        normalized.append(classes)
    return normalized


def task_schedule_stream(
    source,
    tasks: Sequence[TaskClasses],
    *,
    samples_per_task: int = 10,
    rng: SeedLike = None,
) -> List[StreamSample]:
    """Build a stream from an explicit task schedule (possibly multi-class).

    Generalizes :func:`dynamic_task_stream`: each task is a *group* of
    classes presented together, so ``tasks=[(0, 1), (2, 3)]`` yields a
    class-incremental stream with two-class tasks.  Within a task the class
    of every sample is drawn uniformly from the task's classes, so
    multi-class tasks are internally shuffled (single-class tasks degenerate
    to the paper's consecutive task changes).

    Parameters
    ----------
    source:
        Digit source (``generate(digit, n, rng)`` plus ``classes``).
    tasks:
        Task schedule; each entry is a class or a sequence of classes.
        Tasks may repeat (recurring tasks get fresh ``task_index`` values
        per occurrence — the index identifies the *position* in the
        schedule, mirroring :func:`dynamic_task_stream`).
    samples_per_task:
        Number of samples presented for each task (equal for every task).
    rng:
        Seed or generator for the class and image draws.
    """
    check_positive_int(samples_per_task, "samples_per_task")
    generator = ensure_rng(rng)
    schedule = normalize_task_schedule(tasks)

    stream: List[StreamSample] = []
    for task_index, classes in enumerate(schedule):
        if len(classes) == 1:
            labels = np.full(samples_per_task, classes[0])
        else:
            labels = generator.choice(list(classes), size=samples_per_task)
        for label in labels:
            image = source.generate(int(label), 1, rng=generator)[0]
            stream.append(StreamSample(image=image, label=int(label),
                                       task_index=task_index))
    return stream


def nondynamic_stream(
    source,
    *,
    n_samples: int = 100,
    classes: Optional[Sequence[int]] = None,
    rng: SeedLike = None,
) -> List[StreamSample]:
    """Build a non-dynamic stream whose classes are randomly distributed.

    Parameters
    ----------
    source:
        Digit source (``generate(digit, n, rng)`` plus ``classes``).
    n_samples:
        Total number of samples in the stream.
    classes:
        Classes to draw from (defaults to all of the source's classes).
    rng:
        Seed or generator for the class and image draws.
    """
    check_positive_int(n_samples, "n_samples")
    generator = ensure_rng(rng)
    available = list(source.classes if classes is None else classes)
    if not available:
        raise ValueError("classes must not be empty")

    labels = generator.choice(available, size=n_samples)
    stream: List[StreamSample] = []
    for label in labels:
        image = source.generate(int(label), 1, rng=generator)[0]
        stream.append(StreamSample(image=image, label=int(label), task_index=0))
    return stream
