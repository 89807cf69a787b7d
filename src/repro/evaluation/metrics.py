"""Classification metrics used throughout the evaluation."""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of samples whose prediction matches the ground truth."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(
            f"predictions {predictions.shape} and labels {labels.shape} must match"
        )
    if predictions.size == 0:
        raise ValueError("cannot compute accuracy of an empty prediction set")
    return float(np.mean(predictions == labels))


def forgetting(per_task_recent: Mapping[int, float],
               per_task_final: Mapping[int, float]) -> Dict[int, float]:
    """Per-task forgetting: accuracy right after learning minus final accuracy.

    A standard continual-learning metric; positive values mean the task was
    partially forgotten by the end of the task sequence.
    """
    results: Dict[int, float] = {}
    for task, recent in per_task_recent.items():
        if task not in per_task_final:
            raise KeyError(f"task {task} missing from the final accuracies")
        results[int(task)] = float(recent - per_task_final[task])
    return results
