"""Activity statistics of the excitatory layer.

The statistics here summarize the spike-count responses produced by
:meth:`~repro.models.base.UnsupervisedDigitClassifier.respond_batch` and are
used to diagnose the winner-take-all dynamics that the paper's mechanisms
(lateral inhibition, adaptive threshold) are meant to balance: whether some
neurons dominate, how selective neurons are for classes, and how much of the
population participates at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


def _validate_responses(responses: np.ndarray) -> np.ndarray:
    responses = np.asarray(responses, dtype=float)
    if responses.ndim != 2:
        raise ValueError(f"responses must be 2-D, got shape {responses.shape}")
    if responses.size == 0:
        raise ValueError("responses must not be empty")
    if np.any(responses < 0):
        raise ValueError("spike counts cannot be negative")
    return responses


@dataclass(frozen=True)
class ResponseStatistics:
    """Summary statistics of a batch of excitatory responses.

    Attributes
    ----------
    mean_spikes_per_sample:
        Average total excitatory spike count elicited by one sample.
    active_neuron_fraction:
        Fraction of neurons that spiked for at least one sample.
    silent_sample_fraction:
        Fraction of samples that elicited no excitatory spikes at all.
    mean_winner_share:
        Average fraction of a sample's response carried by its single most
        active neuron (1.0 = perfect winner-take-all).
    """

    mean_spikes_per_sample: float
    active_neuron_fraction: float
    silent_sample_fraction: float
    mean_winner_share: float


def response_statistics(responses: np.ndarray) -> ResponseStatistics:
    """Compute :class:`ResponseStatistics` for a ``(samples, neurons)`` batch."""
    responses = _validate_responses(responses)
    totals = responses.sum(axis=1)
    return ResponseStatistics(
        mean_spikes_per_sample=float(totals.mean()),
        active_neuron_fraction=float((responses.sum(axis=0) > 0).mean()),
        silent_sample_fraction=float((totals == 0).mean()),
        mean_winner_share=float(winner_share(responses).mean()),
    )


def winner_share(responses: np.ndarray) -> np.ndarray:
    """Per-sample fraction of the response carried by the most active neuron.

    Silent samples contribute 0.
    """
    responses = _validate_responses(responses)
    totals = responses.sum(axis=1)
    safe_totals = np.where(totals > 0, totals, 1.0)
    share = responses.max(axis=1) / safe_totals
    return np.where(totals > 0, share, 0.0)


def class_selectivity(responses: np.ndarray,
                      labels: Sequence[int]) -> Dict[int, float]:
    """Per-class selectivity of the population response.

    For every class, selectivity is ``(best - mean_other) / (best + mean_other)``
    computed on the class-averaged response of the most responsive neuron,
    i.e. 1.0 when some neuron responds exclusively to that class and 0.0 when
    its response is identical across classes.
    """
    responses = _validate_responses(responses)
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (responses.shape[0],):
        raise ValueError(
            f"labels must have shape ({responses.shape[0]},), got {labels.shape}"
        )
    classes = sorted(set(labels.tolist()))
    if len(classes) < 2:
        raise ValueError("class selectivity needs at least two classes")

    class_means = np.stack([responses[labels == cls].mean(axis=0)
                            for cls in classes])
    selectivity: Dict[int, float] = {}
    for index, cls in enumerate(classes):
        own = class_means[index]
        others = np.delete(class_means, index, axis=0).mean(axis=0)
        best = int(np.argmax(own))
        numerator = own[best] - others[best]
        denominator = own[best] + others[best]
        selectivity[int(cls)] = float(numerator / denominator) if denominator else 0.0
    return selectivity
