"""Receptive-field inspection of the learned input→excitatory weights.

In Diehl & Cook style unsupervised SNNs, each excitatory neuron's incoming
weight vector converges towards the average input pattern it responds to, so
reshaping a weight column into the input image shape shows "what the neuron
has learned".  These helpers extract, normalize, tile, and compare those
receptive fields; they operate on any
:class:`~repro.models.base.UnsupervisedDigitClassifier`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


def _weight_matrix(model) -> np.ndarray:
    """The model's input→excitatory weight matrix as a numpy array."""
    weights = np.asarray(model.input_weights, dtype=float)
    if weights.ndim != 2:
        raise ValueError(f"input weights must be 2-D, got shape {weights.shape}")
    return weights


def _image_side(n_input: int) -> int:
    """Side length of the (square) input image."""
    side = int(round(np.sqrt(n_input)))
    if side * side != n_input:
        raise ValueError(
            f"the input size {n_input} is not a square number; pass an explicit "
            "image shape to reshape the receptive field yourself"
        )
    return side


def receptive_field(model, neuron: int, *, normalize: bool = True) -> np.ndarray:
    """Receptive field of one excitatory neuron as a 2-D image.

    Parameters
    ----------
    model:
        Any trained (or untrained) unsupervised digit classifier.
    neuron:
        Index of the excitatory neuron.
    normalize:
        Scale the returned image into [0, 1] (a no-op for an all-zero field).
    """
    weights = _weight_matrix(model)
    if not 0 <= neuron < weights.shape[1]:
        raise ValueError(
            f"neuron index {neuron} out of range for {weights.shape[1]} neurons"
        )
    side = _image_side(weights.shape[0])
    field = weights[:, neuron].reshape(side, side).copy()
    if normalize and field.max() > 0:
        field = field / field.max()
    return field


def receptive_field_similarity(model, reference: np.ndarray) -> np.ndarray:
    """Cosine similarity of every neuron's receptive field to a reference image.

    Parameters
    ----------
    model:
        The classifier whose fields are compared.
    reference:
        Image (any shape) with ``n_input`` pixels, e.g. a class prototype from
        :class:`~repro.datasets.synthetic_mnist.SyntheticDigits`.

    Returns
    -------
    numpy.ndarray
        Per-neuron cosine similarity in [-1, 1]; silent (all-zero) fields get 0.
    """
    weights = _weight_matrix(model)
    reference = np.asarray(reference, dtype=float).ravel()
    if reference.size != weights.shape[0]:
        raise ValueError(
            f"reference has {reference.size} pixels but the model expects "
            f"{weights.shape[0]}"
        )
    reference_norm = np.linalg.norm(reference)
    if reference_norm == 0:
        raise ValueError("the reference image is all zeros")
    column_norms = np.linalg.norm(weights, axis=0)
    safe_norms = np.where(column_norms > 0, column_norms, 1.0)
    similarity = (weights.T @ reference) / (safe_norms * reference_norm)
    similarity[column_norms == 0] = 0.0
    return similarity


def neuron_class_map(model, prototypes: Dict[int, np.ndarray]) -> np.ndarray:
    """Assign each neuron the class whose prototype its field resembles most.

    This is a *weight-based* alternative to the response-based labelling of
    :func:`repro.evaluation.labeling.assign_neuron_labels`, useful for
    inspecting what the synapses encode without running the network.

    Parameters
    ----------
    model:
        The classifier to inspect.
    prototypes:
        ``{class: prototype image}`` with ``n_input`` pixels each.

    Returns
    -------
    numpy.ndarray
        Per-neuron class labels; neurons with an all-zero field get ``-1``.
    """
    if not prototypes:
        raise ValueError("at least one prototype is required")
    classes = sorted(prototypes)
    similarities = np.stack(
        [receptive_field_similarity(model, prototypes[cls]) for cls in classes]
    )
    weights = _weight_matrix(model)
    labels = np.array(classes)[np.argmax(similarities, axis=0)]
    labels[np.linalg.norm(weights, axis=0) == 0] = -1
    return labels
