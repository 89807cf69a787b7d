"""Weight quantization for reduced bit-precision deployments.

The analytical memory model of Section III-C charges every stored parameter
``BP`` bits, and the paper's memory budget therefore scales linearly with the
chosen precision.  This module provides the functional counterpart: uniform
quantization of the learned input→excitatory weights to a given number of
bits, so the accuracy cost of a smaller ``BP`` can be measured alongside the
memory saving (the trade-off the authors' earlier FSpiNN framework, cited as
[6], optimizes explicitly).

Quantization is applied post-training ("quantize for deployment"): training
runs at full precision, then :func:`quantize_model_weights` snaps the learned
weights onto the ``2**bits`` level grid spanning ``[w_min, w_max]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.estimation.memory import architecture_parameter_counts
from repro.utils.validation import check_positive_int


def quantize_weights(weights: np.ndarray, bits: int, *, w_min: float,
                     w_max: float) -> np.ndarray:
    """Uniformly quantize ``weights`` to ``bits`` of precision.

    Values are clipped into ``[w_min, w_max]`` and rounded to the nearest of
    the ``2**bits`` levels.  The input array is not modified.
    """
    check_positive_int(bits, "bits")
    if bits > 32:
        raise ValueError(f"bits must be at most 32, got {bits}")
    if w_max <= w_min:
        raise ValueError(f"w_max ({w_max}) must exceed w_min ({w_min})")
    weights = np.asarray(weights, dtype=float)
    if bits >= 24:
        # Indistinguishable from full precision for float weights in [0, 1];
        # avoid building a multi-million-entry level grid.
        return np.clip(weights, w_min, w_max)

    clipped = np.clip(weights, w_min, w_max)
    step = (w_max - w_min) / (2 ** bits - 1)
    indices = np.round((clipped - w_min) / step)
    return w_min + indices * step


@dataclass(frozen=True)
class QuantizationReport:
    """Outcome of quantizing one model for deployment.

    Attributes
    ----------
    bits:
        Deployed bit precision.
    memory_bytes:
        Analytical memory footprint ``(Pw + Pn) * bits`` of the quantized model.
    full_precision_memory_bytes:
        Footprint at the model's configured (training) precision.
    rms_error:
        Root-mean-square weight perturbation introduced by the quantization.
    """

    bits: int
    memory_bytes: float
    full_precision_memory_bytes: float
    rms_error: float

    @property
    def memory_saving(self) -> float:
        """Fraction of memory saved relative to the full-precision model."""
        if self.full_precision_memory_bytes == 0:
            return 0.0
        return 1.0 - self.memory_bytes / self.full_precision_memory_bytes


def quantize_model_weights(model, bits: int,
                           *, reference_bits: Optional[int] = None
                           ) -> QuantizationReport:
    """Quantize a trained classifier's learned weights in place.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.base.UnsupervisedDigitClassifier`; its
        ``input_to_exc`` weights are snapped onto the quantization grid.
    bits:
        Deployed precision.
    reference_bits:
        Precision used for the "full precision" memory comparison; defaults to
        the model configuration's ``bit_precision``.

    Returns
    -------
    QuantizationReport
        Memory footprints and the introduced weight perturbation.
    """
    config = model.config
    connection = model.network.connection("input_to_exc")
    original = connection.weights.copy()
    quantized = quantize_weights(original, bits,
                                 w_min=connection.w_min, w_max=connection.w_max)
    connection.weights[:] = quantized

    counts = architecture_parameter_counts(
        model.architecture_name(), config.n_input, config.n_exc
    )
    reference = reference_bits if reference_bits is not None else config.bit_precision
    return QuantizationReport(
        bits=bits,
        memory_bytes=counts.memory_bytes(bits),
        full_precision_memory_bytes=counts.memory_bytes(reference),
        rms_error=float(np.sqrt(np.mean((original - quantized) ** 2))),
    )
