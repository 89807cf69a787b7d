"""Synaptic weight decay (paper Section III-D).

The decay follows ``tau_decay * dw/dt = -w_decay * w``: weak synaptic
connections — which encode old and insignificant information — shrink over
the training period, freeing synapses to learn new tasks.  The decay rate is
chosen inversely proportional to the network size (``w_decay ∝ 1 / n_exc``):
a smaller network has fewer synapses available for new information, so it
must forget faster.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.snn.simulation import OperationCounter
from repro.utils.validation import check_non_negative, check_positive, check_positive_int

#: Proportionality constant for ``w_decay = DECAY_SCALE / n_exc``; chosen so
#: that the paper's best-performing value for a 400-neuron network
#: (``w_decay = 1e-2``, Fig. 6) is recovered.
DECAY_SCALE = 4.0


def decay_rate_for_network_size(n_exc: int, scale: float = DECAY_SCALE) -> float:
    """Weight-decay rate ``w_decay`` for a network with ``n_exc`` excitatory
    neurons (``w_decay = scale / n_exc``).

    Parameters
    ----------
    n_exc:
        Number of excitatory neurons.
    scale:
        Proportionality constant; the default reproduces the paper's
        ``w_decay = 1e-2`` at ``n_exc = 400``.
    """
    check_positive_int(n_exc, "n_exc")
    check_non_negative(scale, "scale")
    return scale / n_exc


class SynapticWeightDecay:
    """Applies ``tau_decay * dw/dt = -w_decay * w`` to a weight matrix.

    Parameters
    ----------
    w_decay:
        Decay rate (dimensionless); zero disables the decay entirely.
    tau_decay:
        Decay time constant in milliseconds.
    """

    def __init__(self, w_decay: float, tau_decay: float = 1.0e4) -> None:
        self.w_decay = check_non_negative(w_decay, "w_decay")
        self.tau_decay = check_positive(tau_decay, "tau_decay")

    @property
    def enabled(self) -> bool:
        """Whether the decay has any effect."""
        return self.w_decay > 0.0

    def decay_fraction(self, elapsed_ms: float) -> float:
        """Fraction by which weights shrink over ``elapsed_ms`` milliseconds.

        The exact solution of the decay ODE over a finite interval is
        ``w(t + T) = w(t) * exp(-w_decay * T / tau_decay)``; returning
        ``1 - exp(...)`` lets callers apply the decay lazily over a whole
        update window in a single operation.
        """
        check_non_negative(elapsed_ms, "elapsed_ms")
        if not self.enabled or elapsed_ms == 0.0:
            return 0.0
        return float(1.0 - np.exp(-self.w_decay * elapsed_ms / self.tau_decay))

    def apply(self, weights: np.ndarray, elapsed_ms: float,
              counter: Optional[OperationCounter] = None) -> np.ndarray:
        """Decay ``weights`` in place for ``elapsed_ms`` milliseconds."""
        fraction = self.decay_fraction(elapsed_ms)
        if fraction == 0.0:
            return weights
        weights *= 1.0 - fraction
        if counter is not None:
            counter.add(weight_updates=weights.size)
        return weights

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SynapticWeightDecay(w_decay={self.w_decay}, "
            f"tau_decay={self.tau_decay})"
        )
