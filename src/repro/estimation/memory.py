"""Analytical memory-footprint model (paper Section III-C).

The memory footprint of a candidate SNN model is estimated as::

    mem = (Pw + Pn) * BP

where ``Pw`` is the number of synaptic weights, ``Pn`` the number of neuron
parameters, and ``BP`` the bit precision.
:func:`architecture_parameter_counts` computes ``Pw``/``Pn`` directly from
the architecture type and layer sizes without building anything — this is
what the model-search algorithm (Alg. 1) uses for fast estimation.  The
"actual run" reference it is validated against (Fig. 5a) counts a
constructed network
(:func:`~repro.estimation.actual_run.actual_memory_bytes`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_choice, check_positive_int

#: Architecture identifier for the excitatory + inhibitory layer topology.
ARCH_BASELINE = "baseline"
#: Architecture identifier for SpikeDyn's direct-lateral-inhibition topology.
ARCH_SPIKEDYN = "spikedyn"

#: Per-neuron state parameters: membrane potential, refractory timer, and
#: (for adaptive neurons) the threshold adaptation ``theta``.
EXCITATORY_PARAMS_PER_NEURON = 3
INHIBITORY_PARAMS_PER_NEURON = 2


@dataclass(frozen=True)
class ArchitectureParameterCounts:
    """Weight and neuron-parameter counts of one architecture instance."""

    weights: int
    neuron_parameters: int

    @property
    def total(self) -> int:
        """Total number of stored parameters ``Pw + Pn``."""
        return self.weights + self.neuron_parameters

    def memory_bytes(self, bit_precision: int = 32) -> float:
        """Memory footprint in bytes for the given bit precision."""
        return estimate_memory_bytes(self.weights, self.neuron_parameters,
                                     bit_precision)


def architecture_parameter_counts(architecture: str, n_input: int,
                                  n_exc: int) -> ArchitectureParameterCounts:
    """Analytical ``Pw``/``Pn`` for an architecture without building it.

    Parameters
    ----------
    architecture:
        ``"baseline"`` (excitatory + inhibitory layers) or ``"spikedyn"``
        (direct lateral inhibition).
    n_input, n_exc:
        Layer sizes.
    """
    check_choice(architecture, (ARCH_BASELINE, ARCH_SPIKEDYN), "architecture")
    check_positive_int(n_input, "n_input")
    check_positive_int(n_exc, "n_exc")

    input_to_exc = n_input * n_exc
    if architecture == ARCH_BASELINE:
        # One-to-one exc->inh plus dense (minus diagonal) inh->exc.
        weights = input_to_exc + n_exc + n_exc * (n_exc - 1)
        neuron_parameters = (
            EXCITATORY_PARAMS_PER_NEURON * n_exc
            + INHIBITORY_PARAMS_PER_NEURON * n_exc
        )
    else:
        # Direct lateral inhibition stores a single shared strength.
        weights = input_to_exc + 1
        neuron_parameters = EXCITATORY_PARAMS_PER_NEURON * n_exc
    return ArchitectureParameterCounts(weights=weights,
                                       neuron_parameters=neuron_parameters)


def estimate_memory_bytes(weights: int, neuron_parameters: int,
                          bit_precision: int = 32) -> float:
    """Memory footprint ``(Pw + Pn) * BP`` expressed in bytes."""
    if weights < 0 or neuron_parameters < 0:
        raise ValueError("parameter counts must be non-negative")
    check_positive_int(bit_precision, "bit_precision")
    return (weights + neuron_parameters) * bit_precision / 8.0
