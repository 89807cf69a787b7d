"""Energy-consumption model (paper Sections III-C and IV).

Two layers are involved:

1. An **operation-to-energy** mapping: the simulation engine counts primitive
   operations (synaptic events, neuron updates, exponential evaluations,
   trace updates, weight updates); each operation class has a relative cost,
   and a :class:`~repro.estimation.hardware.DeviceProfile` converts weighted
   operations into seconds and joules — mirroring the paper's methodology of
   deriving energy from processing time and measured processing power.
2. The paper's **analytical total-energy model** ``E = E1 * N``: the energy
   for processing one sample, multiplied by the number of samples that will
   be processed.  This is what the model-search algorithm (Alg. 1) uses for
   fast estimation, and what Fig. 5(b,c) validates against actual runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.estimation.hardware import DeviceProfile, GTX_1080_TI
from repro.snn.simulation import OperationCounter
from repro.utils.validation import check_non_negative

#: Relative energy cost of each primitive operation class.  Synaptic events
#: are multiply-accumulates (cost 2); neuron updates and exponential decays
#: involve several arithmetic operations (cost 3); trace and weight updates
#: are single fused element-wise operations (cost 1).
DEFAULT_OP_ENERGY_COSTS: Dict[str, float] = {
    "synaptic_events": 2.0,
    "neuron_updates": 3.0,
    "exponential_ops": 3.0,
    "trace_updates": 1.0,
    "weight_updates": 1.0,
    "spike_events": 0.0,
    # Event-engine accounting tallies: how much work the event path
    # delivered/avoided, not work in themselves — the compute they imply is
    # already charged to the update counters above.
    "events_processed": 0.0,
    "steps_skipped": 0.0,
}


def weighted_operations(counter: OperationCounter,
                        costs: Optional[Mapping[str, float]] = None) -> float:
    """Convert an operation counter into weighted (FLOP-equivalent) operations."""
    costs = DEFAULT_OP_ENERGY_COSTS if costs is None else costs
    total = 0.0
    for name, count in counter.as_dict().items():
        total += float(count) * float(costs.get(name, 0.0))
    return total


@dataclass(frozen=True)
class EnergyEstimate:
    """Time and energy of processing a workload on one device."""

    device: str
    seconds: float
    joules: float
    weighted_ops: float

    @property
    def kilojoules(self) -> float:
        """Energy in kilojoules (the unit used by the paper's Fig. 5)."""
        return self.joules / 1e3

    @property
    def hours(self) -> float:
        """Processing time in hours (the unit used by the paper's Table II)."""
        return self.seconds / 3600.0

    def scaled(self, factor: float) -> "EnergyEstimate":
        """Estimate for ``factor`` times the workload (the ``E = E1 * N`` model)."""
        check_non_negative(factor, "factor")
        return EnergyEstimate(
            device=self.device,
            seconds=self.seconds * factor,
            joules=self.joules * factor,
            weighted_ops=self.weighted_ops * factor,
        )


class EnergyModel:
    """Converts operation counters into time/energy on a specific device.

    Parameters
    ----------
    device:
        The GPU profile to evaluate on (defaults to the GTX 1080 Ti, the
        paper's primary GPGPU).
    op_costs:
        Relative per-operation-class costs; defaults to
        :data:`DEFAULT_OP_ENERGY_COSTS`.
    """

    def __init__(self, device: DeviceProfile = GTX_1080_TI,
                 op_costs: Optional[Mapping[str, float]] = None) -> None:
        self.device = device
        self.op_costs = dict(DEFAULT_OP_ENERGY_COSTS if op_costs is None else op_costs)

    def weighted_ops(self, counter: OperationCounter) -> float:
        """Weighted operations represented by ``counter``."""
        return weighted_operations(counter, self.op_costs)

    def estimate(self, counter: OperationCounter) -> EnergyEstimate:
        """Time/energy for the workload represented by ``counter``."""
        ops = self.weighted_ops(counter)
        seconds = self.device.seconds_for_operations(ops)
        joules = self.device.energy_for_operations(ops)
        return EnergyEstimate(
            device=self.device.name,
            seconds=seconds,
            joules=joules,
            weighted_ops=ops,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnergyModel(device={self.device.name!r})"
