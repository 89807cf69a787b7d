"""Instrumented "actual run" measurements (the reference of Fig. 5).

The paper validates its analytical memory/energy models against actual
execution runs.  In this reproduction the "actual run" replays real samples
through a constructed network, collects the engine's operation counters, and
derives time and energy from them through the device cost model; the actual
memory footprint additionally includes the transient simulation state
(conductances, refractory timers, spike traces) that the analytical model
``(Pw + Pn) * BP`` deliberately ignores — which is precisely why the
analytical estimate lands close to, but not exactly on, the measured value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.estimation.energy import EnergyEstimate, EnergyModel
from repro.estimation.hardware import DeviceProfile, GTX_1080_TI
from repro.snn.network import Network
from repro.snn.neurons import AdaptiveLIFGroup, InputGroup, LIFGroup
from repro.snn.simulation import OperationCounter


@dataclass
class ActualRunMeasurement:
    """Result of replaying a set of samples through an instrumented network.

    Attributes
    ----------
    counter:
        Total operation counts accumulated over all replayed samples.
    n_samples:
        Number of samples replayed.
    memory_bytes:
        Measured memory footprint of the network's persistent and transient
        state.
    energy:
        Total time/energy of the replayed workload on the chosen device.
    """

    counter: OperationCounter
    n_samples: int
    memory_bytes: float
    energy: EnergyEstimate

    @property
    def per_sample_energy(self) -> EnergyEstimate:
        """Average per-sample energy (``E1`` in the paper's notation)."""
        if self.n_samples == 0:
            return self.energy
        return self.energy.scaled(1.0 / self.n_samples)

    def extrapolated(self, n_samples: int) -> EnergyEstimate:
        """Energy for ``n_samples`` samples, scaled from the measured average."""
        return self.per_sample_energy.scaled(float(n_samples))


def actual_memory_bytes(network: Network, bit_precision: int = 32) -> float:
    """Measured memory footprint of a network's state in bytes.

    Counts the stored synaptic weights, every persistent neuron parameter,
    and the transient simulation state (conductances, spike flags, trace
    vectors owned by learning rules).
    """
    bytes_per_value = bit_precision / 8.0
    elements = network.weight_count + network.neuron_parameter_count

    for connection in network.connections:
        conductance = getattr(connection, "conductance", None)
        if conductance is not None:
            elements += int(np.asarray(conductance).size)
        rule = connection.learning_rule
        if rule is not None:
            for trace_name in ("pre_trace", "post_trace"):
                trace = getattr(rule, trace_name, None)
                if trace is not None:
                    elements += trace.n

    for group in network.groups.values():
        if isinstance(group, (LIFGroup, AdaptiveLIFGroup)):
            elements += group.n  # spike flags
        elif isinstance(group, InputGroup):
            elements += group.n  # spike flags

    return elements * bytes_per_value


def run_actual_measurement(
    network: Network,
    spike_trains: Iterable[np.ndarray],
    *,
    learning: bool = True,
    device: DeviceProfile = GTX_1080_TI,
    op_costs: Optional[Mapping[str, float]] = None,
    bit_precision: int = 32,
) -> ActualRunMeasurement:
    """Replay ``spike_trains`` through ``network`` and measure cost.

    Parameters
    ----------
    network:
        The constructed network to measure (its weights are updated in place
        when ``learning`` is enabled).
    spike_trains:
        Iterable of boolean ``(timesteps, n_input)`` spike trains.
    learning:
        Whether plasticity is active during the replay (training vs.
        inference measurement).
    device:
        Device profile used to convert operations into time and energy.
    op_costs:
        Optional per-operation-class cost overrides.
    bit_precision:
        Bits per stored value for the memory measurement.
    """
    model = EnergyModel(device, op_costs)
    before = network.counter.copy()
    n_samples = 0
    for train in spike_trains:
        network.run_sample(train, learning=learning)
        n_samples += 1
    total = network.counter - before
    return ActualRunMeasurement(
        counter=total,
        n_samples=n_samples,
        memory_bytes=actual_memory_bytes(network, bit_precision),
        energy=model.estimate(total),
    )
