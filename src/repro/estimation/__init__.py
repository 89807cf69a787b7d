"""Memory, energy, and latency estimation (paper Section III-C and IV).

The paper estimates

* the **memory footprint** of an SNN model as ``mem = (Pw + Pn) * BP`` from
  the number of weights ``Pw``, the number of neuron parameters ``Pn``, and
  the bit precision ``BP``;
* the **energy consumption** of a phase as ``E = E1 * N`` from the energy of
  processing a single sample ``E1`` and the number of samples ``N``, where
  ``E1`` is obtained from the processing time and the processing power of the
  target GPU (Jetson Nano, GTX 1080 Ti, RTX 2080 Ti — Table I).

This package provides those analytical models, the GPU device profiles, a
processing-time model (Table II), and an instrumented "actual run" estimator
that replays samples through a network and derives time/energy from the
simulation's operation counters — the reference the analytical models are
validated against (Fig. 5).
"""

from repro.estimation.actual_run import (
    ActualRunMeasurement,
    actual_memory_bytes,
    run_actual_measurement,
)
from repro.estimation.energy import (
    DEFAULT_OP_ENERGY_COSTS,
    EnergyEstimate,
    EnergyModel,
    weighted_operations,
)
from repro.estimation.hardware import (
    GTX_1080_TI,
    JETSON_NANO,
    RTX_2080_TI,
    DeviceProfile,
    default_devices,
    get_device,
)
from repro.estimation.latency import (
    ProcessingTimeReport,
    processing_time_report,
    time_per_sample_seconds,
)
from repro.estimation.memory import (
    ArchitectureParameterCounts,
    architecture_parameter_counts,
    estimate_memory_bytes,
)

__all__ = [
    "ActualRunMeasurement",
    "ArchitectureParameterCounts",
    "DEFAULT_OP_ENERGY_COSTS",
    "DeviceProfile",
    "EnergyEstimate",
    "EnergyModel",
    "GTX_1080_TI",
    "JETSON_NANO",
    "ProcessingTimeReport",
    "RTX_2080_TI",
    "actual_memory_bytes",
    "architecture_parameter_counts",
    "default_devices",
    "estimate_memory_bytes",
    "get_device",
    "processing_time_report",
    "run_actual_measurement",
    "time_per_sample_seconds",
    "weighted_operations",
]
