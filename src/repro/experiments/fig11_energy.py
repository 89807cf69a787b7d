"""Fig. 11 — training and inference energy normalized to the baseline.

For every network size and every GPU of Table I, the per-sample training and
inference energy of the three comparison partners is measured (from the
simulation's operation counters through the device cost model) and normalized
to the baseline.  The paper's abstract reports that SpikeDyn saves on
average 51 % training / 37 % inference energy versus ASP.
:meth:`EnergyComparisonResult.savings_vs` averages the saving over every
device and network size, not over N400 alone: at
:meth:`ExperimentScale.paper` (N200/N400) that mean reads 68.75 % / 27.05 %,
while the N400 rows alone give 69.9 % / 33.7 %.  The three devices give
identical savings, because the operation counts do not depend on the device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.estimation.energy import EnergyModel
from repro.estimation.hardware import DeviceProfile, default_devices
from repro.evaluation.reporting import format_table, normalize_to
from repro.experiments.common import (
    MODEL_ORDER,
    ExperimentScale,
    build_model,
    measure_sample_counters,
    sample_images,
)


@dataclass
class EnergyComparisonResult:
    """Structured output of the Fig. 11 reproduction.

    Attributes
    ----------
    scale:
        The experiment scale the comparison was run at.
    normalized_training, normalized_inference:
        ``{device: {network_label: {model: energy normalized to baseline}}}``.
    """

    scale: ExperimentScale
    normalized_training: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    normalized_inference: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)

    def savings_vs(self, reference: str, candidate: str = "spikedyn") -> Dict[str, float]:
        """Mean training/inference energy savings of ``candidate`` vs ``reference``.

        Returns ``{"training": fraction, "inference": fraction}`` averaged
        over every device and network size, which is how this module reads
        the abstract's "reduces the energy consumption on average by ... %".
        The mean mixes the network sizes: at :meth:`ExperimentScale.paper`
        it is 68.75 % / 27.05 % vs ASP, against 69.9 % / 33.7 % for N400
        alone.  Read one size from :attr:`normalized_training` and
        :attr:`normalized_inference`.
        """
        savings = {"training": [], "inference": []}
        for phase, table in (("training", self.normalized_training),
                             ("inference", self.normalized_inference)):
            for per_network in table.values():
                for per_model in per_network.values():
                    savings[phase].append(
                        1.0 - per_model[candidate] / per_model[reference]
                    )
        return {
            phase: (sum(values) / len(values) if values else 0.0)
            for phase, values in savings.items()
        }

    def to_text(self) -> str:
        """Render the Fig. 11 panels as one plain-text table per device."""
        lines: List[str] = []
        for device in self.normalized_training:
            lines.append(f"Fig. 11 — energy normalized to the baseline ({device})")
            rows = []
            for label in self.normalized_training[device]:
                for model in self.normalized_training[device][label]:
                    rows.append([
                        label,
                        model,
                        self.normalized_training[device][label][model],
                        self.normalized_inference[device][label][model],
                    ])
            lines.append(format_table(
                ["network", "model", "training", "inference"], rows
            ))
            lines.append("")
        return "\n".join(lines).rstrip()


def run_energy_comparison(
    scale: Optional[ExperimentScale] = None,
    *,
    devices: Optional[Sequence[DeviceProfile]] = None,
    models: Sequence[str] = MODEL_ORDER,
    energy_measurement_samples: int = 2,
) -> EnergyComparisonResult:
    """Reproduce the energy comparison of Fig. 11.

    Parameters
    ----------
    scale:
        Experiment scale; defaults to :meth:`ExperimentScale.tiny`.
    devices:
        GPU profiles to evaluate on; defaults to the paper's three devices.
    models:
        Which comparison partners to evaluate (default: all three).
    energy_measurement_samples:
        Number of samples averaged for the per-sample energy measurement.
    """
    scale = scale if scale is not None else ExperimentScale.tiny()
    devices = list(devices) if devices is not None else default_devices()
    result = EnergyComparisonResult(scale=scale)
    images = sample_images(scale, energy_measurement_samples)

    # The operation counters are device independent; measure them once per
    # (model, network size) and convert per device afterwards.
    counters: Dict[str, Dict[str, object]] = {}
    for n_exc, label in zip(scale.network_sizes, scale.network_labels):
        counters[label] = {}
        for model_name in models:
            model = build_model(model_name, scale.config(n_exc))
            counters[label][model_name] = measure_sample_counters(model, images)

    for device in devices:
        energy_model = EnergyModel(device)
        result.normalized_training[device.name] = {}
        result.normalized_inference[device.name] = {}
        for label in counters:
            training = {
                model_name: energy_model.estimate(sample.training).joules
                for model_name, sample in counters[label].items()
            }
            inference = {
                model_name: energy_model.estimate(sample.inference).joules
                for model_name, sample in counters[label].items()
            }
            result.normalized_training[device.name][label] = normalize_to(
                training, "baseline"
            )
            result.normalized_inference[device.name][label] = normalize_to(
                inference, "baseline"
            )
    return result
