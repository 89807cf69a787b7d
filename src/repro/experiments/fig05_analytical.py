"""Fig. 5 — validation of the analytical memory/energy models (Section III-C).

The paper validates the analytical estimates

* ``mem = (Pw + Pn) * BP``  (memory footprint) and
* ``E = E1 * N``            (phase energy)

against actual execution runs and reports errors below 5 %, plus the
exploration-time savings of searching with the analytical models (one sample
per candidate and phase) instead of actually running every configuration on
the full dataset.

In this reproduction the "actual run" replays several real samples through a
constructed network: the measured memory additionally contains the transient
simulation state (conductances, traces, spike flags), and the measured energy
averages over the per-sample variability of the Poisson encoding and of the
learning dynamics — both of which the analytical models deliberately ignore,
which is exactly where the (small) validation error comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.estimation.actual_run import actual_memory_bytes, run_actual_measurement
from repro.estimation.energy import EnergyModel
from repro.estimation.hardware import DeviceProfile, GTX_1080_TI
from repro.estimation.memory import ARCH_SPIKEDYN, architecture_parameter_counts
from repro.evaluation.reporting import format_table
from repro.experiments.common import ExperimentScale, build_model, sample_images
from repro.utils.validation import check_positive_int


@dataclass
class ValidationRow:
    """Analytical-vs-actual comparison for one network size.

    All energies are for the scaled phase (``N`` samples); errors are
    relative to the actual-run reference.
    """

    n_exc: int
    analytical_memory_bytes: float
    actual_memory_bytes: float
    analytical_training_joules: float
    actual_training_joules: float
    analytical_inference_joules: float
    actual_inference_joules: float

    @staticmethod
    def _relative_error(analytical: float, actual: float) -> float:
        if actual == 0.0:
            return 0.0
        return abs(analytical - actual) / actual

    @property
    def memory_error(self) -> float:
        """Relative memory-estimation error."""
        return self._relative_error(self.analytical_memory_bytes,
                                    self.actual_memory_bytes)

    @property
    def training_energy_error(self) -> float:
        """Relative training-energy estimation error."""
        return self._relative_error(self.analytical_training_joules,
                                    self.actual_training_joules)

    @property
    def inference_energy_error(self) -> float:
        """Relative inference-energy estimation error."""
        return self._relative_error(self.analytical_inference_joules,
                                    self.actual_inference_joules)


@dataclass
class AnalyticalValidationResult:
    """Structured output of the Fig. 5 reproduction.

    Attributes
    ----------
    scale:
        The experiment scale the study was run at.
    device:
        Device used for the energy conversion.
    rows:
        One :class:`ValidationRow` per evaluated network size (Fig. 5a-c).
    search_exploration_seconds:
        Estimated wall-clock time of exploring each candidate with one sample
        per phase (Fig. 5d,e "analytical" bar).
    actual_exploration_seconds:
        Estimated wall-clock time of actually running every candidate on the
        full ``N``-sample phases (Fig. 5d,e "actual run" bar).
    """

    scale: ExperimentScale
    device: str
    rows: List[ValidationRow] = field(default_factory=list)
    search_exploration_seconds: float = 0.0
    actual_exploration_seconds: float = 0.0

    @property
    def exploration_speedup(self) -> float:
        """How many times faster the analytical exploration is."""
        if self.search_exploration_seconds == 0.0:
            return float("inf")
        return self.actual_exploration_seconds / self.search_exploration_seconds

    def to_text(self) -> str:
        """Render the Fig. 5 panels as plain-text tables."""
        lines: List[str] = [
            f"Fig. 5(a-c) — analytical models vs. actual runs (device: {self.device})"
        ]
        rows = []
        for row in self.rows:
            rows.append([
                row.n_exc,
                row.analytical_memory_bytes / 1024.0,
                row.actual_memory_bytes / 1024.0,
                row.memory_error * 100.0,
                row.analytical_training_joules / 1e3,
                row.actual_training_joules / 1e3,
                row.training_energy_error * 100.0,
                row.analytical_inference_joules / 1e3,
                row.actual_inference_joules / 1e3,
                row.inference_energy_error * 100.0,
            ])
        lines.append(format_table(
            ["n_exc",
             "mem_KB(analytical)", "mem_KB(actual)", "mem_err_%",
             "train_kJ(analytical)", "train_kJ(actual)", "train_err_%",
             "infer_kJ(analytical)", "infer_kJ(actual)", "infer_err_%"],
            rows,
        ))
        lines.append("")
        lines.append("Fig. 5(d,e) — exploration time")
        lines.append(format_table(
            ["method", "duration_s"],
            [["analytical search", self.search_exploration_seconds],
             ["actual runs", self.actual_exploration_seconds]],
        ))
        return "\n".join(lines)


def run_analytical_validation(
    scale: Optional[ExperimentScale] = None,
    *,
    device: DeviceProfile = GTX_1080_TI,
    network_sizes: Optional[Sequence[int]] = None,
    actual_run_samples: int = 3,
) -> AnalyticalValidationResult:
    """Reproduce the analytical-model validation of Fig. 5.

    Parameters
    ----------
    scale:
        Experiment scale; defaults to :meth:`ExperimentScale.tiny`.
    device:
        GPU profile used for the energy conversion.
    network_sizes:
        Excitatory-layer sizes to validate; defaults to the scale's sizes.
    actual_run_samples:
        Number of samples replayed for the actual-run reference measurement.
    """
    scale = scale if scale is not None else ExperimentScale.tiny()
    check_positive_int(actual_run_samples, "actual_run_samples")
    sizes = list(network_sizes) if network_sizes is not None else list(scale.network_sizes)
    energy_model = EnergyModel(device)
    result = AnalyticalValidationResult(scale=scale, device=device.name)

    images = sample_images(scale, actual_run_samples)
    n_train = scale.n_training_samples
    n_infer = scale.n_inference_samples

    for n_exc in sizes:
        config = scale.config(n_exc)
        model = build_model("spikedyn", config)

        # Analytical estimates: (Pw + Pn) * BP and E = E1 * N from one sample.
        counts = architecture_parameter_counts(ARCH_SPIKEDYN, config.n_input, n_exc)
        analytical_memory = counts.memory_bytes(config.bit_precision)

        before = model.counter.copy()
        model.train_sample(images[0])
        analytical_training = energy_model.estimate(
            model.counter - before
        ).scaled(float(n_train)).joules

        before = model.counter.copy()
        model.respond(images[0])
        analytical_inference = energy_model.estimate(
            model.counter - before
        ).scaled(float(n_infer)).joules

        # Actual-run reference: replay several samples and extrapolate.
        reference = build_model("spikedyn", config)
        trains = [reference.encoder.encode(image) for image in images]
        training_run = run_actual_measurement(
            reference.network, trains, learning=True, device=device,
            bit_precision=config.bit_precision,
        )
        inference_run = run_actual_measurement(
            reference.network, trains, learning=False, device=device,
            bit_precision=config.bit_precision,
        )
        actual_memory = actual_memory_bytes(reference.network, config.bit_precision)

        result.rows.append(ValidationRow(
            n_exc=n_exc,
            analytical_memory_bytes=analytical_memory,
            actual_memory_bytes=actual_memory,
            analytical_training_joules=analytical_training,
            actual_training_joules=training_run.extrapolated(n_train).joules,
            analytical_inference_joules=analytical_inference,
            actual_inference_joules=inference_run.extrapolated(n_infer).joules,
        ))

        # Exploration time: one sample per phase (search) vs. N samples (actual).
        per_sample_training = training_run.per_sample_energy.seconds
        per_sample_inference = inference_run.per_sample_energy.seconds
        result.search_exploration_seconds += per_sample_training + per_sample_inference
        result.actual_exploration_seconds += (
            per_sample_training * n_train + per_sample_inference * n_infer
        )

    return result
