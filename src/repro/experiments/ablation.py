"""Mechanism ablation — one study of SpikeDyn's learning-algorithm design choices.

SpikeDyn's learning algorithm combines four mechanisms (Section III-D):
adaptive learning rates, synaptic weight decay, the adaptive membrane
threshold potential, and spurious-update reduction via timestep-gated
updates.  This study disables one mechanism at a time (plus a "none"
variant that disables all four) and measures the impact on dynamic-scenario
accuracy and on per-sample training energy, making the contribution of each
mechanism explicit.  It is registered as the ``ablation`` experiment in
:mod:`repro.experiments.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import SpikeDynConfig
from repro.core.learning import SpikeDynLearningRule
from repro.core.weight_decay import SynapticWeightDecay
from repro.estimation.energy import EnergyModel
from repro.estimation.hardware import DeviceProfile, GTX_1080_TI
from repro.evaluation.protocols import DynamicProtocolResult, run_dynamic_protocol
from repro.evaluation.reporting import format_table
from repro.experiments.common import (
    ExperimentScale,
    build_model,
    default_digit_source,
    sample_images,
)
from repro.utils.rng import ensure_rng

#: Ablation variants: which mechanism is disabled in each.
ABLATION_VARIANTS: Tuple[str, ...] = (
    "full",
    "no_adaptive_rates",
    "no_weight_decay",
    "no_adaptive_threshold",
    "no_update_gating",
    "none",
)


def _variant_rule(variant: str, config: SpikeDynConfig) -> SpikeDynLearningRule:
    """Build the SpikeDyn learning rule with one mechanism disabled."""
    adaptive_rates = variant not in ("no_adaptive_rates", "none")
    gate_updates = variant not in ("no_update_gating", "none")
    use_decay = variant not in ("no_weight_decay", "none")
    decay = (SynapticWeightDecay(config.effective_w_decay, config.tau_decay)
             if use_decay else None)
    return SpikeDynLearningRule(
        nu_pre=config.nu_pre,
        nu_post=config.nu_post,
        spike_threshold=config.spike_threshold,
        update_interval=config.update_interval,
        weight_decay=decay,
        adaptive_rates=adaptive_rates,
        gate_updates=gate_updates,
        soft_bounds=config.soft_bounds,
        tau_pre=config.tau_pre,
        tau_post=config.tau_post,
    )


def _variant_config(variant: str, scale: ExperimentScale, n_exc: int) -> SpikeDynConfig:
    """Configuration for one ablation variant.

    Disabling the adaptive threshold sets ``c_theta`` to zero, which makes
    the adaptation potential vanish (the neurons keep a fixed threshold).
    """
    if variant in ("no_adaptive_threshold", "none"):
        return scale.config(n_exc, c_theta=0.0)
    return scale.config(n_exc)


@dataclass
class AblationVariantResult:
    """Accuracy and energy outcome of one ablation variant."""

    variant: str
    protocol: DynamicProtocolResult
    training_energy_joules: float

    @property
    def mean_recent_accuracy(self) -> float:
        """Mean accuracy on the most recently learned task."""
        return self.protocol.mean_recent_accuracy

    @property
    def mean_final_accuracy(self) -> float:
        """Mean accuracy on previously learned tasks."""
        return self.protocol.mean_final_accuracy


@dataclass
class AblationResult:
    """Structured output of the mechanism-ablation study.

    Attributes
    ----------
    scale:
        The experiment scale the study was run at.
    device:
        Device used for the energy conversion.
    variants:
        ``{variant: AblationVariantResult}`` in the canonical variant order.
    """

    scale: ExperimentScale
    device: str
    variants: Dict[str, AblationVariantResult] = field(default_factory=dict)

    def normalized_training_energy(self) -> Dict[str, float]:
        """Training energy of every variant normalized to the full SpikeDyn."""
        reference = self.variants["full"].training_energy_joules
        if reference == 0.0:
            raise ZeroDivisionError("the full variant recorded zero training energy")
        return {
            variant: result.training_energy_joules / reference
            for variant, result in self.variants.items()
        }

    def to_text(self) -> str:
        """Render the ablation as a plain-text table."""
        lines: List[str] = [
            f"Mechanism ablation (device: {self.device}) — accuracy and training energy"
        ]
        normalized = self.normalized_training_energy()
        rows = []
        for variant, result in self.variants.items():
            rows.append([
                variant,
                result.mean_recent_accuracy * 100.0,
                result.mean_final_accuracy * 100.0,
                normalized[variant],
            ])
        lines.append(format_table(
            ["variant", "recent_acc_%", "final_acc_%", "norm_train_energy"], rows
        ))
        return "\n".join(lines)


def run_mechanism_ablation(
    scale: Optional[ExperimentScale] = None,
    *,
    device: DeviceProfile = GTX_1080_TI,
    variants: Tuple[str, ...] = ABLATION_VARIANTS,
    energy_measurement_samples: int = 2,
) -> AblationResult:
    """Run the mechanism ablation study.

    Parameters
    ----------
    scale:
        Experiment scale; defaults to :meth:`ExperimentScale.tiny`.
    device:
        GPU profile used for the energy conversion.
    variants:
        Which ablation variants to evaluate (see :data:`ABLATION_VARIANTS`).
    energy_measurement_samples:
        Number of samples averaged for the per-sample energy measurement.
    """
    scale = scale if scale is not None else ExperimentScale.tiny()
    for variant in variants:
        if variant not in ABLATION_VARIANTS:
            raise ValueError(
                f"unknown ablation variant {variant!r}; "
                f"known variants: {list(ABLATION_VARIANTS)}"
            )

    energy_model = EnergyModel(device)
    result = AblationResult(scale=scale, device=device.name)
    images = sample_images(scale, energy_measurement_samples)
    n_exc = max(scale.network_sizes)

    for variant in variants:
        config = _variant_config(variant, scale, n_exc)
        rule = _variant_rule(variant, config)
        model = build_model("spikedyn", config, learning_rule=rule)

        # Per-sample training energy of this variant.
        total = 0.0
        for image in images:
            before = model.counter.copy()
            model.train_sample(image)
            total += energy_model.estimate(model.counter - before).joules
        training_energy = total / len(images)

        # Fresh model for the accuracy protocol (the energy probe already
        # modified the weights).
        protocol_model = build_model(
            "spikedyn", config, learning_rule=_variant_rule(variant, config)
        )
        source = default_digit_source(scale)
        protocol = run_dynamic_protocol(
            protocol_model,
            source,
            class_sequence=list(scale.class_sequence),
            samples_per_task=scale.samples_per_task,
            eval_samples_per_class=scale.eval_samples_per_class,
            rng=ensure_rng(scale.seed),
        )
        result.variants[variant] = AblationVariantResult(
            variant=variant,
            protocol=protocol,
            training_energy_joules=training_energy,
        )
    return result
