"""Configuration dataclass for SpikeDyn models and experiments.

All hyperparameters of the SpikeDyn pipeline live in one
:class:`SpikeDynConfig` object so that experiments, the model-search
algorithm, and the serialization helpers share a single source of truth.
Default values follow the paper (Diehl & Cook neuron constants, 350 ms
presentation window, rate coding with a 63.75 Hz peak rate) but every field
can be overridden, and :meth:`SpikeDynConfig.scaled_down` provides the
laptop-scale settings used by the test-suite and the benchmark harness.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.backends import drop_legacy_backend
from repro.core.weight_decay import DECAY_SCALE, decay_rate_for_network_size
from repro.snn.simulation import SimulationParameters
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
)


@dataclass
class SpikeDynConfig:
    """Hyperparameters of a SpikeDyn model.

    Parameters
    ----------
    n_input:
        Number of input neurons (pixels of the encoded image).
    n_exc:
        Number of excitatory neurons; the paper evaluates 200 (N200) and
        400 (N400).
    dt, t_sim, t_rest:
        Simulation timestep, presentation window, and rest period (ms).
    max_rate, intensity_scale:
        Poisson rate-coding parameters (Hz peak rate and scale factor).
    v_rest, v_reset, v_thresh, tau_m, refractory:
        Excitatory LIF constants (mV / ms).
    c_theta, theta_decay:
        Adaptive-threshold constants; the adaptation potential is
        ``theta = c_theta * theta_decay * t_sim`` (Section III-D).
    inhibition_strength, tau_inhibition:
        Direct lateral inhibition strength and conductance time constant.
    nu_pre, nu_post:
        STDP learning rates for depression and potentiation.
    tau_pre, tau_post:
        Spike-trace time constants (ms).
    spike_threshold:
        ``Sp_th`` used by the potentiation factor ``kp`` (Eq. 1a).
    update_interval:
        The "timestep" ``t_step`` of Alg. 2 — the window (ms) over which
        spikes are accumulated before a weight update is committed.
    w_decay:
        Weight-decay rate; ``None`` selects ``decay_scale / n_exc``.
    decay_scale, tau_decay:
        Constants of the weight-decay law.
    w_min, w_max:
        Hard weight bounds of the learned input→excitatory projection.
    norm_total:
        Per-excitatory-neuron target for incoming-weight normalization;
        ``None`` selects ``0.1 * n_input`` (the Diehl & Cook convention).
    soft_bounds:
        Use multiplicative (soft-bound) STDP updates.
    bit_precision:
        Bits per stored parameter, used by the analytical memory model.
    seed:
        Seed controlling weight initialization and Poisson encoding.
    """

    n_input: int = 784
    n_exc: int = 400

    # Simulation timing.
    dt: float = 1.0
    t_sim: float = 350.0
    t_rest: float = 150.0

    # Input encoding.
    max_rate: float = 63.75
    intensity_scale: float = 4.0

    # Excitatory neuron constants.
    v_rest: float = -65.0
    v_reset: float = -65.0
    v_thresh: float = -52.0
    tau_m: float = 100.0
    refractory: float = 5.0

    # Adaptive membrane threshold potential.
    c_theta: float = 1.0
    theta_decay: float = 1.0e-3

    # Direct lateral inhibition.
    inhibition_strength: float = 17.0
    tau_inhibition: float = 2.0

    # Learning (Alg. 2).
    nu_pre: float = 1e-4
    nu_post: float = 1e-2
    tau_pre: float = 20.0
    tau_post: float = 20.0
    spike_threshold: float = 4.0
    update_interval: float = 10.0

    # Synaptic weight decay.
    w_decay: Optional[float] = None
    decay_scale: float = DECAY_SCALE
    tau_decay: float = 1.0e4

    # Weight bounds and normalization.
    w_min: float = 0.0
    w_max: float = 1.0
    norm_total: Optional[float] = None
    soft_bounds: bool = True

    # Analytical-model inputs.
    bit_precision: int = 32

    # Reproducibility.
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        check_positive_int(self.n_input, "n_input")
        check_positive_int(self.n_exc, "n_exc")
        check_positive(self.dt, "dt")
        check_positive(self.t_sim, "t_sim")
        check_non_negative(self.t_rest, "t_rest")
        check_non_negative(self.max_rate, "max_rate")
        check_non_negative(self.intensity_scale, "intensity_scale")
        check_positive(self.tau_m, "tau_m")
        check_non_negative(self.refractory, "refractory")
        check_non_negative(self.c_theta, "c_theta")
        check_non_negative(self.theta_decay, "theta_decay")
        check_non_negative(self.inhibition_strength, "inhibition_strength")
        check_positive(self.tau_inhibition, "tau_inhibition")
        check_non_negative(self.nu_pre, "nu_pre")
        check_non_negative(self.nu_post, "nu_post")
        check_positive(self.tau_pre, "tau_pre")
        check_positive(self.tau_post, "tau_post")
        check_positive(self.spike_threshold, "spike_threshold")
        check_positive(self.update_interval, "update_interval")
        if self.w_decay is not None:
            check_non_negative(self.w_decay, "w_decay")
        check_non_negative(self.decay_scale, "decay_scale")
        check_positive(self.tau_decay, "tau_decay")
        check_positive_int(self.bit_precision, "bit_precision")
        if self.w_max <= self.w_min:
            raise ValueError(
                f"w_max ({self.w_max}) must exceed w_min ({self.w_min})"
            )
        if self.t_sim < self.update_interval:
            raise ValueError(
                "update_interval must not exceed the presentation window t_sim"
            )

    # -- derived quantities ---------------------------------------------------

    @property
    def effective_w_decay(self) -> float:
        """Weight-decay rate, defaulting to ``decay_scale / n_exc``."""
        if self.w_decay is not None:
            return self.w_decay
        return decay_rate_for_network_size(self.n_exc, self.decay_scale)

    @property
    def effective_norm_total(self) -> float:
        """Incoming-weight normalization target (``0.1 * n_input`` default)."""
        if self.norm_total is not None:
            return self.norm_total
        return 0.1 * self.n_input

    @property
    def adaptation_potential(self) -> float:
        """Adaptation potential ``theta = c_theta * theta_decay * t_sim``."""
        return self.c_theta * self.theta_decay * self.t_sim

    @property
    def tau_theta(self) -> float:
        """Decay time constant of the adaptation potential (``1/theta_decay``)."""
        if self.theta_decay <= 0:
            return float("inf")
        return 1.0 / self.theta_decay

    def simulation_parameters(self) -> SimulationParameters:
        """Timing parameters for :class:`repro.snn.network.Network`."""
        return SimulationParameters(dt=self.dt, t_sim=self.t_sim, t_rest=self.t_rest)

    # -- convenience constructors ---------------------------------------------

    def with_network_size(self, n_exc: int) -> "SpikeDynConfig":
        """Copy of this configuration with a different excitatory layer size."""
        return dataclasses.replace(self, n_exc=n_exc)

    def replace(self, **changes) -> "SpikeDynConfig":
        """Copy of this configuration with arbitrary field overrides."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def scaled_down(cls, *, n_input: int = 196, n_exc: int = 30,
                    t_sim: float = 60.0, update_interval: float = 10.0,
                    **overrides) -> "SpikeDynConfig":
        """Laptop-scale configuration used by tests and CI-sized experiments.

        The image is 14x14 instead of 28x28, the excitatory layer is small,
        and the presentation window is shortened; all learning mechanisms are
        otherwise identical to the paper-scale configuration.
        """
        return cls(
            n_input=n_input,
            n_exc=n_exc,
            t_sim=t_sim,
            t_rest=0.0,
            update_interval=update_interval,
            **overrides,
        )

    def to_dict(self) -> dict:
        """Plain-dict view of the configuration (for JSON serialization)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SpikeDynConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        A legacy ``backend`` key (written before the configuration stopped
        recording one) is checked and dropped.
        """
        data = dict(data)
        drop_legacy_backend(data)
        field_names = {spec.name for spec in dataclasses.fields(cls)}
        unknown = set(data) - field_names
        if unknown:
            raise ValueError(f"unknown configuration fields: {sorted(unknown)}")
        return cls(**data)
