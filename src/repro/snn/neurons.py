"""Neuron group models.

Three neuron groups are provided:

``InputGroup``
    Spike source fed a pre-computed spike train (e.g. a Poisson rate-coded
    image) one row per timestep.
``LIFGroup``
    Leaky Integrate-and-Fire neurons with exponential membrane decay,
    refractory period, and a fixed firing threshold.  Used for the inhibitory
    layer of the baseline architecture.
``AdaptiveLIFGroup``
    LIF neurons with an adaptation potential ``theta`` added to the firing
    threshold (``V_th + theta``), increased on every spike and exponentially
    decaying otherwise.  Used for the excitatory layer, exactly as in
    Diehl & Cook (2015) and in the SpikeDyn paper's Section II.

All state is vectorized.  A group of ``n`` neurons keeps ``n``-element
numpy arrays at rest; a compiled :class:`~repro.snn.plan.StepPlan` advances
it one timestep per :meth:`~NeuronGroup.integrate` call, with the summed
current of the group's incoming connections.

One state shape
---------------
Every run advances ``(B, n)`` state: ``B`` samples for
:meth:`repro.snn.network.Network.run_batch` and ``B = 1`` for every
sequential run.  The arrays named in :attr:`~NeuronGroup.state_names` are
``(n,)`` between runs; :meth:`repro.snn.plan.StepPlan.begin` replaces each
with ``B`` stacked copies and :meth:`~repro.snn.plan.StepPlan.end` puts the
``(n,)`` arrays back.  Every state update is elementwise, so sample ``b``
of a batch performs exactly the floating-point operations a run of that
sample alone performs, and results are bit-for-bit identical.  Only a
sequential run writes its row back, so a batch never moves the persistent
adaptation state (``theta``).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.backends import BackendLike, get_backend
from repro.utils.validation import check_non_negative, check_positive, check_positive_int


class NeuronGroup:
    """Base class for all neuron groups.

    Parameters
    ----------
    n:
        Number of neurons in the group.
    name:
        Human-readable identifier; the network keys its groups and spike
        counts by it.
    backend:
        Compute backend executing the group's state-update kernels; defaults
        to the reference backend.  :meth:`repro.snn.network.Network.
        add_group` overwrites it with the network's backend, so the network
        is the single place that decides the compute policy.
    """

    #: The per-neuron state arrays a run advances in ``(B, n)`` copies.
    state_names: tuple = ("spikes",)

    def __init__(self, n: int, name: str = "group",
                 backend: BackendLike = None) -> None:
        self.n = check_positive_int(n, "n")
        self.name = str(name)
        self.backend = get_backend(backend)
        self.spikes = np.zeros(self.n, dtype=bool)

    # -- properties ---------------------------------------------------------

    @property
    def parameter_count(self) -> int:
        """Number of per-neuron state parameters held in memory.

        Used by the analytical memory model (Section III-C of the paper):
        each neuron parameter contributes ``bit_precision`` bits.
        """
        return 0

    # -- lifecycle ----------------------------------------------------------

    def reset_state(self, full: bool = False) -> None:
        """Clear transient state between samples.

        Parameters
        ----------
        full:
            When ``True`` also clear slowly-varying adaptation state (e.g.
            the threshold adaptation ``theta``), returning the group to its
            construction-time state.
        """
        # Reassign instead of zeroing in place: ``spikes`` may alias external
        # data (e.g. the spike-train row the step plan fed an InputGroup).
        self.spikes = np.zeros(self.n, dtype=bool)

    # -- compiled stepping ----------------------------------------------------

    def decay_factors(self, dt: float) -> tuple:
        """The group's per-step ``exp(-dt / tau)`` factors.

        A compiled :class:`~repro.snn.plan.StepPlan` evaluates them once and
        hands them back to every :meth:`integrate` call.
        """
        return ()

    def integrate(self, input_current: np.ndarray, dt: float,
                  decays: tuple) -> None:
        """One timestep from an already validated current and precomputed
        :meth:`decay_factors`, without operation tallies (the step plan
        charges :meth:`step_operations` once per run)."""
        raise NotImplementedError

    def step_operations(self) -> Dict[str, int]:
        """Operation tallies of one sample's :meth:`integrate` call that
        do not depend on spikes."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, n={self.n})"


class InputGroup(NeuronGroup):
    """Spike-source group: the network's step plan writes each timestep's
    row of an externally supplied spike train into :attr:`spikes`."""

    def __init__(self, n: int, name: str = "input") -> None:
        super().__init__(n, name)

    @property
    def parameter_count(self) -> int:
        # Input neurons carry no persistent state parameters.
        return 0

    def validate_train(self, trains: np.ndarray) -> np.ndarray:
        """``trains`` as a boolean ``(batch_size, timesteps, n)`` array of
        at least one train.  A boolean array is returned as is, without a
        copy; the engine only reads it."""
        trains = np.asarray(trains)
        if trains.ndim != 3 or trains.shape[2] != self.n:
            raise ValueError(
                "spike_trains must have shape (batch_size, timesteps, "
                f"n_input) with {self.n} input channels, got {trains.shape}"
            )
        if len(trains) == 0:
            raise ValueError("a batch must hold at least one spike train")
        return trains.astype(bool, copy=False)


class LIFGroup(NeuronGroup):
    """Leaky Integrate-and-Fire neurons.

    The membrane potential follows exponential decay towards ``v_rest`` and
    integrates the synaptic input current::

        v <- v_rest + (v - v_rest) * exp(-dt / tau_m) + I * dt

    A neuron fires when ``v`` exceeds :meth:`firing_threshold`, after which
    the potential is clamped to ``v_reset`` for ``refractory`` milliseconds.

    Parameters
    ----------
    n:
        Number of neurons.
    v_rest, v_reset, v_thresh:
        Resting, reset, and threshold potentials (mV).
    tau_m:
        Membrane time constant (ms).
    refractory:
        Absolute refractory period (ms).
    name:
        Group identifier.
    """

    state_names = ("spikes", "v", "refrac_remaining")

    def __init__(
        self,
        n: int,
        *,
        v_rest: float = -65.0,
        v_reset: float = -65.0,
        v_thresh: float = -52.0,
        tau_m: float = 100.0,
        refractory: float = 5.0,
        name: str = "lif",
    ) -> None:
        super().__init__(n, name)
        if v_thresh <= v_reset:
            raise ValueError(
                f"v_thresh ({v_thresh}) must be above v_reset ({v_reset})"
            )
        self.v_rest = float(v_rest)
        self.v_reset = float(v_reset)
        self.v_thresh = float(v_thresh)
        self.tau_m = check_positive(tau_m, "tau_m")
        self.refractory = check_non_negative(refractory, "refractory")

        self.v = np.full(self.n, self.v_rest, dtype=float)
        self.refrac_remaining = np.zeros(self.n, dtype=float)

    @property
    def parameter_count(self) -> int:
        # Membrane potential and refractory timer per neuron.
        return 2 * self.n

    def firing_threshold(self) -> np.ndarray:
        """Per-neuron firing threshold (``V_th`` for a plain LIF group)."""
        return np.full(self.n, self.v_thresh, dtype=float)

    def reset_state(self, full: bool = False) -> None:
        super().reset_state(full)
        self.v[:] = self.v_rest
        self.refrac_remaining[:] = 0.0

    def decay_factors(self, dt: float) -> tuple:
        return (np.exp(-dt / self.tau_m),)

    def integrate(self, input_current: np.ndarray, dt: float,
                  decays: tuple) -> None:
        # Decay, integrate, fire, reset — executed by the active backend
        # (the decay factor is precomputed so every backend sees the same
        # scalar).
        self.v, self.spikes, self.refrac_remaining = self.backend.lif_step(
            self.v,
            self.refrac_remaining,
            input_current,
            self.firing_threshold(),
            decay=decays[0],
            v_rest=self.v_rest,
            v_reset=self.v_reset,
            refractory=self.refractory,
            dt=dt,
        )
        self._post_spike_update(decays)

    def step_operations(self) -> Dict[str, int]:
        return {"neuron_updates": self.n, "exponential_ops": self.n}

    def _post_spike_update(self, decays: tuple) -> None:
        """Hook for subclasses to update adaptation state after spiking."""


class AdaptiveLIFGroup(LIFGroup):
    """LIF neurons with an adaptive threshold potential ``V_th + theta``.

    Each spike increases the neuron's adaptation potential ``theta`` by
    ``theta_plus``; otherwise ``theta`` decays exponentially with time
    constant ``tau_theta``.  This is the homeostatic mechanism that prevents
    single neurons from dominating the spiking activity (paper Section II).

    Parameters
    ----------
    theta_plus:
        Increment added to ``theta`` on every spike (mV).
    tau_theta:
        Exponential decay time constant of ``theta`` (ms).  The paper calls
        the corresponding decay rate ``theta_decay``.
    theta_init:
        Initial adaptation potential applied to all neurons (mV).
    """

    state_names = LIFGroup.state_names + ("theta",)

    def __init__(
        self,
        n: int,
        *,
        v_rest: float = -65.0,
        v_reset: float = -65.0,
        v_thresh: float = -52.0,
        tau_m: float = 100.0,
        refractory: float = 5.0,
        theta_plus: float = 0.05,
        tau_theta: float = 1.0e7,
        theta_init: float = 0.0,
        name: str = "excitatory",
    ) -> None:
        super().__init__(
            n,
            v_rest=v_rest,
            v_reset=v_reset,
            v_thresh=v_thresh,
            tau_m=tau_m,
            refractory=refractory,
            name=name,
        )
        self.theta_plus = check_non_negative(theta_plus, "theta_plus")
        self.tau_theta = check_positive(tau_theta, "tau_theta")
        self.theta_init = check_non_negative(theta_init, "theta_init")
        self.theta = np.full(self.n, self.theta_init, dtype=float)
        self.adapt_theta = True

    @property
    def parameter_count(self) -> int:
        # Membrane potential, refractory timer, and theta per neuron.
        return 3 * self.n

    def firing_threshold(self) -> np.ndarray:
        return self.v_thresh + self.theta

    def reset_state(self, full: bool = False) -> None:
        super().reset_state(full)
        if full:
            self.theta[:] = self.theta_init

    def decay_factors(self, dt: float) -> tuple:
        return (np.exp(-dt / self.tau_m), np.exp(-dt / self.tau_theta))

    def step_operations(self) -> Dict[str, int]:
        operations = super().step_operations()
        if self.adapt_theta:
            # Read on every call: adapt_theta may be flipped on a built network.
            operations["neuron_updates"] += self.n
            operations["exponential_ops"] += self.n
        return operations

    def _post_spike_update(self, decays: tuple) -> None:
        if not self.adapt_theta:
            return
        # Exponential decay of theta, plus an additive boost on spikes.
        self.theta = self.backend.theta_step(
            self.theta,
            self.spikes,
            decay=decays[1],
            theta_plus=self.theta_plus,
        )
