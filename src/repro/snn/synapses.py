"""Synaptic connections between neuron groups.

A :class:`Connection` holds a dense weight matrix and a per-postsynaptic
conductance vector.  When a presynaptic neuron spikes, the conductance of
every postsynaptic target is increased by the corresponding weight; otherwise
the conductance decays exponentially (paper Section II).  The connection's
``sign`` determines whether the resulting current is excitatory (+1) or
inhibitory (-1), which is how direct lateral inhibition is expressed without
an explicit inhibitory neuron layer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backends import BackendLike, get_backend
from repro.snn.neurons import NeuronGroup
from repro.snn.simulation import OperationCounter
from repro.utils.validation import check_positive, check_positive_int


class Connection:
    """Dense synaptic projection from ``pre`` to ``post``.

    Parameters
    ----------
    pre, post:
        Source and target neuron groups.
    weights:
        Weight matrix of shape ``(pre.n, post.n)``.  Weights are kept
        non-negative; inhibition is expressed through ``sign``.
    sign:
        ``+1`` for an excitatory projection, ``-1`` for an inhibitory one.
    tau_syn:
        Exponential decay time constant of the postsynaptic conductance (ms).
    w_min, w_max:
        Bounds applied when a learning rule modifies the weights.
    gain:
        Scalar multiplier converting conductance into input current.
    learning_rule:
        Optional object implementing ``on_sample_start(connection)``,
        ``step(connection, dt, t_index, counter)`` and
        ``on_sample_end(connection, counter)``; attached learned projections
        are updated by :class:`~repro.snn.network.Network` every timestep.
    norm:
        Optional target for per-postsynaptic-neuron incoming weight sums.
        When set, :meth:`normalize` rescales each column of the weight matrix
        to this total (the standard Diehl & Cook weight normalization).
    name:
        Connection identifier.
    backend:
        Compute backend executing the propagation kernels; defaults to the
        reference backend and is overwritten with the network's
        backend by :meth:`repro.snn.network.Network.add_connection`.
    """

    def __init__(
        self,
        pre: NeuronGroup,
        post: NeuronGroup,
        weights: np.ndarray,
        *,
        sign: int = 1,
        tau_syn: float = 5.0,
        w_min: float = 0.0,
        w_max: float = 1.0,
        gain: float = 1.0,
        learning_rule=None,
        norm: Optional[float] = None,
        name: str = "connection",
        backend: BackendLike = None,
    ) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (pre.n, post.n):
            raise ValueError(
                f"weights must have shape ({pre.n}, {post.n}), got {weights.shape}"
            )
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if w_max <= w_min:
            raise ValueError(f"w_max ({w_max}) must exceed w_min ({w_min})")

        self.pre = pre
        self.post = post
        self.weights = weights.copy()
        self.sign = int(sign)
        self.tau_syn = check_positive(tau_syn, "tau_syn")
        self.w_min = float(w_min)
        self.w_max = float(w_max)
        self.gain = float(gain)
        self.learning_rule = learning_rule
        self.norm = None if norm is None else float(norm)
        self.name = str(name)
        self.backend = get_backend(backend)

        self.conductance = np.zeros(post.n, dtype=float)
        self._batch_size: Optional[int] = None
        self._refresh_fanout()

    # -- batch lifecycle ----------------------------------------------------

    @property
    def batch_size(self) -> Optional[int]:
        """Active batch size, or ``None`` outside batch mode."""
        return self._batch_size

    def begin_batch(self, batch_size: int) -> None:
        """Switch the conductance to a ``(batch_size, post.n)`` buffer."""
        if self._batch_size is not None:
            raise RuntimeError(
                f"connection {self.name!r} is already in batch mode "
                f"(batch_size={self._batch_size})"
            )
        self._batch_size = check_positive_int(batch_size, "batch_size")
        self.conductance = np.zeros((self._batch_size, self.post.n), dtype=float)

    def end_batch(self) -> None:
        """Return to a single-sample conductance (no-op outside batch mode)."""
        if self._batch_size is None:
            return
        self._batch_size = None
        self.conductance = np.zeros(self.post.n, dtype=float)

    # -- bookkeeping --------------------------------------------------------

    def _refresh_fanout(self) -> None:
        """Recompute the synapse count charged per simulation step.

        The energy methodology of the paper measures GPU executions, where a
        stored projection is processed as a dense (or structurally sparse)
        tensor operation every timestep.  Plastic projections are charged for
        the full dense matrix; fixed topologies (e.g. the one-to-one
        excitatory->inhibitory projection) only for their structurally
        non-zero weights.
        """
        if self.is_plastic:
            self._ops_per_step = int(self.weights.size)
        else:
            self._ops_per_step = int(np.count_nonzero(self.weights))

    @property
    def fanout(self) -> float:
        """Average number of stored synapses per presynaptic neuron."""
        return self._ops_per_step / self.pre.n if self.pre.n else 0.0

    @property
    def weight_count(self) -> int:
        """Number of stored synaptic weights (used by the memory model).

        Plastic (learned) projections store the full dense matrix; fixed
        topologies only store their structurally non-zero weights.
        """
        return self._ops_per_step

    @property
    def is_plastic(self) -> bool:
        """Whether a learning rule is attached to this connection."""
        return self.learning_rule is not None

    def reset_state(self, full: bool = False) -> None:
        """Clear the conductance (and, with ``full``, learning-rule state)."""
        self.conductance[:] = 0.0
        if full and self.learning_rule is not None:
            reset = getattr(self.learning_rule, "reset", None)
            if callable(reset):
                reset()

    # -- simulation ---------------------------------------------------------

    def decay_factor(self, dt: float) -> float:
        """Per-step conductance decay ``exp(-dt / tau_syn)``."""
        return np.exp(-dt / self.tau_syn)

    def inject(self) -> None:
        """Add this step's presynaptic spikes into the conductance.

        The compiled step plan decays the conductances of all connections
        first, in one call, then injects each.  In batch mode the
        presynaptic spikes have shape ``(batch_size, pre.n)``; the backend
        gathers only the spiking weight rows, one spiking sample at a time
        (bit-for-bit identical to the sequential path).
        """
        self.backend.propagate_spikes(self.conductance, self.pre.spikes,
                                      self.weights)

    def step_operations(self) -> dict:
        """Operation tallies of one step: the decay plus :meth:`inject`."""
        # Dense (GPU-style) accounting: the stored projection is processed
        # once per timestep regardless of how many presynaptic spikes
        # occurred, matching the paper's GPU-based energy measurements.
        batch = self._batch_size or 1
        return {"exponential_ops": self.post.n * batch,
                "synaptic_events": self._ops_per_step * batch}

    # -- plasticity helpers -------------------------------------------------

    def clip_weights(self) -> None:
        """Clamp the weights into ``[w_min, w_max]`` in place."""
        np.clip(self.weights, self.w_min, self.w_max, out=self.weights)

    def normalize(self, counter: Optional[OperationCounter] = None) -> None:
        """Rescale incoming weights of every postsynaptic neuron to ``norm``.

        No-op when ``norm`` is ``None``.
        """
        if self.norm is None:
            return
        column_sums = self.weights.sum(axis=0)
        # Avoid division by zero for silent columns.
        safe = np.where(column_sums > 0.0, column_sums, 1.0)
        self.weights *= self.norm / safe
        self.clip_weights()
        if counter is not None:
            counter.add(weight_updates=self.weights.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "exc" if self.sign > 0 else "inh"
        return (
            f"Connection(name={self.name!r}, {self.pre.name}->{self.post.name}, "
            f"shape={self.weights.shape}, sign={kind}, plastic={self.is_plastic})"
        )


class UniformLateralInhibition:
    """Direct lateral inhibition with a single shared strength (SpikeDyn).

    This is the paper's Section III-B mechanism: instead of routing
    excitatory spikes through an inhibitory neuron layer (one-to-one
    excitatory->inhibitory plus dense inhibitory->excitatory projections),
    every excitatory spike directly inhibits all *other* excitatory neurons
    with a single shared strength.  Because the strength is uniform, the
    projection needs no stored weight matrix and can be evaluated with an
    O(n) broadcast per timestep — this is where the memory and energy savings
    of the optimized architecture come from (paper Fig. 4).

    The class implements the same interface as :class:`Connection` so the
    :class:`~repro.snn.network.Network` treats it uniformly.

    Parameters
    ----------
    group:
        The excitatory group that inhibits itself laterally.
    strength:
        Inhibitory conductance increment contributed by one spike (positive
        number; the delivered current is negative).
    tau_syn:
        Exponential decay time constant of the inhibitory conductance (ms).
    gain:
        Scalar multiplier converting conductance into current.
    name:
        Connection identifier.
    """

    def __init__(self, group: NeuronGroup, strength: float, *,
                 tau_syn: float = 2.0, gain: float = 1.0,
                 name: str = "lateral_inhibition",
                 backend: BackendLike = None) -> None:
        if strength < 0:
            raise ValueError(f"strength must be >= 0, got {strength}")
        self.pre = group
        self.post = group
        self.backend = get_backend(backend)
        self.strength = float(strength)
        self.tau_syn = check_positive(tau_syn, "tau_syn")
        self.gain = float(gain)
        self.sign = -1
        self.learning_rule = None
        self.norm = None
        self.name = str(name)
        self.conductance = np.zeros(group.n, dtype=float)
        self._batch_size: Optional[int] = None

    # -- batch lifecycle ----------------------------------------------------

    @property
    def batch_size(self) -> Optional[int]:
        """Active batch size, or ``None`` outside batch mode."""
        return self._batch_size

    def begin_batch(self, batch_size: int) -> None:
        """Switch the conductance to a ``(batch_size, n)`` buffer."""
        if self._batch_size is not None:
            raise RuntimeError(
                f"connection {self.name!r} is already in batch mode "
                f"(batch_size={self._batch_size})"
            )
        self._batch_size = check_positive_int(batch_size, "batch_size")
        self.conductance = np.zeros((self._batch_size, self.post.n), dtype=float)

    def end_batch(self) -> None:
        """Return to a single-sample conductance (no-op outside batch mode)."""
        if self._batch_size is None:
            return
        self._batch_size = None
        self.conductance = np.zeros(self.post.n, dtype=float)

    @property
    def is_plastic(self) -> bool:
        """Lateral inhibition is never learned."""
        return False

    @property
    def weight_count(self) -> int:
        """Only the single shared strength is stored."""
        return 1

    @property
    def fanout(self) -> float:
        """Each spike reaches every other neuron in the group."""
        return float(self.post.n - 1)

    def reset_state(self, full: bool = False) -> None:
        """Clear the inhibitory conductance."""
        self.conductance[:] = 0.0

    def decay_factor(self, dt: float) -> float:
        """Per-step conductance decay ``exp(-dt / tau_syn)``."""
        return np.exp(-dt / self.tau_syn)

    def inject(self) -> None:
        """Add this step's lateral inhibition into the conductance (see
        :meth:`Connection.inject`)."""
        self.backend.propagate_lateral(self.conductance, self.pre.spikes,
                                       self.strength)

    def step_operations(self) -> dict:
        """Operation tallies of one step: the decay plus :meth:`inject`."""
        # O(n) broadcast: decay plus a scalar subtraction per neuron.
        size = self.post.n * (self._batch_size or 1)
        return {"exponential_ops": size, "synaptic_events": size}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UniformLateralInhibition(group={self.pre.name!r}, "
            f"strength={self.strength}, tau_syn={self.tau_syn})"
        )
