"""The compute-backend kernel interface.

A :class:`Backend` bundles every *state-update kernel* the simulation engine
executes on its hot path — LIF membrane integration, threshold adaptation,
conductance/trace decay, synaptic propagation, and the in-place STDP
weight updates.  The orchestration layers (:mod:`repro.snn`,
:mod:`repro.learning`) own shapes, lifecycles, and
:class:`~repro.snn.simulation.OperationCounter` accounting; backends own
nothing but the arithmetic.  That split makes the kernels a substitution
seam: a caller hands a ``Backend`` instance to
``Network(backend=...)``, :meth:`~repro.snn.network.Network.set_backend` or
``model.set_backend``, and the network, models and serving layers run on it
unchanged.  The tests install the dense vector-matrix (GEMV) oracle in
``tests/gemv_oracle.py`` that way, and perfbench a wrapper that times
every kernel.

One kernel set ships: :class:`repro.backends.sparse.SparseEventBackend`
(``"sparse"``), the event-driven gather/scatter kernels that touch only
spiking rows/columns.  Every committed fixture is reproduced on it, and the
conformance suite in ``tests/backends/`` holds it against the GEMV oracle.
Retired backend names resolve to it through the alias table in
:mod:`repro.backends`.  Operation accounting is *modelled* (GPU-style dense
charging, paper Section III) rather than measured, so any backend reports
identical ``OperationCounter`` tallies for the same simulation.

Conventions shared by every kernel:

* The engine has one state shape: neuron and synapse state, spikes and
  currents are ``(batch, n)`` arrays, with ``batch = 1`` for every
  sequential run.  The STDP kernels take ``(n,)`` spike rows and traces,
  since learning is sequential (the rules hand them the rows of a batch
  of one, :meth:`repro.learning.base.LearningRule.spike_rows`).
* Decay factors are precomputed by the caller (``exp(-dt / tau)``) so all
  backends see the exact same scalar.
* Kernels may update their state arguments in place, and the state
  kernels must *return* the array holding the result either way, so an
  allocating kernel (the GEMV oracle) is just as valid.  The state
  arguments are ``v`` and ``refrac_remaining`` of
  :meth:`~Backend.lif_step` and ``theta`` of :meth:`~Backend.theta_step`,
  which callers rebind; ``values`` of :meth:`~Backend.decay_state` and
  :meth:`~Backend.bump_trace`, which callers land in the array they passed
  with :func:`store_state`, because conductances and spike traces are
  views of one buffer per decay phase; and ``conductance`` of the
  propagation kernels (always updated in place, nothing returned).  The STDP kernels
  update ``weights`` in place, touching only the spiking rows/columns, and
  return the count of weight updates they applied.  Every other argument
  (currents, thresholds, spikes, traces) is read only.
* Refractory clocks are never negative: :meth:`~Backend.lif_step` only
  counts them down to zero or sets them to ``refractory``, so a kernel may
  treat a zero clock as an idle neuron.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np


def store_state(values: np.ndarray, result: np.ndarray) -> np.ndarray:
    """Land a state kernel's ``result`` in ``values`` and return ``values``.

    In-place kernels hand ``values`` back and nothing is copied; an
    allocating kernel's result is copied in, so views of a shared state
    buffer stay live.
    """
    if result is not values:
        values[...] = result
    return values


class Backend(abc.ABC):
    """Abstract kernel set behind the simulation engine's hot path."""

    #: Name the network, the model and serving report (``backend_name``).
    name: str = "abstract"
    #: Whether :meth:`repro.snn.network.Network.run_events` jumps silent
    #: gaps by default on this kernel set.  ``run_events`` works on any
    #: backend; one declaring ``False`` steps through every timestep.
    supports_events: bool = False
    #: Read-only declarations left from the retired backend registry.
    #: Nothing in the package reads them; wrappers that copy them from the
    #: backend they wrap (perfbench's timing backend) keep working.
    description: str = ""
    equivalence_tier: str = "exact"
    state_rtol: float = 1e-9
    state_atol: float = 1e-12
    state_dtype = np.float64

    # -- neuron kernels ------------------------------------------------------

    @abc.abstractmethod
    def lif_step(self, v: np.ndarray, refrac_remaining: np.ndarray,
                 input_current: np.ndarray, threshold: np.ndarray, *,
                 decay: float, v_rest: float, v_reset: float,
                 refractory: float, dt: float):
        """One LIF timestep: decay, integrate, fire, reset.

        Returns the ``(v, spikes, refrac_remaining)`` triple for the next
        timestep; ``v`` and ``refrac_remaining`` may be updated in place,
        ``spikes`` is a new array.  ``threshold`` broadcasts against ``v``
        (it is ``(n,)`` for a fixed threshold).
        """

    @abc.abstractmethod
    def theta_step(self, theta: np.ndarray, spikes: np.ndarray, *,
                   decay: float, theta_plus: float) -> np.ndarray:
        """Threshold-adaptation update: decay ``theta``, bump it on spikes.

        ``theta`` may be updated in place; the result is returned.
        """

    # -- synapse kernels -----------------------------------------------------

    @abc.abstractmethod
    def decay_state(self, values: np.ndarray, decay) -> np.ndarray:
        """Exponential decay of a state vector, in place.

        ``decay`` is a scalar or a factor vector broadcasting against
        ``values``: the engine decays several state arrays held in one
        buffer with one call, each element by its own factor (``x * c`` is
        the same IEEE operation for a scalar ``c`` and a vector element).
        """

    @abc.abstractmethod
    def propagate_spikes(self, conductance: np.ndarray,
                         pre_spikes: np.ndarray,
                         weights: np.ndarray) -> None:
        """Add each spiking presynaptic neuron's weight row into the
        postsynaptic conductance, in place.

        ``conductance`` is ``(batch, n_post)`` and ``pre_spikes``
        ``(batch, n_pre)``.
        """

    @abc.abstractmethod
    def propagate_lateral(self, conductance: np.ndarray, spikes: np.ndarray,
                          strength: float) -> None:
        """Uniform lateral inhibition: every spike inhibits all *other*
        neurons of the group by ``strength``, accumulated in place."""

    # -- trace kernels -------------------------------------------------------

    @abc.abstractmethod
    def bump_trace(self, values: np.ndarray, spikes: np.ndarray,
                   increment: float, mode: str) -> np.ndarray:
        """Bump the traces of the spiking neurons (``'set'`` or ``'add'``)."""

    # -- STDP weight-update kernels ------------------------------------------

    @abc.abstractmethod
    def stdp_potentiation(self, pre_trace: np.ndarray,
                          post_spikes: np.ndarray, weights: np.ndarray, *,
                          nu: float, w_min: float, w_max: float,
                          soft_bounds: bool,
                          modulation: Optional[np.ndarray] = None) -> int:
        """Potentiate the spiking postsynaptic columns of ``weights`` in place.

        Each spiking column ``j`` gets the delta ``nu * pre_trace``, scaled
        by ``w_max - weights[:, j]`` under ``soft_bounds`` and then by
        ``modulation[j]`` when a per-column ``modulation`` is given (ASP's
        recency-modulated rate), in that operation order.  The delta is
        added and only the spiking columns are clipped into
        ``[w_min, w_max]``; every other column is left untouched.

        Returns the number of non-zero delta entries: the weight updates
        the caller charges to its ``OperationCounter``.
        """

    @abc.abstractmethod
    def stdp_depression(self, pre_spikes: np.ndarray,
                        post_trace: np.ndarray, weights: np.ndarray, *,
                        nu: float, w_min: float, w_max: float,
                        soft_bounds: bool) -> int:
        """Depress the spiking presynaptic rows of ``weights`` in place.

        Each spiking row gets ``nu * post_trace`` subtracted, scaled by
        ``weights[i] - w_min`` under ``soft_bounds``; only the spiking rows
        are clipped into ``[w_min, w_max]``, every other row is left
        untouched.  Returns the number of non-zero delta entries, as
        :meth:`stdp_potentiation` does.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
