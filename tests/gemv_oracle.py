"""The dense GEMV oracle the reference kernel set is held against.

:class:`GemvOracle` is the engine's original dense hot-path arithmetic: a
full vector-matrix product (GEMV) per propagation step, full-matrix
outer-product STDP deltas added to every weight, and ``np.where`` trace
bumps.  The golden trace and the engine fixture (``tests/data/``) were
generated on these kernels.  No name resolves to them: work is
``O(state size)`` per step regardless of spike sparsity, so the engine runs
the event-driven :class:`~repro.backends.sparse.SparseEventBackend`, and
the conformance suite and the throughput gates compare it with this oracle.

Its neuron kernels allocate fresh arrays (``np.where``) where the sparse
kernels update ``v``, the refractory clocks and ``theta`` in place; callers
rebind, so both obey the :class:`~repro.backends.base.Backend` conventions.

Run a network on it with ``network.set_backend(GemvOracle())``; the
network and the model then report ``backend_name == "gemv-oracle"``, and
nothing else about them changes.  Benchmarks
and scripts outside the test tree load this file by path with
``importlib``, since ``tests/`` is not a package.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend


class GemvOracle(Backend):
    """Vectorized dense kernels (the bit-for-bit fixture reference)."""

    name = "gemv-oracle"

    # -- neuron kernels ------------------------------------------------------

    def lif_step(self, v, refrac_remaining, input_current, threshold, *,
                 decay, v_rest, v_reset, refractory, dt):
        v = v_rest + (v - v_rest) * decay
        active = refrac_remaining <= 0.0
        v = np.where(active, v + input_current * dt, v)
        spikes = active & (v >= threshold)
        v = np.where(spikes, v_reset, v)
        refrac_remaining = np.where(
            spikes, refractory, np.maximum(refrac_remaining - dt, 0.0)
        )
        return v, spikes, refrac_remaining

    def theta_step(self, theta, spikes, *, decay, theta_plus):
        theta = theta * decay
        if theta_plus > 0.0:
            theta = theta + theta_plus * spikes
        return theta

    # -- synapse kernels -----------------------------------------------------

    def decay_state(self, values, decay):
        values *= decay
        return values

    def propagate_spikes(self, conductance, pre_spikes, weights):
        if pre_spikes.ndim == 1:
            if np.count_nonzero(pre_spikes):
                conductance += pre_spikes.astype(float) @ weights
        else:
            # One vector-matrix product per spiking sample: the exact BLAS
            # call of the single-sample path, so batched == sequential.
            spikes_float = pre_spikes.astype(float)
            for index in np.flatnonzero(pre_spikes.any(axis=1)):
                conductance[index] += spikes_float[index] @ weights

    def propagate_lateral(self, conductance, spikes, strength):
        if spikes.ndim == 1:
            n_spiking = int(np.count_nonzero(spikes))
            if n_spiking:
                total = strength * n_spiking
                conductance += total - strength * spikes.astype(float)
        elif spikes.any():
            totals = strength * spikes.sum(axis=1, dtype=float)
            conductance += totals[:, None] - strength * spikes.astype(float)

    # -- trace kernels -------------------------------------------------------

    def bump_trace(self, values, spikes, increment, mode):
        if mode == "set":
            return np.where(spikes, increment, values)
        return values + increment * spikes

    # -- STDP weight-update kernels ------------------------------------------

    def stdp_potentiation(self, pre_trace, post_spikes, weights, *,
                          nu, w_min, w_max, soft_bounds, modulation=None):
        delta = nu * np.outer(np.asarray(pre_trace, dtype=float),
                              post_spikes.astype(float))
        if soft_bounds:
            delta *= w_max - weights
        if modulation is not None:
            delta *= modulation[None, :]
        weights += delta
        weights[:, post_spikes] = np.clip(weights[:, post_spikes], w_min, w_max)
        return int(np.count_nonzero(delta))

    def stdp_depression(self, pre_spikes, post_trace, weights, *,
                        nu, w_min, w_max, soft_bounds):
        delta = nu * np.outer(pre_spikes.astype(float),
                              np.asarray(post_trace, dtype=float))
        if soft_bounds:
            delta *= weights - w_min
        weights -= delta
        weights[pre_spikes] = np.clip(weights[pre_spikes], w_min, w_max)
        return int(np.count_nonzero(delta))
