"""The reference kernel set: event-driven gather/scatter kernels.

The paper's energy argument is that SNN work should scale with *spike
events*, not with state size.  :class:`SparseEventBackend` applies that idea
to the engine itself: synaptic propagation gathers and sums only the weight
rows of neurons that actually spiked, trace and threshold bumps scatter only
into spiking positions, and STDP updates gather, update, clip and write back
only the spiking rows/columns of the weights, in place.  Per-timestep cost
of the synaptic and STDP kernels is ``O(n_events * fanout)`` instead of
``O(n_pre * n_post)``.  The neuron kernels work in place.  ``lif_step``
decays and integrates every membrane, since those are full-width by
nature, but holds, resets and re-clocks only the refractory and spiking
neurons (each set found with one flat index), and skips the refractory
bookkeeping when no clock runs; ``theta_step`` decays ``theta`` and bumps
only the spiking positions.

Batched propagation adds each spiking sample's rows first to last, exactly
as the single-sample gather does, so a batch is bit-for-bit equal to the
same samples run one at a time.  Large batches walk each spiking sample's
row through the single-sample gather, so the gathered temporary never
exceeds one sample's rows; small ones sum a zero-padded (sample, row, post)
block of at most :data:`PADDED_BLOCK_ELEMENTS` in one call, where the
per-sample Python loop would cost more than the arithmetic.

Numerical contract: every scalar operation applied to a touched element is
the one the dense vector-matrix formulation applies, so membrane, clock,
trace, theta, and STDP results are bit-for-bit equal to it.  Propagation
sums the spiking weight rows in order (``weights[active].sum(axis=0)``)
instead of a length-n dot product over mostly zeros; the conformance suite
holds it to the ``exact`` tier against the GEMV oracle in
``tests/gemv_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend


#: Largest zero-padded gather block (elements, 256 KB of float64) a batched
#: ``propagate_spikes`` sums in one call.  Paper-scale batches (784 x 400)
#: exceed it and gather per sample, where the rows stay in cache.
PADDED_BLOCK_ELEMENTS = 1 << 15


def _add_rows(conductance: np.ndarray, active: np.ndarray,
              weights: np.ndarray) -> None:
    """Add the weight rows listed in ``active`` (ascending), in place."""
    if active.size == 1:
        conductance += weights[active[0]]
    elif active.size:
        conductance += weights[active].sum(axis=0)


class SparseEventBackend(Backend):
    """Event-driven kernels: gather/scatter on spike positions only."""

    name = "sparse"
    description = (
        "Event-driven gather/scatter kernels; synaptic work scales with "
        "spike events (O(events * fanout)); the reference kernel set"
    )
    # Drives Network.run_events' analytic silent-gap jumps by default.
    supports_events = True

    # -- neuron kernels ------------------------------------------------------

    def lif_step(self, v, refrac_remaining, input_current, threshold, *,
                 decay, v_rest, v_reset, refractory, dt):
        # Exponential membrane decay towards the resting potential, in place:
        # the dense ``v_rest + (v - v_rest) * decay`` (addition commutes).
        v -= v_rest
        v *= decay
        v += v_rest
        # ``x * 1.0 == x`` exactly, so the usual dt = 1 ms skips a pass.
        drive = input_current if dt == 1.0 else input_current * dt
        # Flat indices (``take``/``put``) address a neuron in either shape.
        # Clocks never go negative, so a zero clock is an idle neuron, and
        # it stays zero: ``max(0 - dt, 0) == 0``.
        held = (refrac_remaining > 0.0).ravel().nonzero()[0]
        if held.size:
            # Refractory neurons keep their decayed potential, cannot fire
            # and count down.
            kept = v.take(held)
            v += drive
            v.put(held, kept)
            spikes = v >= threshold
            spikes.put(held, False)
            refrac_remaining.put(
                held, np.maximum(refrac_remaining.take(held) - dt, 0.0))
        else:
            v += drive
            spikes = v >= threshold
        fired = spikes.ravel().nonzero()[0]
        if fired.size:
            v.put(fired, v_reset)
            refrac_remaining.put(fired, refractory)
        return v, spikes, refrac_remaining

    def theta_step(self, theta, spikes, *, decay, theta_plus):
        theta *= decay
        if theta_plus > 0.0:
            fired = spikes.ravel().nonzero()[0]
            if fired.size:
                # Bump the spiking positions only; adding ``theta_plus * 1.0``
                # there is the exact dense arithmetic.
                theta.put(fired, theta.take(fired) + theta_plus)
        return theta

    # -- synapse kernels -----------------------------------------------------

    def decay_state(self, values, decay):
        values *= decay
        return values

    def propagate_spikes(self, conductance, pre_spikes, weights):
        if pre_spikes.ndim == 2 and len(pre_spikes) == 1:
            # A batch of one (serving's usual micro-batch) is a row view.
            conductance, pre_spikes = conductance[0], pre_spikes[0]
        if pre_spikes.ndim == 1:
            _add_rows(conductance, np.flatnonzero(pre_spikes), weights)
            return
        counts = np.count_nonzero(pre_spikes, axis=1)
        active = np.flatnonzero(counts)
        if not active.size:
            return
        counts = counts[active]
        width = int(counts.max())
        n_post = weights.shape[1]
        # With one column NumPy sums the rows pairwise instead of first to
        # last, so padding would regroup them: gather per sample instead.
        if n_post > 1 and active.size * width * n_post <= PADDED_BLOCK_ELEMENTS:
            pres = np.nonzero(pre_spikes)[1]
            starts = np.cumsum(counts) - counts
            # Row k of a sample's block is its k-th spiking row, then zeros;
            # summing over rows adds them first to last, and + 0.0 is exact.
            block = np.zeros((active.size, width, n_post))
            block[np.repeat(np.arange(active.size), counts),
                  np.arange(pres.size) - np.repeat(starts, counts)] = weights[pres]
            conductance[active] += block.sum(axis=1)
            return
        # ``conductance[sample]`` is a row view: the in-place add lands in
        # the batch.
        for sample in active.tolist():
            _add_rows(conductance[sample], pre_spikes[sample].nonzero()[0], weights)

    def propagate_lateral(self, conductance, spikes, strength):
        if spikes.ndim == 1:
            n_spiking = int(np.count_nonzero(spikes))
            if n_spiking:
                # Every neuron is inhibited by the spikes of all *other*
                # neurons.
                conductance += strength * n_spiking - strength * spikes.astype(float)
            return
        counts = spikes.sum(axis=1, dtype=float)
        active = np.flatnonzero(counts)
        if active.size:
            conductance[active] += (
                strength * counts[active][:, None]
                - strength * spikes[active].astype(float)
            )

    # -- trace kernels -------------------------------------------------------

    def bump_trace(self, values, spikes, increment, mode):
        # count_nonzero is ~3x cheaper than any() on small bool arrays.
        if not np.count_nonzero(spikes):
            return values
        if mode == "set":
            # ~1.5x faster than ``values[spikes] = increment``, same writes.
            np.putmask(values, spikes, increment)
        else:
            values[spikes] += increment
        return values

    # -- STDP weight-update kernels ------------------------------------------

    def stdp_potentiation(self, pre_trace, post_spikes, weights, *,
                          nu, w_min, w_max, soft_bounds, modulation=None):
        active = np.flatnonzero(post_spikes)
        if not active.size:
            return 0
        column = nu * np.asarray(pre_trace, dtype=float)
        block = weights[:, active]
        if soft_bounds:
            delta = column[:, None] * (w_max - block)
        else:
            delta = np.broadcast_to(column[:, None], block.shape)
        if modulation is not None:
            delta = delta * modulation[active]
        block += delta
        np.clip(block, w_min, w_max, out=block)
        weights[:, active] = block
        # Counting a boolean mask is ~3x faster than counting floats.
        return int(np.count_nonzero(delta != 0.0))

    def stdp_depression(self, pre_spikes, post_trace, weights, *,
                        nu, w_min, w_max, soft_bounds):
        active = np.flatnonzero(pre_spikes)
        if not active.size:
            return 0
        row = nu * np.asarray(post_trace, dtype=float)
        block = weights[active]
        if soft_bounds:
            delta = row * (block - w_min)
        else:
            delta = np.broadcast_to(row, block.shape)
        block -= delta
        np.clip(block, w_min, w_max, out=block)
        weights[active] = block
        return int(np.count_nonzero(delta != 0.0))
