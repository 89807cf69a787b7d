"""Kernel-level equivalence between the sparse backend and the GEMV oracle.

Every sparse kernel must compute the same values as the dense oracle's;
for the scatter-style kernels (trace bumps, theta bumps, STDP updates) the
scalar arithmetic is identical so the results must be *bit-for-bit* equal,
while the gather/segment-sum propagation kernels may differ by last-ULP
rounding (different association order) and are compared with a tight
``allclose``.
"""

from __future__ import annotations

import numpy as np
import pytest

from gemv_oracle import GemvOracle

from repro.backends import get_backend

DENSE = GemvOracle()
SPARSE = get_backend("sparse")


def _spikes(shape, density, seed):
    return np.random.default_rng(seed).random(shape) < density


@pytest.mark.parametrize("density", [0.0, 0.03, 0.5, 1.0])
@pytest.mark.parametrize("batched", [False, True])
class TestPropagation:
    def test_propagate_spikes_matches_dense(self, density, batched):
        rng = np.random.default_rng(7)
        n_pre, n_post, batch = 37, 11, 5
        shape = (batch, n_pre) if batched else (n_pre,)
        spikes = _spikes(shape, density, seed=1)
        weights = rng.random((n_pre, n_post))
        cond_shape = (batch, n_post) if batched else (n_post,)
        dense_cond = rng.random(cond_shape)
        sparse_cond = dense_cond.copy()

        DENSE.propagate_spikes(dense_cond, spikes, weights)
        SPARSE.propagate_spikes(sparse_cond, spikes, weights)
        np.testing.assert_allclose(sparse_cond, dense_cond,
                                   rtol=1e-12, atol=1e-12)

    def test_propagate_lateral_matches_dense(self, density, batched):
        rng = np.random.default_rng(8)
        n, batch = 23, 4
        shape = (batch, n) if batched else (n,)
        spikes = _spikes(shape, density, seed=2)
        dense_cond = rng.random(shape)
        sparse_cond = dense_cond.copy()

        DENSE.propagate_lateral(dense_cond, spikes, 17.0)
        SPARSE.propagate_lateral(sparse_cond, spikes, 17.0)
        np.testing.assert_array_equal(sparse_cond, dense_cond)


class TestPropagationEvents:
    def test_single_spike_adds_exactly_one_weight_row(self):
        weights = np.arange(12.0).reshape(4, 3)
        spikes = np.array([False, False, True, False])
        conductance = np.zeros(3)
        SPARSE.propagate_spikes(conductance, spikes, weights)
        np.testing.assert_array_equal(conductance, weights[2])

    def test_batched_segments_land_on_the_right_samples(self):
        weights = np.eye(4)
        spikes = np.zeros((3, 4), dtype=bool)
        spikes[0, [0, 2]] = True  # sample 0: rows 0 and 2
        spikes[2, 3] = True       # sample 2: row 3; sample 1 silent
        conductance = np.zeros((3, 4))
        SPARSE.propagate_spikes(conductance, spikes, weights)
        np.testing.assert_array_equal(conductance[0], [1, 0, 1, 0])
        np.testing.assert_array_equal(conductance[1], 0.0)
        np.testing.assert_array_equal(conductance[2], [0, 0, 0, 1])

    def test_no_spikes_is_a_no_op(self):
        conductance = np.full((2, 3), 0.5)
        SPARSE.propagate_spikes(conductance, np.zeros((2, 5), dtype=bool),
                                np.ones((5, 3)))
        np.testing.assert_array_equal(conductance, 0.5)


@pytest.mark.parametrize("batched", [False, True])
class TestNeuronKernels:
    def test_lif_step_is_inherited_bitwise(self, batched):
        rng = np.random.default_rng(3)
        shape = (4, 9) if batched else (9,)
        v = rng.uniform(-70, -50, shape)
        refrac = rng.choice([0.0, 2.0], shape)
        current = rng.uniform(0, 30, shape)
        threshold = np.full(shape[-1], -54.0)
        kwargs = dict(decay=0.98, v_rest=-65.0, v_reset=-65.0,
                      refractory=5.0, dt=1.0)
        dv, dspk, dref = DENSE.lif_step(v.copy(), refrac.copy(), current,
                                        threshold, **kwargs)
        sv, sspk, sref = SPARSE.lif_step(v.copy(), refrac.copy(), current,
                                         threshold, **kwargs)
        np.testing.assert_array_equal(sv, dv)
        np.testing.assert_array_equal(sspk, dspk)
        np.testing.assert_array_equal(sref, dref)

    def test_theta_step_matches_dense_bitwise(self, batched):
        rng = np.random.default_rng(4)
        shape = (3, 8) if batched else (8,)
        theta = rng.uniform(0, 1, shape)
        spikes = _spikes(shape, 0.3, seed=5)
        dense_theta = DENSE.theta_step(theta.copy(), spikes,
                                       decay=0.999, theta_plus=0.05)
        sparse_theta = SPARSE.theta_step(theta.copy(), spikes,
                                         decay=0.999, theta_plus=0.05)
        np.testing.assert_array_equal(sparse_theta, dense_theta)

    def test_theta_step_without_bump(self, batched):
        shape = (2, 5) if batched else (5,)
        theta = np.full(shape, 0.25)
        spikes = np.ones(shape, dtype=bool)
        dense_theta = DENSE.theta_step(theta.copy(), spikes,
                                       decay=0.5, theta_plus=0.0)
        sparse_theta = SPARSE.theta_step(theta.copy(), spikes,
                                         decay=0.5, theta_plus=0.0)
        np.testing.assert_array_equal(sparse_theta, dense_theta)
        np.testing.assert_array_equal(sparse_theta, 0.125)


def assert_bits_equal(actual, desired, err_msg=""):
    """Equal dtype, shape and bit pattern (``-0.0`` differs from ``0.0``)."""
    actual, desired = np.asarray(actual), np.asarray(desired)
    assert actual.dtype == desired.dtype, err_msg
    assert actual.shape == desired.shape, err_msg
    np.testing.assert_array_equal(actual.view(np.uint8), desired.view(np.uint8),
                                  err_msg=err_msg)


#: Neuron kernel branches: who is refractory and who fires this step.
LIF_CASES = ("quiet", "refractory_only", "spikes_only", "both", "all_refractory")


def _lif_inputs(case, shape, dt, seed=11):
    """Membranes, clocks and currents that take ``case``'s branch.

    Membranes start well below threshold and the baseline current cannot
    lift them over it; "spiking" neurons get a current that must.  Clocks
    include values below ``dt`` (they expire to exactly zero) and exactly
    ``dt``, next to zero clocks.
    """
    rng = np.random.default_rng(seed)
    v = rng.uniform(-70.0, -60.0, shape)
    current = rng.uniform(0.0, 1.0, shape)
    refrac = np.zeros(shape)
    chosen = rng.random(shape)
    if case in ("spikes_only", "both", "all_refractory"):
        current[chosen < 0.3] = 40.0
    if case in ("refractory_only", "both"):
        clocked = chosen > 0.6
        refrac[clocked] = rng.choice([0.3 * dt, dt, 2.0, 4.5], shape)[clocked]
    if case == "all_refractory":
        refrac[...] = rng.choice([0.3 * dt, dt, 2.0, 4.5], shape)
    return v, refrac, current


@pytest.mark.parametrize("case", LIF_CASES)
@pytest.mark.parametrize("dt", [1.0, 0.5])
@pytest.mark.parametrize("batched", [False, True], ids=["n", "Bn"])
class TestNeuronKernelBranches:
    """``lif_step``/``theta_step`` equal the oracle bit for bit on every
    branch of the sparse kernels, and a caller that rebinds sees it."""

    KWARGS = dict(v_rest=-65.0, v_reset=-66.5, refractory=5.0)

    def _lif(self, kernels, v, refrac, current, threshold, dt):
        return kernels.lif_step(v, refrac, current, threshold,
                                decay=np.exp(-dt / 100.0), dt=dt, **self.KWARGS)

    def test_lif_step_matches_the_oracle_bitwise(self, case, dt, batched):
        shape = (6, 40) if batched else (40,)
        v, refrac, current = _lif_inputs(case, shape, dt)
        threshold = np.full(shape[-1], -55.0)
        ref = self._lif(DENSE, v.copy(), refrac.copy(), current, threshold, dt)
        got = self._lif(SPARSE, v.copy(), refrac.copy(), current, threshold, dt)
        for actual, desired, name in zip(got, ref, ("v", "spikes", "refrac")):
            assert_bits_equal(actual, desired, name)
        spikes, clocks = ref[1], ref[2]
        # The inputs really take the branch the case names.
        assert spikes.any() == (case in ("spikes_only", "both"))
        assert bool((refrac > 0).all()) == (case == "all_refractory")
        assert bool((refrac > 0).any()) == (case in ("refractory_only", "both",
                                                     "all_refractory"))
        if case != "quiet":
            assert clocks.any()

    def test_rebinding_caller_sees_the_oracle_trajectory(self, case, dt, batched):
        shape = (3, 25) if batched else (25,)
        v0, refrac0, _ = _lif_inputs(case, shape, dt, seed=12)
        threshold = np.full(shape[-1], -62.0)
        currents = np.random.default_rng(13).uniform(0.0, 6.0, (30,) + shape)
        states = {}
        for kernels in (DENSE, SPARSE):
            v, refrac = v0.copy(), refrac0.copy()
            trajectory = []
            for current in currents:
                frozen = current.copy()
                v, spikes, refrac = self._lif(kernels, v, refrac, current,
                                              threshold, dt)
                # Only the state arguments may change.
                assert_bits_equal(current, frozen, "input current")
                trajectory.append((v.copy(), spikes, refrac.copy()))
            states[kernels.name] = trajectory
        fired = False
        for step, (ref, got) in enumerate(zip(states[DENSE.name],
                                              states[SPARSE.name])):
            fired |= bool(ref[1].any())
            for actual, desired, name in zip(got, ref, ("v", "spikes", "refrac")):
                assert_bits_equal(actual, desired, f"{name} at step {step}")
        assert fired

    def test_theta_step_matches_the_oracle_bitwise(self, case, dt, batched):
        shape = (6, 40) if batched else (40,)
        rng = np.random.default_rng(14)
        theta = rng.uniform(0.0, 2.0, shape)
        v, refrac, current = _lif_inputs(case, shape, dt)
        spikes = self._lif(DENSE, v, refrac, current,
                           np.full(shape[-1], -55.0), dt)[1]
        decay = np.exp(-dt / 1.0e7)
        for theta_plus in (0.05, 0.0):
            frozen = spikes.copy()
            reference = DENSE.theta_step(theta.copy(), spikes, decay=decay,
                                         theta_plus=theta_plus)
            rebound = SPARSE.theta_step(theta.copy(), spikes, decay=decay,
                                        theta_plus=theta_plus)
            assert_bits_equal(rebound, reference, f"theta_plus={theta_plus}")
            assert_bits_equal(spikes, frozen, "spikes")


@pytest.mark.parametrize("mode", ["set", "add"])
@pytest.mark.parametrize("batched", [False, True])
class TestTraceKernels:
    def test_bump_trace_matches_dense_bitwise(self, mode, batched):
        rng = np.random.default_rng(6)
        shape = (3, 12) if batched else (12,)
        values = rng.uniform(0, 1, shape)
        spikes = _spikes(shape, 0.25, seed=7)
        dense_values = DENSE.bump_trace(values.copy(), spikes, 1.0, mode)
        sparse_values = SPARSE.bump_trace(values.copy(), spikes, 1.0, mode)
        np.testing.assert_array_equal(sparse_values, dense_values)

    def test_decay_state_is_shared(self, mode, batched):
        shape = (2, 6) if batched else (6,)
        dense_values = np.full(shape, 2.0)
        sparse_values = np.full(shape, 2.0)
        DENSE.decay_state(dense_values, 0.5)
        SPARSE.decay_state(sparse_values, 0.5)
        np.testing.assert_array_equal(sparse_values, dense_values)
        np.testing.assert_array_equal(sparse_values, 1.0)


@pytest.mark.parametrize("soft_bounds", [True, False])
@pytest.mark.parametrize("density", [0.0, 0.2, 1.0])
class TestSTDPKernels:
    """The in-place STDP contract, bit for bit against the dense oracle:
    equal weights after the call, quiet rows/columns untouched, and the
    oracle's ``count_nonzero(delta)`` as the returned update count."""

    def test_potentiation_matches_dense_bitwise(self, soft_bounds, density):
        rng = np.random.default_rng(9)
        n_pre, n_post = 15, 7
        pre_trace = rng.uniform(0, 1, n_pre)
        post_spikes = _spikes((n_post,), density, seed=10)
        start = rng.uniform(0, 1, (n_pre, n_post))
        dense, sparse = start.copy(), start.copy()
        kwargs = dict(nu=1e-2, w_min=0.0, w_max=1.0, soft_bounds=soft_bounds)
        dense_count = DENSE.stdp_potentiation(pre_trace, post_spikes, dense, **kwargs)
        sparse_count = SPARSE.stdp_potentiation(pre_trace, post_spikes, sparse, **kwargs)
        np.testing.assert_array_equal(sparse, dense)
        # Quiet postsynaptic columns are not touched.
        np.testing.assert_array_equal(sparse[:, ~post_spikes], start[:, ~post_spikes])
        assert sparse_count == dense_count == n_pre * np.count_nonzero(post_spikes)
        assert (sparse >= start).all()

    def test_depression_matches_dense_bitwise(self, soft_bounds, density):
        rng = np.random.default_rng(11)
        n_pre, n_post = 15, 7
        pre_spikes = _spikes((n_pre,), density, seed=12)
        post_trace = rng.uniform(0, 1, n_post)
        start = rng.uniform(0, 1, (n_pre, n_post))
        dense, sparse = start.copy(), start.copy()
        kwargs = dict(nu=1e-4, w_min=0.0, w_max=1.0, soft_bounds=soft_bounds)
        dense_count = DENSE.stdp_depression(pre_spikes, post_trace, dense, **kwargs)
        sparse_count = SPARSE.stdp_depression(pre_spikes, post_trace, sparse, **kwargs)
        np.testing.assert_array_equal(sparse, dense)
        np.testing.assert_array_equal(sparse[~pre_spikes], start[~pre_spikes])
        assert sparse_count == dense_count == n_post * np.count_nonzero(pre_spikes)
        assert (sparse <= start).all()


@pytest.mark.parametrize("kernels", [SPARSE, DENSE], ids=["sparse", "gemv-oracle"])
class TestSTDPKernelBoundsAndShapes:
    """Each STDP kernel clips the block it updates into ``[w_min, w_max]``
    and rejects a trace that does not match the weights."""

    def test_potentiation_clips_to_w_max(self, kernels):
        weights = np.full((4, 3), 0.9)
        count = kernels.stdp_potentiation(np.ones(4), np.ones(3, dtype=bool), weights,
                                          nu=0.5, w_min=0.0, w_max=1.0, soft_bounds=False)
        np.testing.assert_array_equal(weights, 1.0)
        assert count == 12

    def test_depression_clips_to_w_min(self, kernels):
        weights = np.full((4, 3), 0.1)
        count = kernels.stdp_depression(np.ones(4, dtype=bool), np.ones(3), weights,
                                        nu=0.5, w_min=0.0, w_max=1.0, soft_bounds=False)
        np.testing.assert_array_equal(weights, 0.0)
        assert count == 12

    def test_unclipped_update_is_the_plain_sum(self, kernels):
        weights = np.full((4, 3), 0.5)
        kernels.stdp_potentiation(np.ones(4), np.ones(3, dtype=bool), weights,
                                  nu=0.25, w_min=0.0, w_max=1.0, soft_bounds=False)
        np.testing.assert_array_equal(weights, 0.75)

    def test_quiet_out_of_bounds_weights_are_not_clipped(self, kernels):
        weights = np.full((4, 3), 5.0)
        post_spikes = np.array([True, False, False])
        kernels.stdp_potentiation(np.ones(4), post_spikes, weights,
                                  nu=0.5, w_min=0.0, w_max=1.0, soft_bounds=False)
        np.testing.assert_array_equal(weights[:, 0], 1.0)
        np.testing.assert_array_equal(weights[:, 1:], 5.0)

    def test_rejects_mismatched_trace_shapes(self, kernels):
        weights = np.zeros((4, 3))
        bounds = dict(w_min=0.0, w_max=1.0)
        for soft_bounds in (True, False):
            with pytest.raises(ValueError):
                kernels.stdp_potentiation(np.ones(3), np.ones(3, dtype=bool), weights,
                                          nu=0.5, soft_bounds=soft_bounds, **bounds)
            with pytest.raises(ValueError):
                kernels.stdp_depression(np.ones(4, dtype=bool), np.ones(4), weights,
                                        nu=0.5, soft_bounds=soft_bounds, **bounds)
