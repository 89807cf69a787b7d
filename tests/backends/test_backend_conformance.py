"""Backend-conformance suite: the kernel set vs the GEMV oracle.

Parametrized over ``"sparse"``, the retired names that resolve to it, and
the dense GEMV oracle (see ``conftest.py``).  Spike decisions, counts,
predictions and operation tallies must be bit-identical to the oracle;
float state may differ only by summation-order rounding, within the bounds
``conftest.py`` names (zero for the oracle itself).

The suite checks three layers: individual kernels against the oracle's,
batched-vs-sequential agreement within each backend (bit for bit, at the
kernel and at the model), and a full golden-trace replay against the
committed fixture.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gemv_oracle import GemvOracle

from repro.backends.base import store_state
from repro.core.config import SpikeDynConfig
from repro.models.spikedyn_model import SpikeDynModel

ORACLE = GemvOracle()

_TESTS_DIR = Path(__file__).resolve().parents[1]


def _load_golden_trace_module():
    """Import ``tests/snn/test_golden_trace.py`` (tests are not a package)."""
    path = _TESTS_DIR / "snn" / "test_golden_trace.py"
    spec = importlib.util.spec_from_file_location("golden_trace_module", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spikes(shape, density, seed):
    return np.random.default_rng(seed).random(shape) < density


class TestConformanceBounds:
    """Every conformance case is held to double precision, in float64."""

    def test_bounds_are_at_double_precision(self, backend, state_bounds):
        rtol, atol = state_bounds(backend)
        assert 0.0 <= rtol <= 1e-9
        assert 0.0 <= atol <= 1e-12
        if isinstance(backend, GemvOracle):
            assert (rtol, atol) == (0.0, 0.0)

    def test_float_state_stays_float64(self, backend):
        rng = np.random.default_rng(26)
        v, spikes, refrac = backend.lif_step(
            rng.uniform(-70, -50, 6), np.zeros(6), rng.uniform(0, 30, 6),
            np.full(6, -54.0), decay=0.98, v_rest=-65.0, v_reset=-65.0,
            refractory=5.0, dt=1.0)
        theta = backend.theta_step(rng.uniform(0, 1, 6), spikes,
                                   decay=0.999, theta_plus=0.05)
        decayed = backend.decay_state(rng.uniform(0, 2, 6), 0.5)
        trace = backend.bump_trace(np.zeros(6), spikes, 1.0, "add")
        for state in (v, refrac, theta, decayed, trace):
            assert state.dtype == np.float64


@pytest.mark.parametrize("batched", [False, True])
class TestNeuronKernelConformance:
    def test_lif_step_spikes_are_exact_and_state_is_in_tier(
            self, backend, assert_state_close, batched):
        rng = np.random.default_rng(21)
        shape = (4, 9) if batched else (9,)
        v = rng.uniform(-70, -50, shape)
        refrac = rng.choice([0.0, 2.0], shape)
        current = rng.uniform(0, 30, shape)
        threshold = np.full(shape[-1], -54.0)
        kwargs = dict(decay=0.98, v_rest=-65.0, v_reset=-65.0,
                      refractory=5.0, dt=1.0)
        ref_v, ref_spk, ref_ref = ORACLE.lif_step(
            v.copy(), refrac.copy(), current, threshold, **kwargs)
        got_v, got_spk, got_ref = backend.lif_step(
            v.copy(), refrac.copy(), current, threshold, **kwargs)
        # Spike decisions are boolean results: exact for every tier.
        np.testing.assert_array_equal(got_spk, ref_spk)
        assert_state_close(backend, got_v, ref_v, "membrane potential")
        assert_state_close(backend, got_ref, ref_ref, "refractory clocks")

    def test_theta_step_conforms(self, backend, assert_state_close, batched):
        rng = np.random.default_rng(22)
        shape = (3, 8) if batched else (8,)
        theta = rng.uniform(0, 1, shape)
        spikes = _spikes(shape, 0.3, seed=23)
        reference = ORACLE.theta_step(theta.copy(), spikes,
                                     decay=0.999, theta_plus=0.05)
        actual = backend.theta_step(theta.copy(), spikes,
                                    decay=0.999, theta_plus=0.05)
        assert_state_close(backend, actual, reference, "theta")

    def test_decay_state_conforms(self, backend, assert_state_close, batched):
        shape = (2, 6) if batched else (6,)
        values = np.random.default_rng(24).uniform(0, 2, shape)
        reference = ORACLE.decay_state(values.copy(), 0.9048374180359595)
        actual = backend.decay_state(values.copy(), 0.9048374180359595)
        assert_state_close(backend, actual, reference, "decayed state")


def _bits(values: np.ndarray) -> np.ndarray:
    """The IEEE bit patterns of float64 values (tells -0.0 from 0.0)."""
    return np.ascontiguousarray(values).view(np.uint64)


@pytest.mark.parametrize("batched", [False, True])
class TestFusedDecayContract:
    """``decay_state`` with a per-element factor vector is the engine's
    fused decay: one call over a buffer holding several state arrays (every
    connection's conductance, a rule's pre- and postsynaptic traces).  It
    must equal decaying each block by its own scalar, bit for bit."""

    SIZES = (5, 1, 7, 3)
    FACTORS = (0.8187307530779818, 0.36787944117144233, 0.951229424500714, 0.0)

    def _blocks(self, batched):
        rng = np.random.default_rng(31)
        shape = (3,) if batched else ()
        blocks = [rng.uniform(-2.0, 2.0, shape + (size,)) for size in self.SIZES]
        blocks[0][..., 0] = -0.0
        blocks[2][..., 1] = 5e-324  # the smallest subnormal
        return blocks

    def test_vector_decay_equals_per_block_scalar_decays(self, backend, batched):
        blocks = self._blocks(batched)
        buffer = np.concatenate(blocks, axis=-1)
        factors = np.concatenate([np.full(size, factor)
                                  for size, factor in zip(self.SIZES, self.FACTORS)])
        fused = backend.decay_state(buffer.copy(), factors)
        for reference_backend in (backend, ORACLE):
            separate = np.concatenate(
                [reference_backend.decay_state(block.copy(), factor)
                 for block, factor in zip(blocks, self.FACTORS)], axis=-1)
            np.testing.assert_array_equal(_bits(fused), _bits(separate))

    def test_vector_decay_lands_in_the_views(self, backend, batched):
        blocks = self._blocks(batched)
        buffer = np.concatenate(blocks, axis=-1)
        bounds = np.cumsum((0,) + self.SIZES)
        views = [buffer[..., start:stop] for start, stop in zip(bounds, bounds[1:])]
        factors = np.concatenate([np.full(size, factor)
                                  for size, factor in zip(self.SIZES, self.FACTORS)])
        store_state(buffer, backend.decay_state(buffer, factors))
        for view, block, factor in zip(views, blocks, self.FACTORS):
            np.testing.assert_array_equal(_bits(view), _bits(block * factor))


@pytest.mark.parametrize("density", [0.0, 0.03, 0.5, 1.0])
@pytest.mark.parametrize("batched", [False, True])
class TestPropagationConformance:
    def test_propagate_spikes_conforms(self, backend, assert_state_close,
                                       density, batched):
        rng = np.random.default_rng(25)
        n_pre, n_post, batch = 37, 11, 5
        shape = (batch, n_pre) if batched else (n_pre,)
        spikes = _spikes(shape, density, seed=26)
        weights = rng.random((n_pre, n_post))
        cond_shape = (batch, n_post) if batched else (n_post,)
        seed_cond = rng.random(cond_shape)
        reference = seed_cond.copy()
        ORACLE.propagate_spikes(reference, spikes, weights)
        actual = seed_cond.copy()
        backend.propagate_spikes(actual, spikes, weights)
        assert_state_close(backend, actual, reference, "conductance")

    def test_propagate_lateral_conforms(self, backend, assert_state_close,
                                        density, batched):
        rng = np.random.default_rng(27)
        n, batch = 23, 4
        shape = (batch, n) if batched else (n,)
        spikes = _spikes(shape, density, seed=28)
        seed_cond = rng.random(shape)
        reference = seed_cond.copy()
        ORACLE.propagate_lateral(reference, spikes, 17.0)
        actual = seed_cond.copy()
        backend.propagate_lateral(actual, spikes, 17.0)
        assert_state_close(backend, actual, reference, "lateral conductance")


@pytest.mark.parametrize("mode", ["set", "add"])
class TestTraceKernelConformance:
    def test_bump_trace_conforms(self, backend, assert_state_close, mode):
        rng = np.random.default_rng(29)
        values = rng.uniform(0, 1, 12)
        spikes = _spikes((12,), 0.25, seed=30)
        reference = ORACLE.bump_trace(values.copy(), spikes, 1.0, mode)
        actual = backend.bump_trace(values.copy(), spikes, 1.0, mode)
        assert_state_close(backend, actual, reference, "trace values")


def _stdp_weights(rng, shape):
    """Weights in ``[0, 1]`` plus a few out of bounds, which only a spiking
    row/column may clip."""
    weights = rng.uniform(0, 1, shape)
    weights[::4, ::3] = 1.25
    weights[1::5, 1::2] = -0.5
    return weights


@pytest.mark.parametrize("nu", [1e-2, 2.0])
@pytest.mark.parametrize("soft_bounds", [True, False])
class TestSTDPKernelConformance:
    """The in-place STDP contract on every backend, against the oracle.

    The weights after the call equal the oracle's bit for bit, including
    the clip of the touched rows/columns (``nu = 2.0`` overshoots both
    bounds); rows/columns that did not spike keep their values even when
    they are out of bounds; and the returned update count equals the
    oracle's ``count_nonzero(delta)``.
    """

    @pytest.mark.parametrize("modulated", [False, True])
    def test_potentiation_conforms(self, backend, soft_bounds, nu, modulated):
        rng = np.random.default_rng(31)
        n_pre, n_post = 15, 7
        pre_trace = rng.uniform(0, 1, n_pre)
        post_spikes = _spikes((n_post,), 0.4, seed=32)
        start = _stdp_weights(rng, (n_pre, n_post))
        modulation = 1.0 + rng.uniform(0, 1, n_post) if modulated else None
        kwargs = dict(nu=nu, w_min=0.0, w_max=1.0, soft_bounds=soft_bounds,
                      modulation=modulation)
        reference, actual = start.copy(), start.copy()
        expected = ORACLE.stdp_potentiation(pre_trace, post_spikes, reference, **kwargs)
        count = backend.stdp_potentiation(pre_trace, post_spikes, actual, **kwargs)
        np.testing.assert_array_equal(actual, reference, err_msg="potentiated weights")
        np.testing.assert_array_equal(actual[:, ~post_spikes], start[:, ~post_spikes])
        assert count == expected > 0

    def test_depression_conforms(self, backend, soft_bounds, nu):
        rng = np.random.default_rng(33)
        n_pre, n_post = 15, 7
        pre_spikes = _spikes((n_pre,), 0.4, seed=34)
        post_trace = rng.uniform(0, 1, n_post)
        start = _stdp_weights(rng, (n_pre, n_post))
        kwargs = dict(nu=nu, w_min=0.0, w_max=1.0, soft_bounds=soft_bounds)
        reference, actual = start.copy(), start.copy()
        expected = ORACLE.stdp_depression(pre_spikes, post_trace, reference, **kwargs)
        count = backend.stdp_depression(pre_spikes, post_trace, actual, **kwargs)
        np.testing.assert_array_equal(actual, reference, err_msg="depressed weights")
        np.testing.assert_array_equal(actual[~pre_spikes], start[~pre_spikes])
        assert count == expected > 0


@pytest.mark.parametrize("n_post", [1, 400])
@pytest.mark.parametrize("active_rows", [5, 100])
class TestBatchedPropagationIsPerSample:
    """Batched propagation equals one single-sample call per row, bit for bit.

    A one-shot segment sum over every (sample, pre) event of the batch
    associates the additions differently from the single-sample row sum
    once a sample has five or more active rows, so this is checked at the
    kernel with ``assert_array_equal``, not within a tolerance.  The cases
    cover both of the sparse backend's batched gathers (a padded block for
    small batches, one gather per sample for large ones) and a single
    postsynaptic column, where NumPy sums rows pairwise.
    """

    def test_batch_rows_equal_single_sample_calls(self, backend, active_rows,
                                                  n_post):
        rng = np.random.default_rng(35)
        batch, n_pre = 8, 784
        spikes = np.zeros((batch, n_pre), dtype=bool)
        # Row counts differ between samples; the last sample stays silent.
        for index, row in enumerate(spikes[:-1]):
            size = max(1, active_rows - index)
            row[rng.choice(n_pre, size=size, replace=False)] = True
        weights = rng.random((n_pre, n_post))
        start = rng.random((batch, n_post))
        batched = start.copy()
        backend.propagate_spikes(batched, spikes, weights)
        for index in range(batch):
            single = start[index].copy()
            backend.propagate_spikes(single, spikes[index], weights)
            np.testing.assert_array_equal(batched[index], single,
                                          err_msg=f"sample {index}")


class TestBatchedVersusSequential:
    """Within one backend, batched and sequential inference must agree.

    Spike counts are integers, so they are asserted exactly for every tier.
    """

    def test_respond_batch_matches_sequential_respond(self, backend):
        config = SpikeDynConfig.scaled_down(
            n_input=64, n_exc=10, t_sim=30.0, seed=17
        )
        images = np.random.default_rng(17).random((6, 64)) * 0.7
        batched_model = SpikeDynModel(config)
        batched_model.network.set_backend(backend)
        batched = batched_model.respond_batch(images)
        sequential_model = SpikeDynModel(config)
        sequential_model.network.set_backend(backend)
        sequential = np.stack([sequential_model.respond(image)
                               for image in images])
        np.testing.assert_array_equal(batched, sequential)


class TestGoldenTraceReplay:
    """Every accepted backend name and the oracle replay the golden trace.

    Spike counts must be bit-exact; learned weights and adapted thresholds
    are held to the backend's state bounds.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        module = _load_golden_trace_module()
        return module, dict(np.load(module.FIXTURE))

    def test_backend_replays_the_fixture(self, backend, backend_name,
                                         assert_state_close, golden,
                                         monkeypatch):
        module, expected = golden
        build = module._build_network

        def build_on_backend(_default_backend):
            network = build()
            network.set_backend(backend)
            return network

        monkeypatch.setattr(module, "_build_network", build_on_backend)
        actual = module.compute_trace()
        np.testing.assert_array_equal(
            actual["inference_counts"], expected["inference_counts"],
            err_msg=f"{backend_name}: inference counts diverged",
        )
        np.testing.assert_array_equal(
            actual["learning_counts"], expected["learning_counts"],
            err_msg=f"{backend_name}: learning counts diverged",
        )
        assert_state_close(backend, actual["final_weights"],
                           expected["final_weights"],
                           f"{backend_name}: learned weights")
        assert_state_close(backend, actual["final_theta"],
                           expected["final_theta"],
                           f"{backend_name}: adapted theta")
