"""Tests for the random-number-generator helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import ensure_rng


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).random(5)
        b = ensure_rng(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passes_through_unchanged(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_numpy_integer_seed(self):
        a = ensure_rng(np.int64(7)).random(3)
        b = ensure_rng(7).random(3)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bad", ["seed", 1.5, [1, 2]])
    def test_rejects_other_types(self, bad):
        with pytest.raises(TypeError):
            ensure_rng(bad)
