"""Tests for the weight-matrix builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.snn.topology import (
    all_to_all_except_self_weights,
    dense_random_weights,
    one_to_one_weights,
)


class TestDenseRandomWeights:
    def test_shape(self):
        assert dense_random_weights(5, 7, rng=0).shape == (5, 7)

    def test_values_within_bounds(self):
        weights = dense_random_weights(20, 20, low=0.1, high=0.4, rng=0)
        assert weights.min() >= 0.1
        assert weights.max() <= 0.4

    def test_deterministic_for_seed(self):
        np.testing.assert_array_equal(
            dense_random_weights(4, 4, rng=3), dense_random_weights(4, 4, rng=3)
        )

    def test_different_seeds_differ(self):
        a = dense_random_weights(4, 4, rng=1)
        b = dense_random_weights(4, 4, rng=2)
        assert not np.array_equal(a, b)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            dense_random_weights(2, 2, low=0.5, high=0.1)

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            dense_random_weights(0, 2)


class TestOneToOneWeights:
    def test_diagonal_value(self):
        weights = one_to_one_weights(4, 22.5)
        np.testing.assert_allclose(np.diag(weights), 22.5)

    def test_off_diagonal_is_zero(self):
        weights = one_to_one_weights(4, 22.5)
        off_diagonal = weights[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off_diagonal, 0.0)

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            one_to_one_weights(4, -1.0)


class TestAllToAllExceptSelf:
    def test_zero_diagonal(self):
        weights = all_to_all_except_self_weights(5, 17.0)
        np.testing.assert_allclose(np.diag(weights), 0.0)

    def test_uniform_off_diagonal(self):
        weights = all_to_all_except_self_weights(5, 17.0)
        off_diagonal = weights[~np.eye(5, dtype=bool)]
        np.testing.assert_allclose(off_diagonal, 17.0)

    def test_nonzero_count(self):
        weights = all_to_all_except_self_weights(6, 1.0)
        assert np.count_nonzero(weights) == 6 * 5
