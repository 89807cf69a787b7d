"""Tests for the classification metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.metrics import accuracy, forgetting


class TestAccuracy:
    def test_fraction_of_matches(self):
        assert accuracy(np.array([1, 2, 3, 4]), np.array([1, 2, 0, 4])) == 0.75

    def test_perfect_and_zero(self):
        assert accuracy(np.array([1, 1]), np.array([1, 1])) == 1.0
        assert accuracy(np.array([0, 0]), np.array([1, 1])) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1, 2]), np.array([1, 2, 3]))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))


class TestForgetting:
    def test_positive_when_accuracy_drops(self):
        recent = {0: 0.9, 1: 0.8}
        final = {0: 0.5, 1: 0.8}
        result = forgetting(recent, final)
        assert result[0] == pytest.approx(0.4)
        assert result[1] == pytest.approx(0.0)

    def test_missing_task_rejected(self):
        with pytest.raises(KeyError):
            forgetting({0: 0.9}, {1: 0.5})
