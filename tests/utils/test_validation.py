"""Tests for the argument-validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.validation import (
    check_choice,
    check_non_negative,
    check_positive,
    check_positive_int,
)


class TestCheckPositive:
    def test_accepts_positive_value(self):
        assert check_positive(2.5, "x") == 2.5

    def test_returns_float(self):
        assert isinstance(check_positive(3, "x"), float)

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive(-1.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive(float("nan"), "x")

    def test_rejects_infinity(self):
        with pytest.raises(ValueError):
            check_positive(float("inf"), "x")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    def test_accepts_positive(self):
        assert check_non_negative(7.0, "x") == 7.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative(-0.001, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_non_negative(float("nan"), "x")


class TestCheckPositiveInt:
    def test_accepts_python_int(self):
        assert check_positive_int(5, "n") == 5

    def test_accepts_numpy_int(self):
        assert check_positive_int(np.int64(3), "n") == 3

    def test_result_is_builtin_int(self):
        assert type(check_positive_int(np.int64(3), "n")) is int

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "n")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(-2, "n")

    def test_rejects_float(self):
        with pytest.raises(ValueError):
            check_positive_int(2.0, "n")

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            check_positive_int(True, "n")


class TestCheckChoice:
    def test_accepts_member(self):
        assert check_choice("set", ("set", "add"), "mode") == "set"

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="mode"):
            check_choice("multiply", ("set", "add"), "mode")
