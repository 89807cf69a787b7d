"""Argument-validation helpers used across the library.

These helpers raise uniform, descriptive errors so that misconfigured
experiments fail early with actionable messages instead of producing
silently wrong simulation results.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def check_positive(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def check_non_negative(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is finite and >= 0."""
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return float(value)


def check_positive_int(value: int, name: str) -> int:
    """Raise ``ValueError`` unless ``value`` is a strictly positive integer."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return int(value)


def check_choice(value, choices: Sequence, name: str):
    """Raise ``ValueError`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {list(choices)!r}, got {value!r}")
    return value
