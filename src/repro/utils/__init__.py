"""Shared utilities: RNG management, validation, and serialization."""

from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
)

__all__ = [
    "ensure_rng",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
]
