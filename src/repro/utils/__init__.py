"""Shared utilities: RNG management, validation, and serialization."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
    check_shape,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
    "check_probability",
    "check_shape",
]
