"""Weight-matrix builders for the network topologies used in the paper.

The baseline (Diehl & Cook / ASP) architecture uses three connection groups:
a learned dense input→excitatory projection, a fixed one-to-one
excitatory→inhibitory projection, and a fixed all-to-all-except-self
inhibitory→excitatory projection.  SpikeDyn's optimized architecture replaces
the last two with a single *direct lateral inhibition* matrix between
excitatory neurons (Section III-B).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_non_negative, check_positive_int


def dense_random_weights(
    n_pre: int,
    n_post: int,
    *,
    low: float = 0.0,
    high: float = 0.3,
    rng: SeedLike = None,
) -> np.ndarray:
    """Uniformly random dense weights of shape ``(n_pre, n_post)``.

    Used to initialize the learned input→excitatory projection.
    """
    check_positive_int(n_pre, "n_pre")
    check_positive_int(n_post, "n_post")
    if high < low:
        raise ValueError(f"high ({high}) must be >= low ({low})")
    generator = ensure_rng(rng)
    return generator.uniform(low, high, size=(n_pre, n_post))


def one_to_one_weights(n: int, value: float) -> np.ndarray:
    """Diagonal weights connecting neuron ``i`` of the pre group to neuron
    ``i`` of the post group (the excitatory→inhibitory projection)."""
    check_positive_int(n, "n")
    check_non_negative(value, "value")
    return np.eye(n, dtype=float) * value


def all_to_all_except_self_weights(n: int, value: float) -> np.ndarray:
    """Uniform weights between all distinct pairs, zero on the diagonal
    (the inhibitory→excitatory projection)."""
    check_positive_int(n, "n")
    check_non_negative(value, "value")
    weights = np.full((n, n), value, dtype=float)
    np.fill_diagonal(weights, 0.0)
    return weights
