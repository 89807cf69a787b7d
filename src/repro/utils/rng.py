"""Random-number-generator helpers.

Every stochastic component in the library accepts either a seed or a
:class:`numpy.random.Generator`.  Centralizing the conversion here keeps the
behaviour uniform and the experiments reproducible.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, or an existing generator
        (returned unchanged).

    Returns
    -------
    numpy.random.Generator
        A generator usable by the caller.

    Raises
    ------
    TypeError
        If ``seed`` is neither ``None``, an integer, nor a generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(
        f"seed must be None, an int, or a numpy Generator, got {type(seed).__name__}"
    )
