"""Common interface for spike encoders."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


class SpikeEncoder:
    """Base class for encoders that map an intensity vector to a spike train.

    Parameters
    ----------
    duration:
        Presentation time of one sample in milliseconds.
    dt:
        Simulation timestep in milliseconds.

    Subclasses implement :meth:`encode`, returning a boolean array of shape
    ``(timesteps, n_input)`` where ``timesteps = round(duration / dt)``.
    """

    def __init__(self, duration: float = 350.0, dt: float = 1.0) -> None:
        self.duration = check_positive(duration, "duration")
        self.dt = check_positive(dt, "dt")
        if self.duration < self.dt:
            raise ValueError(
                f"duration ({duration}) must be at least one timestep ({dt})"
            )

    @property
    def timesteps(self) -> int:
        """Number of timesteps in one encoded presentation."""
        return int(round(self.duration / self.dt))

    @staticmethod
    def _normalize_intensities(values: np.ndarray) -> np.ndarray:
        """Flatten and scale an arbitrary non-negative input into [0, 1]."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            raise ValueError("cannot encode an empty input")
        if np.any(values < 0):
            raise ValueError("input intensities must be non-negative")
        peak = values.max()
        if peak > 0:
            values = values / peak
        return values

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Encode an intensity vector/image into a boolean spike train."""
        raise NotImplementedError

    def encode_batch(self, batch) -> np.ndarray:
        """Encode a sequence of inputs into a ``(B, timesteps, n)`` train.

        The default implementation encodes each input in order with
        :meth:`encode` and stacks the results, so it consumes any internal
        random state exactly as a sequential loop would.  Subclasses may
        override it with a vectorized implementation, provided the output
        stays bit-for-bit identical to the sequential loop.
        """
        trains = [self.encode(values) for values in batch]
        if not trains:
            raise ValueError("cannot encode an empty batch")
        return np.stack(trains)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(duration={self.duration}, dt={self.dt})"
