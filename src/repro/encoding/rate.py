"""Poisson rate coding.

Each input intensity (e.g. a pixel value) is mapped to the firing rate of an
independent Poisson process; brighter pixels spike more often.  This is the
coding scheme used by the paper ("we employed the rate coding to convert each
pixel of an image into a Poisson-distributed spike train", Section IV).
"""

from __future__ import annotations

import numpy as np

from repro.encoding.base import SpikeEncoder
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_non_negative


class PoissonRateEncoder(SpikeEncoder):
    """Encode intensities as independent Poisson spike trains.

    Parameters
    ----------
    duration, dt:
        Presentation window and timestep in milliseconds.
    max_rate:
        Firing rate (Hz) assigned to the maximum intensity.
    intensity_scale:
        Additional multiplicative factor applied to all rates; Diehl & Cook
        style pipelines raise this value when an input elicits too few
        output spikes.
    rng:
        Seed or generator for the Poisson draws.
    """

    def __init__(
        self,
        duration: float = 350.0,
        dt: float = 1.0,
        *,
        max_rate: float = 63.75,
        intensity_scale: float = 1.0,
        rng: SeedLike = None,
    ) -> None:
        super().__init__(duration, dt)
        self.max_rate = check_non_negative(max_rate, "max_rate")
        self.intensity_scale = check_non_negative(intensity_scale, "intensity_scale")
        self._rng = ensure_rng(rng)

    def spike_probabilities(self, values: np.ndarray) -> np.ndarray:
        """Per-timestep spike probability for each input element."""
        intensities = self._normalize_intensities(values)
        rates_hz = intensities * self.max_rate * self.intensity_scale
        # Probability of at least one spike in a dt-millisecond bin.
        probabilities = rates_hz * (self.dt / 1000.0)
        return np.clip(probabilities, 0.0, 1.0)

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Return a boolean spike train of shape ``(timesteps, n_input)``."""
        return self._draw(self.spike_probabilities(values)[None, :])[0]

    def encode_batch(self, batch) -> np.ndarray:
        """Return a boolean spike train of shape ``(B, timesteps, n_input)``.

        Every input's probabilities are computed (and validated) before any
        random number is drawn, so a bad input raises with the generator
        untouched.  The draws then take one ``(timesteps, n_input)`` float
        scratch, reused for every sample: beyond the boolean output, the
        batch needs no more memory than one :meth:`encode`.  Samples draw in
        order, each filling its scratch in C order, which is exactly how a
        sequential :meth:`encode` loop consumes the generator, so the batched
        trains are bit-for-bit identical to sequential encoding.
        """
        probabilities = [self.spike_probabilities(values) for values in batch]
        if not probabilities:
            raise ValueError("cannot encode an empty batch")
        return self._draw(np.stack(probabilities))

    def _draw(self, probabilities: np.ndarray) -> np.ndarray:
        """Spike trains ``(B, timesteps, n)`` for ``(B, n)`` probabilities."""
        trains = np.empty((len(probabilities), self.timesteps, probabilities.shape[1]),
                          dtype=bool)
        scratch = np.empty(trains.shape[1:])
        for sample_probabilities, train in zip(probabilities, trains):
            self._rng.random(out=scratch)
            np.less(scratch, sample_probabilities, out=train)
        return trains
