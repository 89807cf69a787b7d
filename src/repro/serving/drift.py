"""Online distribution-drift detection over per-request spike statistics.

The paper targets dynamic environments whose input distribution shifts over
time; offline, the scenario engine (:mod:`repro.scenarios.transforms`)
synthesizes exactly those shifts.  Online, the total excitatory spike count
of a request is a cheap, already-computed summary of how strongly the
learned receptive fields match the input — corrupted, washed-out, or
out-of-distribution traffic drives it away from the level the model was
trained at.

:class:`SpikeCountDriftDetector` freezes a *reference window* (mean/std of
the first ``window`` requests, or an explicitly provided baseline from
offline evaluation) and compares it with a rolling window of the most
recent requests.  The drift score is the shift of the rolling mean measured
in reference standard deviations; the alarm latches in ``/metrics`` once
the score crosses ``threshold``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Optional

import numpy as np

from repro.utils.validation import check_positive, check_positive_int

#: Guard against zero-variance reference windows.
_MIN_STD = 1e-9


class SpikeCountDriftDetector:
    """Rolling-window drift alarm over per-request spike counts.

    Parameters
    ----------
    window:
        Number of requests in both the reference and the rolling window.
    threshold:
        Alarm threshold in reference standard deviations.
    reference_mean, reference_std:
        Optional explicit baseline (e.g. measured on the offline evaluation
        set).  When omitted, the first ``window`` observations freeze the
        reference.
    """

    def __init__(self, window: int = 256, threshold: float = 3.0,
                 reference_mean: Optional[float] = None,
                 reference_std: Optional[float] = None) -> None:
        self.window = check_positive_int(window, "window")
        self.threshold = check_positive(threshold, "threshold")
        if (reference_mean is None) != (reference_std is None):
            raise ValueError(
                "reference_mean and reference_std must be provided together"
            )
        self._lock = threading.Lock()
        self._recent: Deque[float] = deque(maxlen=self.window)
        self._observed = 0
        self._alarmed = False
        self._reference_mean = (
            None if reference_mean is None else float(reference_mean)
        )
        self._reference_std = (
            None if reference_std is None else max(float(reference_std), _MIN_STD)
        )
        self._calibration: Optional[Deque[float]] = (
            deque(maxlen=self.window) if self._reference_mean is None else None
        )

    @property
    def calibrated(self) -> bool:
        """Whether the reference window is frozen."""
        with self._lock:
            return self._reference_mean is not None

    def observe(self, spike_count: float) -> None:
        """Feed one request's total excitatory spike count."""
        value = float(spike_count)
        with self._lock:
            self._observed += 1
            if self._reference_mean is None:
                self._calibration.append(value)
                if len(self._calibration) >= self.window:
                    baseline = np.asarray(self._calibration, dtype=float)
                    self._reference_mean = float(baseline.mean())
                    self._reference_std = max(float(baseline.std()), _MIN_STD)
                    self._calibration = None
                return
            self._recent.append(value)
            if len(self._recent) >= max(self.window // 4, 1):
                score = self._score_locked()
                if score is not None and score > self.threshold:
                    self._alarmed = True

    def _score_locked(self) -> Optional[float]:
        if self._reference_mean is None or not self._recent:
            return None
        recent_mean = float(np.mean(self._recent))
        return abs(recent_mean - self._reference_mean) / self._reference_std

    def state(self) -> Dict[str, object]:
        """JSON-safe drift state exposed under ``/metrics``."""
        with self._lock:
            score = self._score_locked()
            state: Dict[str, object] = {
                "observed": self._observed,
                "window": self.window,
                "threshold": self.threshold,
                "calibrated": self._reference_mean is not None,
                "alarm": self._alarmed,
            }
            if self._reference_mean is not None:
                state["reference_mean"] = self._reference_mean
                state["reference_std"] = self._reference_std
            if self._recent:
                state["recent_mean"] = float(np.mean(self._recent))
            if score is not None:
                state["score"] = score
        return state
