"""Request-path hardening primitives: token bucket and circuit breaker.

Both are small, lock-protected state machines over an injectable monotonic
clock (tests drive them with a fake clock; production uses
``time.monotonic``).  They are policy-free: the router decides what a
rejection means (429 vs 503) and the primitives only answer "may this
request proceed *now*" and "when should the caller try again".

* :class:`TokenBucket` — classic leaky-bucket rate limiting: a bucket of
  ``burst`` tokens refilling at ``rate`` tokens/second; each request takes
  one token and is rejected when the bucket is empty.  Used per
  ``(model, tenant)`` so one noisy tenant cannot starve the others.
* :class:`CircuitBreaker` — closed/open/half-open failure isolation: after
  ``failure_threshold`` failures within ``window_s`` the circuit opens and
  sheds load instantly for ``reset_s``; then a half-open probe decides
  between closing (success) and re-opening (failure).  Used per model so a
  corrupt artifact sheds its own traffic instead of taking the server down.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional

from repro.utils.validation import check_positive, check_positive_int

Clock = Callable[[], float]

#: Circuit states (reported in health/metrics payloads).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


def check_burst(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is a finite bucket capacity
    of at least one token (a smaller bucket never admits a request)."""
    if not math.isfinite(value) or value < 1.0:
        raise ValueError(f"{name} must be a finite number >= 1 token, got {value!r}")
    return float(value)


class TokenBucket:
    """Thread-safe token bucket: ``burst`` capacity, ``rate`` tokens/second.

    Parameters
    ----------
    rate:
        Sustained refill rate in tokens (requests) per second.
    burst:
        Bucket capacity — the largest instantaneous burst admitted after an
        idle period.  Defaults to ``max(1, rate)``.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(self, rate: float, burst: Optional[float] = None, *,
                 clock: Clock = time.monotonic) -> None:
        self.rate = check_positive(rate, "rate")
        self.burst = check_burst(burst, "burst") if burst is not None else max(1.0, self.rate)
        self._clock = clock
        self._tokens = self.burst
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        with self._lock:
            self._refill(self._clock())
            if self._tokens + 1e-9 >= tokens:
                self._tokens -= tokens
                return True
            return False

    def retry_after(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available (0 when already are)."""
        with self._lock:
            self._refill(self._clock())
            missing = tokens - self._tokens
            return max(0.0, missing / self.rate)

    def state(self) -> Dict[str, float]:
        with self._lock:
            self._refill(self._clock())
            return {"rate": self.rate, "burst": self.burst,
                    "tokens": round(self._tokens, 6)}


class CircuitBreaker:
    """Per-model failure isolation with closed/open/half-open states.

    Parameters
    ----------
    failure_threshold:
        Number of failures within ``window_s`` that opens the circuit.
    window_s:
        Sliding window the failures are counted over.
    reset_s:
        How long an open circuit sheds load before probing (half-open).
    half_open_max:
        Concurrent probe requests admitted while half-open.
    """

    def __init__(self, failure_threshold: int = 5, window_s: float = 30.0,
                 reset_s: float = 5.0, *, half_open_max: int = 1,
                 clock: Clock = time.monotonic) -> None:
        self.failure_threshold = check_positive_int(failure_threshold,
                                                    "failure_threshold")
        self.window_s = check_positive(window_s, "window_s")
        self.reset_s = check_positive(reset_s, "reset_s")
        self.half_open_max = check_positive_int(half_open_max, "half_open_max")
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures: Deque[float] = deque()
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._opened_total = 0

    def _prune(self, now: float) -> None:
        while self._failures and now - self._failures[0] > self.window_s:
            self._failures.popleft()

    def allow(self) -> bool:
        """May a request proceed right now?

        Closed: always.  Open: only once ``reset_s`` has elapsed, which
        transitions to half-open and admits up to ``half_open_max`` probes.
        Half-open: only while a probe slot is free.
        """
        with self._lock:
            now = self._clock()
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if now - self._opened_at < self.reset_s:
                    return False
                self._state = HALF_OPEN
                self._probes_in_flight = 0
            if self._probes_in_flight >= self.half_open_max:
                return False
            self._probes_in_flight += 1
            return True

    def release_probe(self) -> None:
        """Return a half-open probe slot when the request reached no verdict.

        Every request admitted by :meth:`allow` must end in exactly one of
        :meth:`record_success`, :meth:`record_failure`, or this.  Outcomes
        that say nothing about model health (bad input, queue backpressure,
        a caller-side timeout) would otherwise pin the probe slot forever
        and the circuit would shed 100% of traffic until restart.
        """
        with self._lock:
            if self._state == HALF_OPEN and self._probes_in_flight > 0:
                self._probes_in_flight -= 1

    def record_success(self) -> None:
        """A request completed; a half-open probe success closes the circuit."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._failures.clear()
                self._probes_in_flight = 0

    def record_failure(self) -> None:
        """A request failed; may open (or re-open) the circuit."""
        with self._lock:
            now = self._clock()
            if self._state == HALF_OPEN:
                self._state = OPEN
                self._opened_at = now
                self._opened_total += 1
                self._probes_in_flight = 0
                return
            self._failures.append(now)
            self._prune(now)
            if self._state == CLOSED and \
                    len(self._failures) >= self.failure_threshold:
                self._state = OPEN
                self._opened_at = now
                self._opened_total += 1

    def retry_after(self) -> float:
        """Seconds until an open circuit starts probing (0 when not open)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(0.0, self.reset_s - (self._clock() - self._opened_at))

    @property
    def state_name(self) -> str:
        with self._lock:
            return self._state

    def state(self) -> Dict[str, object]:
        with self._lock:
            now = self._clock()
            self._prune(now)
            return {
                "state": self._state,
                "recent_failures": len(self._failures),
                "failure_threshold": self.failure_threshold,
                "window_s": self.window_s,
                "reset_s": self.reset_s,
                "opened_total": self._opened_total,
            }
