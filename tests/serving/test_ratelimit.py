"""Unit tests for the hardening primitives: token bucket, circuit breaker.

Both state machines take an injectable clock, so every transition is tested
deterministically — no sleeps, no wall-clock flakiness.
"""

from __future__ import annotations

import pytest

from repro.serving.ratelimit import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    TokenBucket,
    check_burst,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == \
            [True, True, True, False]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # 2 tokens/s * 0.5 s = 1 token back
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.advance(60.0)
        assert bucket.state()["tokens"] == 2.0

    def test_retry_after_names_the_refill_time(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1, clock=clock)
        assert bucket.retry_after() == 0.0
        assert bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(0.5)
        clock.advance(0.25)
        assert bucket.retry_after() == pytest.approx(0.25)

    def test_default_burst_is_rate(self):
        bucket = TokenBucket(rate=5.0, clock=FakeClock())
        assert bucket.burst == 5.0
        assert TokenBucket(rate=0.5, clock=FakeClock()).burst == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rate_rejected(self, rate):
        # ``min(burst, nan)`` is ``burst``: a NaN rate refills at once and never limits.
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=rate)

    @pytest.mark.parametrize("burst", [float("nan"), float("inf")])
    def test_non_finite_burst_rejected(self, burst):
        # A NaN burst would refuse every request, an infinite one would never limit.
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=burst)


class TestCheckBurst:
    @pytest.mark.parametrize("value", [1, 1.0, 2.5, 1e6])
    def test_accepts_one_token_or_more(self, value):
        assert check_burst(value, "burst") == float(value)
        assert isinstance(check_burst(value, "burst"), float)

    @pytest.mark.parametrize("value", [0.999, 0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_what_never_admits_or_never_empties(self, value):
        with pytest.raises(ValueError, match="cap must be a finite number >= 1"):
            check_burst(value, "cap")

    def test_a_one_token_bucket_admits_one_request_per_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.5, burst=1, clock=clock)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(1.0)
        assert not bucket.try_acquire()
        clock.advance(1.0)
        assert bucket.try_acquire()


class TestCircuitBreaker:
    def make(self, clock, **kwargs):
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("window_s", 10.0)
        kwargs.setdefault("reset_s", 5.0)
        return CircuitBreaker(clock=clock, **kwargs)

    def test_closed_allows_everything(self):
        breaker = self.make(FakeClock())
        assert breaker.state_name == CLOSED
        assert all(breaker.allow() for _ in range(100))

    def test_opens_at_threshold(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state_name == CLOSED
        breaker.record_failure()
        assert breaker.state_name == OPEN
        assert not breaker.allow()
        assert breaker.state()["opened_total"] == 1

    def test_failures_outside_window_are_forgotten(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(11.0)  # past window_s
        breaker.record_failure()
        assert breaker.state_name == CLOSED

    def test_open_sheds_until_reset_then_half_opens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(5.0)
        clock.advance(5.1)
        assert breaker.allow()  # the probe
        assert breaker.state_name == HALF_OPEN
        assert not breaker.allow()  # only half_open_max probes admitted

    def test_half_open_success_closes_and_clears(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state_name == CLOSED
        assert breaker.state()["recent_failures"] == 0
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state_name == OPEN
        assert breaker.state()["opened_total"] == 2
        assert not breaker.allow()
        clock.advance(5.1)
        assert breaker.allow()  # probes again after another reset_s

    def test_release_probe_frees_the_half_open_slot(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()  # takes the probe slot
        assert not breaker.allow()
        breaker.release_probe()  # probe ended with no verdict
        assert breaker.state_name == HALF_OPEN
        assert breaker.allow()  # slot is free again
        breaker.record_success()
        assert breaker.state_name == CLOSED

    def test_release_probe_outside_half_open_is_a_no_op(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.release_probe()
        assert breaker.state_name == CLOSED
        assert breaker.allow()
        for _ in range(3):
            breaker.record_failure()
        breaker.release_probe()
        assert breaker.state_name == OPEN
        assert not breaker.allow()

    def test_success_in_closed_state_is_a_no_op(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_success()
        assert breaker.state()["recent_failures"] == 1

    def test_retry_after_zero_when_not_open(self):
        breaker = self.make(FakeClock())
        assert breaker.retry_after() == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(window_s=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_s=-1.0)

    @pytest.mark.parametrize("name", ["window_s", "reset_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_durations_rejected(self, name, value):
        # A NaN window would never prune old failures.
        with pytest.raises(ValueError, match=name):
            CircuitBreaker(**{name: value})
