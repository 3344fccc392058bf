"""The shared retry vocabulary: backoff math and the retry loop.

All timing is injected (fake sleep, fake clock, seeded RNG) so every
assertion is exact — no wall-clock flakiness.
"""

import random

import pytest

from repro.robustness.retry import (
    RetryError,
    RetryPolicy,
    retry_call,
)


class _Flaky:
    """Fails the first N calls, then returns a value."""

    def __init__(self, failures, error=RuntimeError("boom")):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return "ok"


class _FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestRetryPolicy:
    def test_caps_grow_exponentially_to_the_ceiling(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0)
        assert [policy.cap(n) for n in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 5.0]

    def test_full_jitter_draws_within_the_cap(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=8.0)
        rng = random.Random(7)
        for attempt in (1, 2, 3, 4, 5):
            for _ in range(50):
                delay = policy.delay(attempt, rng)
                assert 0.0 <= delay <= policy.cap(attempt)

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestRetryCall:
    def test_transient_failures_are_retried_to_success(self):
        clock = _FakeClock()
        fn = _Flaky(failures=2)
        result = retry_call(
            fn,
            policy=RetryPolicy(max_attempts=4),
            rng=random.Random(1),
            sleep=clock.sleep,
            clock=clock,
        )
        assert result == "ok"
        assert fn.calls == 3
        assert len(clock.sleeps) == 2  # one backoff per failure

    def test_gives_up_after_max_attempts_with_cause(self):
        clock = _FakeClock()
        fn = _Flaky(failures=99)
        with pytest.raises(RetryError) as info:
            retry_call(
                fn,
                policy=RetryPolicy(max_attempts=3),
                rng=random.Random(1),
                sleep=clock.sleep,
                clock=clock,
            )
        assert fn.calls == 3
        assert info.value.attempts == 3
        assert info.value.last_error is fn.error
        assert info.value.__cause__ is fn.error
        assert len(clock.sleeps) == 2  # no sleep after the final failure

    def test_never_sleeps_past_the_deadline(self):
        clock = _FakeClock()
        fn = _Flaky(failures=99)
        policy = RetryPolicy(max_attempts=10, base_delay=100.0, max_delay=100.0)
        with pytest.raises(RetryError):
            retry_call(
                fn,
                policy=policy,
                deadline=5.0,
                rng=random.Random(1),
                sleep=clock.sleep,
                clock=clock,
            )
        assert clock.now <= 5.0
        assert all(s <= 5.0 for s in clock.sleeps)

    def test_no_attempt_starts_after_the_deadline(self):
        clock = _FakeClock()
        fn = _Flaky(failures=99)
        policy = RetryPolicy(max_attempts=10, base_delay=10.0, max_delay=10.0)
        with pytest.raises(RetryError) as info:
            retry_call(
                fn,
                policy=policy,
                deadline=5.0,
                rng=random.Random(1),
                sleep=clock.sleep,
                clock=clock,
            )
        # The sleep was clipped to the deadline; once it is reached no
        # further call is fired.
        assert fn.calls < 10
        assert info.value.last_error is fn.error

    def test_only_listed_exceptions_are_retried(self):
        fn = _Flaky(failures=1, error=ValueError("not transient"))
        with pytest.raises(ValueError):
            retry_call(fn, retry_on=(KeyError,), sleep=lambda s: None)
        assert fn.calls == 1

    def test_on_retry_observes_each_backoff(self):
        clock = _FakeClock()
        seen = []
        fn = _Flaky(failures=2)
        retry_call(
            fn,
            policy=RetryPolicy(max_attempts=3),
            rng=random.Random(1),
            sleep=clock.sleep,
            clock=clock,
            on_retry=lambda attempt, delay, error: seen.append(
                (attempt, delay, type(error).__name__)
            ),
        )
        assert [entry[0] for entry in seen] == [1, 2]
        assert all(entry[2] == "RuntimeError" for entry in seen)
        assert [entry[1] for entry in seen] == clock.sleeps

    def test_seeded_rng_replays_exactly(self):
        def delays(seed):
            clock = _FakeClock()
            try:
                retry_call(
                    _Flaky(failures=99),
                    policy=RetryPolicy(max_attempts=4),
                    rng=random.Random(seed),
                    sleep=clock.sleep,
                    clock=clock,
                )
            except RetryError:
                pass
            return clock.sleeps

        assert delays(123) == delays(123)

