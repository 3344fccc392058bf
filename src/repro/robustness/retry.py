"""Bounded retries with exponential backoff, full jitter, deadlines.

:func:`retry_call` is the blocking loop — call, sleep, call again — for
callers that own the clock (the HTTP client, tests).  Backoff is
exponential with *full jitter* (AWS architecture-blog style: each delay
is drawn uniformly from ``[0, cap]``), which decorrelates a thundering
herd of clients retrying against one overloaded server.  A deadline
bounds the whole affair: the loop never sleeps past it, and gives up
early rather than fire an attempt whose budget is already gone.

Determinism: all timing is injectable (``sleep``, ``clock``) and the
jitter RNG is an explicit ``random.Random`` so tests — and seeded
chaos runs — replay exactly.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional, Tuple, Type


class RetryError(RuntimeError):
    """Raised when every allowed attempt failed (or the deadline hit).

    The last underlying failure is chained as ``__cause__`` and kept
    on ``.last_error``; ``.attempts`` counts the calls actually made.
    """

    def __init__(self, message: str, attempts: int, last_error: BaseException):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class RetryPolicy:
    """The shape of a retry schedule (no state, freely shared)."""

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.1,
        max_delay: float = 5.0,
        multiplier: float = 2.0,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be >= 0")
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier

    def cap(self, attempt: int) -> float:
        """Backoff ceiling after the Nth failed attempt (1-based)."""
        return min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Full-jitter draw: uniform in ``[0, cap(attempt)]``."""
        return rng.uniform(0.0, self.cap(attempt))


def retry_call(
    fn: Callable,
    *,
    policy: Optional[RetryPolicy] = None,
    retry_on: Tuple[Type[BaseException], ...] = (Exception,),
    deadline: Optional[float] = None,
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    on_retry: Optional[Callable[[int, float, BaseException], None]] = None,
):
    """Call ``fn()`` until it returns, retries run out, or time does.

    *deadline* is an absolute ``clock()`` timestamp (monotonic by
    default).  Two deadline rules keep a bounded caller honest:

    - never sleep past the deadline;
    - never start an attempt after it (the budget is gone — surface
      the last real failure instead of burning it on a doomed call).

    *on_retry* fires before each backoff sleep with ``(attempt, delay,
    error)`` — the hook for logging/telemetry, never for control flow.

    Raises :class:`RetryError` (last failure chained) when it gives up.
    """
    policy = policy if policy is not None else RetryPolicy()
    rng = rng if rng is not None else random.Random()
    last: Optional[BaseException] = None
    for attempt in range(1, policy.max_attempts + 1):
        if deadline is not None and clock() >= deadline and last is not None:
            raise RetryError(
                f"deadline exceeded after {attempt - 1} attempts", attempt - 1, last
            ) from last
        try:
            return fn()
        except retry_on as error:
            last = error
            if attempt == policy.max_attempts:
                break
            pause = policy.delay(attempt, rng)
            if deadline is not None:
                remaining = deadline - clock()
                if remaining <= 0:
                    break
                pause = min(pause, remaining)
            if on_retry is not None:
                on_retry(attempt, pause, error)
            if pause > 0:
                sleep(pause)
    raise RetryError(
        f"gave up after {policy.max_attempts} attempts: {last!r}",
        policy.max_attempts,
        last,
    ) from last

