"""Bounded retry, circuit breakers, wall-clock deadlines, and trial-failure
records.

Everything here is deliberately *deterministic*: backoff jitter is seeded
(the delay schedule is a pure function of the policy, so experiments replay
bit-for-bit given a seed), breaker cooldowns are counted in caller rounds,
and deadlines are cooperative (checked at every draw through
:class:`DeadlineSource`), so a timed-out trial aborts at a well-defined
point in its sample stream instead of being killed mid-arithmetic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from repro.distributions.sampling import SampleBudgetExceeded, SampleSource, SourceProxy
from repro.observability.metrics import get_metrics
from repro.robustness.faults import CorruptSampleError, InjectedStreamFailure

T = TypeVar("T")


class TrialTimeout(RuntimeError):
    """A trial exceeded its wall-clock deadline (raised cooperatively)."""

    def __init__(self, seconds: float) -> None:
        super().__init__(f"trial exceeded its {seconds:g}s wall-clock deadline")
        self.seconds = seconds


#: Exceptions that model recoverable stream trouble: retrying the trial on a
#: fresh stream is sound (the failure is transient or stream-specific, not a
#: programming error).
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (InjectedStreamFailure,)

#: Exceptions a trial may raise that the isolation machinery records as a
#: structured :class:`TrialFailure` instead of propagating: stream faults,
#: budget exhaustion, deadline overruns, and corrupt-data crashes
#: (``ValueError`` covers ``counts_from_samples`` on out-of-domain samples).
ISOLATED_ERRORS: tuple[type[BaseException], ...] = (
    InjectedStreamFailure,
    CorruptSampleError,
    SampleBudgetExceeded,
    TrialTimeout,
    ValueError,
    ArithmeticError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic, seeded-jitter exponential backoff.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means up to
    two retries.  ``base_delay=0`` (the default) disables sleeping entirely,
    which is what simulation loops want — the backoff schedule still exists
    for callers that wrap real I/O.

    ``jitter`` spreads each delay uniformly over ``[delay·(1 − jitter),
    delay]``: many sessions retrying the same transient outage would
    otherwise re-draw in lockstep and hammer the source again simultaneously
    (the thundering herd the serve layer must avoid).  The jitter stream is
    seeded by ``jitter_seed`` and indexed by the attempt number, so the
    whole schedule is a pure function of the policy — two policies with the
    same fields produce byte-identical delay sequences, and two sessions
    with different ``jitter_seed`` values de-synchronise.
    """

    max_attempts: int = 3
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    retry_on: tuple[type[BaseException], ...] = TRANSIENT_ERRORS
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be ≥ 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be ≥ 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int) -> float:
        """Seconds to wait after failed attempt number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        base = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter == 0.0 or base == 0.0:
            return base
        # One throwaway generator per (seed, attempt): the draw depends only
        # on the policy fields, never on shared RNG state, so concurrent
        # sessions computing delays cannot perturb each other's schedules.
        seq = np.random.SeedSequence(self.jitter_seed, spawn_key=(attempt,))
        fraction = float(np.random.default_rng(seq).random())
        return base * (1.0 - self.jitter * fraction)


def run_with_retry(
    fn: Callable[[int], T],
    policy: RetryPolicy | None = None,
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[T, int]:
    """Call ``fn(attempt)`` under the retry policy.

    ``fn`` receives the 1-based attempt number so it can derive a *fresh*
    RNG sub-stream per attempt — retrying a deterministic failure on the
    same stream would fail identically forever.  Returns ``(result,
    attempts_used)``; after the last allowed attempt the exception
    propagates.
    """
    if policy is None:
        policy = RetryPolicy()
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn(attempt), attempt
        except policy.retry_on:
            if attempt == policy.max_attempts:
                raise
            get_metrics().counter("robustness.retries").inc()
            pause = policy.delay(attempt)
            if pause > 0:
                sleep(pause)
    raise AssertionError("unreachable")  # pragma: no cover


CLOSED = "CLOSED"
OPEN = "OPEN"
HALF_OPEN = "HALF_OPEN"


class CircuitBreaker:
    """Consecutive-failure trip with a scheduled re-probe.

    One breaker guards one upstream: a serve ``source_id``, or a sweep
    worker's results store.  When the upstream fails repeatedly, retrying
    every caller against it burns budget on something that is plainly
    down, so the breaker trips after ``failure_threshold`` *consecutive*
    failures:

    * **CLOSED** — healthy; traffic flows.
    * **OPEN** — tripped; callers wait (they are not evicted — their own
      deadlines and retry budgets decide that).  After ``cooldown_rounds``
      rounds the breaker moves to HALF_OPEN.
    * **HALF_OPEN** — one probe per round is let through; a success closes
      the breaker, a failure re-opens it for another cooldown.  A probe
      that records neither (a serve session dying of its own budget) frees
      the slot at the next :meth:`tick`, so it cannot block its upstream.

    A round is one :meth:`tick` of the caller's loop (a service round, one
    pass of a worker's claim loop), so breaker behaviour replays
    identically under a fixed seed.
    """

    def __init__(self, failure_threshold: int = 3, cooldown_rounds: int = 2) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be ≥ 1, got {failure_threshold}")
        if cooldown_rounds < 1:
            raise ValueError(f"cooldown_rounds must be ≥ 1, got {cooldown_rounds}")
        self.failure_threshold = failure_threshold
        self.cooldown_rounds = cooldown_rounds
        self.state = CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self._cooldown_left = 0
        self._probe_inflight = False

    def tick(self) -> None:
        """Advance one round: free the probe slot and count down an open
        breaker's cooldown."""
        self._probe_inflight = False
        if self.state == OPEN:
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self.state = HALF_OPEN

    def allow(self) -> bool:
        """May a caller on this upstream start (or continue) an attempt now?

        In HALF_OPEN only the first caller per round gets through — it
        becomes the probe whose outcome decides the breaker's fate.
        """
        if self.state == CLOSED:
            return True
        if self.state == HALF_OPEN and not self._probe_inflight:
            self._probe_inflight = True
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._probe_inflight = False
        self.state = CLOSED

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        self._probe_inflight = False
        if self.state == HALF_OPEN or self.consecutive_failures >= self.failure_threshold:
            if self.state != OPEN:
                self.trips += 1
            self.state = OPEN
            self._cooldown_left = self.cooldown_rounds
            self.consecutive_failures = 0


class Deadline:
    """A wall-clock deadline with an injectable clock (for tests)."""

    def __init__(
        self, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        self.seconds = seconds
        self._clock = clock
        self._expires = clock() + seconds

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires

    def remaining(self) -> float:
        return max(0.0, self._expires - self._clock())

    def check(self) -> None:
        """Raise :class:`TrialTimeout` once the deadline has passed."""
        if self.expired:
            raise TrialTimeout(self.seconds)


class DeadlineSource(SourceProxy):
    """A :class:`SampleSource` proxy that enforces a deadline on every draw.

    Testers spend their time in sample-draw loops, so checking at each draw
    bounds overruns tightly without preemption.
    """

    def __init__(self, source: SampleSource, deadline: Deadline) -> None:
        super().__init__(source)
        self._deadline = deadline

    def draw(self, m: int) -> np.ndarray:
        self._deadline.check()
        return self._base.draw(m)

    def draw_counts(self, m: int) -> np.ndarray:
        self._deadline.check()
        return self._base.draw_counts(m)

    def draw_counts_poissonized(self, m: float) -> np.ndarray:
        self._deadline.check()
        return self._base.draw_counts_poissonized(m)


@dataclass(frozen=True)
class TrialFailure:
    """Structured record of one isolated (non-fatal) trial failure."""

    trial: int
    error_type: str
    message: str
    attempts: int
    elapsed: float

    def __str__(self) -> str:
        return (
            f"trial {self.trial}: {self.error_type} after {self.attempts} "
            f"attempt(s) in {self.elapsed:.2f}s — {self.message}"
        )


class TooManyTrialFailures(RuntimeError):
    """The trial-failure rate exceeded the policy's rejection threshold."""

    def __init__(
        self, failures: tuple[TrialFailure, ...], trials: int, threshold: float
    ) -> None:
        detail = "; ".join(str(f) for f in failures[:3])
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        super().__init__(
            f"{len(failures)}/{trials} trials failed "
            f"(threshold {threshold:.0%}): {detail}{more}"
        )
        self.failures = failures
        self.trials = trials
        self.threshold = threshold


@dataclass(frozen=True)
class TrialPolicy:
    """Fault-tolerance policy for a repeated-trial estimate.

    * ``retry`` — per-trial bounded retry on transient stream errors;
    * ``trial_timeout`` — per-trial wall-clock deadline in seconds
      (``None`` → unlimited), enforced via :class:`DeadlineSource`;
    * ``max_samples`` — per-trial hard sample cap passed to each trial's
      source (``None`` → uncapped);
    * ``max_failure_rate`` — once retries are exhausted a trial is recorded
      as a :class:`TrialFailure` and the estimate proceeds *without* it;
      only when failures exceed this fraction of all trials does the
      estimate itself fail, with :class:`TooManyTrialFailures`;
    * ``isolate`` — the exception types eligible for isolation (anything
      else propagates immediately: programming errors must stay loud).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    trial_timeout: float | None = None
    max_samples: float | None = None
    max_failure_rate: float = 0.25
    isolate: tuple[type[BaseException], ...] = ISOLATED_ERRORS

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_failure_rate < 1.0:
            raise ValueError(
                f"max_failure_rate must be in [0, 1), got {self.max_failure_rate}"
            )
        if self.trial_timeout is not None and self.trial_timeout <= 0:
            raise ValueError(f"trial_timeout must be positive, got {self.trial_timeout}")
