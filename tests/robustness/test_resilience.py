"""Tests for retry, deadlines, and trial-failure records."""

import pytest

from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.sampling import SampleSource
from repro.robustness.faults import InjectedStreamFailure
from repro.robustness.resilience import (
    Deadline,
    DeadlineSource,
    RetryPolicy,
    TrialFailure,
    TrialPolicy,
    TrialTimeout,
    run_with_retry,
)


class TestRetryPolicy:
    def test_deterministic_backoff(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.5, multiplier=2.0, max_delay=3.0)
        assert [policy.delay(a) for a in (1, 2, 3, 4)] == [0.5, 1.0, 2.0, 3.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    def test_retries_then_succeeds(self):
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 3:
                raise InjectedStreamFailure(attempt)
            return "ok"

        result, attempts = run_with_retry(flaky, RetryPolicy(max_attempts=3))
        assert result == "ok"
        assert attempts == 3
        assert calls == [1, 2, 3]

    def test_exhausted_retries_reraise(self):
        def always_fails(attempt):
            raise InjectedStreamFailure(attempt)

        with pytest.raises(InjectedStreamFailure):
            run_with_retry(always_fails, RetryPolicy(max_attempts=2))

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def crashes(attempt):
            calls.append(attempt)
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            run_with_retry(crashes, RetryPolicy(max_attempts=5))
        assert calls == [1]

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_jitter_stays_within_the_documented_band(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.5, multiplier=2.0, max_delay=10.0,
            jitter=0.4, jitter_seed=3,
        )
        for attempt in range(1, 8):
            base = min(10.0, 0.5 * 2.0 ** (attempt - 1))
            delay = policy.delay(attempt)
            assert base * (1.0 - 0.4) <= delay <= base

    def test_jitter_schedule_is_byte_identical_under_the_same_seed(self):
        fields = dict(
            max_attempts=6, base_delay=1.0, multiplier=2.0, max_delay=60.0,
            jitter=0.5, jitter_seed=42,
        )
        first = [RetryPolicy(**fields).delay(a) for a in range(1, 6)]
        second = [RetryPolicy(**fields).delay(a) for a in range(1, 6)]
        # Exact float equality: the schedule is a pure function of the
        # policy fields, independent of any shared RNG state.
        assert first == second
        jittered = [RetryPolicy(**{**fields, "jitter_seed": 43}).delay(a)
                    for a in range(1, 6)]
        assert first != jittered  # different seeds de-synchronise sessions

    def test_zero_jitter_leaves_the_schedule_unchanged(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, jitter=0.0,
                             jitter_seed=99)
        assert [policy.delay(a) for a in (1, 2, 3)] == [1.0, 2.0, 4.0]

    def test_backoff_sleeps_deterministically(self):
        slept = []

        def always_fails(attempt):
            raise InjectedStreamFailure(attempt)

        policy = RetryPolicy(max_attempts=3, base_delay=1.0, multiplier=2.0)
        with pytest.raises(InjectedStreamFailure):
            run_with_retry(always_fails, policy, sleep=slept.append)
        assert slept == [1.0, 2.0]  # no jitter, no sleep after the last attempt


class TestDeadline:
    def test_fake_clock(self):
        now = [0.0]
        deadline = Deadline(10.0, clock=lambda: now[0])
        assert not deadline.expired
        assert deadline.remaining() == pytest.approx(10.0)
        now[0] = 10.5
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(TrialTimeout):
            deadline.check()

    def test_validation(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestDeadlineSource:
    def test_draw_raises_after_expiry(self):
        now = [0.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        source = DeadlineSource(
            SampleSource(DiscreteDistribution.uniform(8), rng=0), deadline
        )
        source.draw(10)
        source.draw_counts(10)
        assert source.samples_drawn == 20.0
        now[0] = 6.0
        with pytest.raises(TrialTimeout):
            source.draw(1)
        with pytest.raises(TrialTimeout):
            source.draw_counts_poissonized(1.0)


class TestTrialPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialPolicy(max_failure_rate=1.0)
        with pytest.raises(ValueError):
            TrialPolicy(trial_timeout=0.0)

    def test_failure_record_renders(self):
        failure = TrialFailure(
            trial=3,
            error_type="InjectedStreamFailure",
            message="boom",
            attempts=2,
            elapsed=0.5,
        )
        text = str(failure)
        assert "trial 3" in text and "InjectedStreamFailure" in text
