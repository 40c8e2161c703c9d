"""Tests for the circuit breaker's state machine."""

import pytest

from repro.robustness.resilience import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_rounds=0)

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_rounds=2)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # non-consecutive failures never trip

    def test_cooldown_then_half_open_admits_one_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_rounds=2)
        breaker.record_failure()
        assert breaker.state == OPEN
        breaker.tick()
        assert breaker.state == OPEN and not breaker.allow()
        breaker.tick()
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone else still waits

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_rounds=1)
        breaker.record_failure()
        breaker.tick()
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_counts_a_trip(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_rounds=1)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.trips == 1
        breaker.tick()
        assert breaker.allow()
        breaker.record_failure()  # a single probe failure re-opens immediately
        assert breaker.state == OPEN
        assert breaker.trips == 2

    def test_reprobe_cycle_is_periodic(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_rounds=1)
        breaker.record_failure()
        for _ in range(3):  # OPEN → HALF_OPEN → probe fails → OPEN, repeatedly
            breaker.tick()
            assert breaker.state == HALF_OPEN
            assert breaker.allow()
            breaker.record_failure()
            assert breaker.state == OPEN

    def test_unrecorded_probe_frees_its_slot_next_round(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_rounds=1)
        breaker.record_failure()
        breaker.tick()
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe, which records no outcome
        assert not breaker.allow()
        breaker.tick()
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the next round's probe
