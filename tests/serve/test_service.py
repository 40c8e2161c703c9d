"""End-to-end tests for the always-on tester service.

The acceptance bar from the issue, asserted literally: under a fault
schedule covering every failure mode, **zero** sessions crash the loop,
every session reaches a terminal state, every attempt's ledger reconciles
exactly (``samples_total == sum(attempt_samples)``, each entry having passed
the integer reconciliation), and two same-seed runs produce byte-identical
canonical reports.
"""

import numpy as np
import pytest

from repro.core.config import TesterConfig
from repro.core.tester import TesterPipeline
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.sampling import SampleSource
from repro.robustness.faults import FaultConfig
from repro.serve import (
    AdmissionConfig,
    ChaosConfig,
    ServiceConfig,
    SessionState,
    StreamRequest,
    TesterService,
    build_requests,
)
from repro.serve.chaos import FAULT_KINDS
from repro.serve.service import request_units
from repro.serve.session import FULL_CONFIDENCE, PARTIAL_CONFIDENCE

N, K, EPS = 512, 4, 0.3


def _clean_request(request_id="req-0", seed=11, **overrides):
    params = dict(
        request_id=request_id,
        dist=DiscreteDistribution.uniform(N),
        k=K,
        eps=EPS,
        seed=seed,
    )
    params.update(overrides)
    return StreamRequest(**params)


def _run_service(requests, config=None):
    service = TesterService(config)
    for request in requests:
        service.submit(request)
    return service, service.run()


def _assert_accounting(report):
    for outcome in report.outcomes:
        assert outcome.state in SessionState.TERMINAL
        assert outcome.samples_total == sum(outcome.attempt_samples)
        assert outcome.attempts == len(outcome.attempt_samples)
        assert outcome.retired_round >= outcome.admitted_round


class TestCleanService:
    def test_single_session_matches_direct_pipeline(self):
        request = _clean_request()
        service, report = _run_service([request])
        [outcome] = report.outcomes
        assert outcome.state == SessionState.VERDICT

        # Reconstruct exactly the source the service built for session
        # index 0, attempt 1, and run the plain single-call pipeline.
        config = service.config
        source = SampleSource(
            request.dist,
            rng=np.random.default_rng(
                np.random.SeedSequence(entropy=request.seed, spawn_key=(0, 1))
            ),
            max_samples=request_units(
                request, config.tester, config.budget_slack
            ),
        )
        verdict = TesterPipeline(
            source, request.k, request.eps, config=config.tester
        ).run()
        assert outcome.accept == verdict.accept
        assert outcome.stage == verdict.stage
        assert outcome.samples_total == verdict.samples_used
        # The reason string embeds the χ² statistic's digits, so equality
        # here certifies the batched final test is bit-identical.
        assert outcome.reason == verdict.reason
        assert outcome.confidence == FULL_CONFIDENCE

    def test_empty_service_runs_zero_rounds(self):
        _, report = _run_service([])
        assert report.outcomes == () and report.rounds == 0

    def test_duplicate_request_id_rejected_loudly(self):
        service = TesterService()
        service.submit(_clean_request())
        with pytest.raises(ValueError):
            service.submit(_clean_request())

    def test_admission_books_balance_after_run(self):
        service, report = _run_service(
            [_clean_request(f"r{i}", seed=i) for i in range(3)]
        )
        assert service.admission.idle
        assert service.admission.inflight_units == 0
        assert service.admission.admitted_units == service.admission.released_units
        service.admission.check_invariants()

    def test_queue_overflow_sheds_deterministically(self):
        config = ServiceConfig(
            admission=AdmissionConfig(queue_limit=2, max_sessions=2)
        )
        requests = [_clean_request(f"r{i}", seed=i) for i in range(4)]
        service, report = _run_service(requests, config)
        counts = report.counts()
        assert counts["REJECTED"] == 2
        assert len(report.outcomes) == 2
        assert {r.request_id for r in report.rejections} == {"r2", "r3"}
        assert len(report.outcomes) + len(report.rejections) == 4


class TestLongLivedService:
    WAVES, WAVE = 30, 4

    @staticmethod
    def _pending(service):
        """Request ids the service holds for its next report."""
        return (
            set(service._submission_order)
            | set(service._outcomes)
            | {r.request_id for r in service._rejections}
        )

    def test_each_run_reports_its_wave_then_releases_it(self):
        # Two of each four-request wave are shed by the queue limit, so
        # every report carries both outcomes and rejections.
        config = ServiceConfig(
            admission=AdmissionConfig(queue_limit=2, max_sessions=2)
        )
        service = TesterService(config)
        for w in range(self.WAVES):
            wave = [
                _clean_request(f"w{w}-r{i}", seed=w * self.WAVE + i)
                for i in range(self.WAVE)
            ]
            for request in wave:
                service.submit(request)
            assert self._pending(service) == {q.request_id for q in wave}
            assert len(service.session_traces) <= self.WAVE
            report = service.run()
            reported = [o.request_id for o in report.outcomes]
            shed = [r.request_id for r in report.rejections]
            assert reported == [f"w{w}-r0", f"w{w}-r1"]
            assert shed == [f"w{w}-r2", f"w{w}-r3"]
            assert [o.request_id for o in report.outcomes[-self.WAVE:]] == reported
            assert sorted(service.session_traces) == reported
            assert not self._pending(service)
            assert not service.sessions and not service._requests


class TestFaultPaths:
    def test_stream_fault_exhausts_retries_then_evicts_and_trips_breaker(self):
        request = _clean_request(
            source_id="flaky",
            faults=FaultConfig().with_failure_schedule(
                seed=3, mean_interval=2.0, horizon=16
            ),
        )
        service, report = _run_service([request])
        [outcome] = report.outcomes
        assert outcome.state == SessionState.EVICTED
        assert outcome.attempts == service.config.retry.max_attempts
        assert "retries exhausted" in outcome.reason
        assert service.breakers["flaky"].trips >= 1
        _assert_accounting(report)

    def test_projection_fault_degrades_to_dense_fallback(self):
        request = _clean_request(projection_fault=True)
        service, report = _run_service([request])
        [outcome] = report.outcomes
        assert outcome.state == SessionState.DEGRADED
        assert outcome.degraded_mode == "projection-dense-fallback"
        # The dense fallback is exact, so the verdict keeps full confidence.
        assert outcome.confidence == FULL_CONFIDENCE
        assert outcome.accept is not None
        _assert_accounting(report)

    def test_budget_death_after_check_degrades_to_partial_pipeline(self):
        # Find the prefix cost (through check) of the exact stream the
        # service will run, then cap the budget between prefix and final.
        request = _clean_request()
        probe = SampleSource(
            request.dist,
            rng=np.random.default_rng(
                np.random.SeedSequence(entropy=request.seed, spawn_key=(0, 1))
            ),
        )
        pipeline = TesterPipeline(probe, K, EPS, config=TesterConfig.practical())
        assert pipeline.prepare() is None
        pipeline.run_partition()
        pipeline.run_learn()
        assert pipeline.run_sieve() is None
        assert pipeline.run_check() is None  # uniform reaches the final test
        prefix = probe.samples_drawn

        capped = _clean_request(max_samples=prefix + 1_000)
        service, report = _run_service([capped])
        [outcome] = report.outcomes
        assert outcome.state == SessionState.DEGRADED
        assert outcome.degraded_mode == "partial-pipeline"
        assert outcome.accept is True
        assert outcome.stage == "check"
        assert outcome.confidence == PARTIAL_CONFIDENCE
        _assert_accounting(report)

    def test_budget_death_before_check_evicts(self):
        service, report = _run_service([_clean_request(max_samples=10_000)])
        [outcome] = report.outcomes
        assert outcome.state == SessionState.EVICTED
        assert "SampleBudgetExceeded" in outcome.reason
        _assert_accounting(report)

    def test_deadline_eviction(self):
        service, report = _run_service([_clean_request(deadline_ticks=3)])
        [outcome] = report.outcomes
        assert outcome.state == SessionState.EVICTED
        assert "TrialTimeout" in outcome.reason or "deadline" in outcome.reason
        _assert_accounting(report)


class TestChaosMatrix:
    """Every fault kind, in one population, under the acceptance criteria."""

    CONFIG = ChaosConfig(sessions=10, fault_rate=0.5, seed=7)

    def test_fault_schedule_covers_every_kind(self):
        requests = build_requests(self.CONFIG)
        assert len(requests) == 10
        faulty = [
            r
            for r in requests
            if r.faults is not None
            or r.deadline_ticks is not None
            or r.projection_fault
        ]
        assert len(faulty) == 5
        # 5 faulty sessions cycle through all 5 kinds exactly once.
        assert sum(1 for r in requests if r.source_id == "flaky") == 1
        assert sum(1 for r in requests if r.deadline_ticks is not None) == 1
        assert sum(1 for r in requests if r.projection_fault) == 1

    def test_all_sessions_terminal_with_exact_accounting(self):
        service, report = _run_service(build_requests(self.CONFIG))
        assert len(report.outcomes) == self.CONFIG.sessions
        assert len(report.rejections) == 0
        _assert_accounting(report)
        assert not service.sessions  # nothing left in flight
        assert service.admission.idle

    def test_same_seed_replay_is_byte_identical(self):
        _, first = _run_service(build_requests(self.CONFIG))
        _, second = _run_service(build_requests(self.CONFIG))
        assert first.canonical_json() == second.canonical_json()

    def test_different_seed_changes_the_report(self):
        _, first = _run_service(build_requests(self.CONFIG))
        other = ChaosConfig(sessions=10, fault_rate=0.5, seed=8)
        _, second = _run_service(build_requests(other))
        assert first.canonical_json() != second.canonical_json()

    def test_traces_retained_per_retired_session(self):
        service, report = _run_service(build_requests(self.CONFIG))
        assert set(service.session_traces) == {
            o.request_id for o in report.outcomes
        }
        for events in service.session_traces.values():
            assert len(events) > 0

