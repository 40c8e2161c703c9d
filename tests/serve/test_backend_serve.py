"""Backend threading through the serve layer.

Regression net for the bug this PR fixes: ``StreamSession.start_attempt``
used to hard-code the pipeline construction, so a request's ``backend``
field silently ran pods16.  Covers the full path — request validation,
session → pipeline threading, mixed-backend batch grouping (same-shape
sessions on different backends share one kernel group, bit-identically), the
escalation redraw loop inside a service round, and the cdkl22 projection
fault → dense fallback → DEGRADED path.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.backends import BACKENDS
from repro.core.config import TesterConfig
from repro.core.tester import TesterPipeline
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.sampling import SampleSource
from repro.experiments.workloads import make
from repro.observability.metrics import get_metrics
from repro.serve import ChaosConfig, ServiceConfig, TesterService, build_requests
from repro.serve.batch import FinalBatchItem, compute_final_statistics
from repro.serve.service import StepClock
from repro.serve.session import (
    PARTIAL_CONFIDENCE,
    SessionState,
    StreamRequest,
    StreamSession,
)


class _CountingSource(SampleSource):
    """A source that counts its draw calls (each path is one call)."""

    draw_count = 0

    def draw(self, m):
        self.draw_count += 1
        return super().draw(m)

    def draw_counts(self, m):
        self.draw_count += 1
        return super().draw_counts(m)

    def draw_counts_poissonized(self, m):
        self.draw_count += 1
        return super().draw_counts_poissonized(m)


N, K, EPS = 512, 4, 0.3  # full-pipeline regime (not plug-in, not trivial)
CONFIG = TesterConfig.practical()


def _request(**overrides):
    params = dict(
        request_id="req-0",
        dist=DiscreteDistribution.uniform(N),
        k=K,
        eps=EPS,
        seed=11,
    )
    params.update(overrides)
    return StreamRequest(**params)


def _session(request, **overrides):
    params = dict(
        config=CONFIG,
        budget_cap=None,
        clock=StepClock(),
        admitted_round=1,
    )
    params.update(overrides)
    return StreamSession(0, request, **params)


class TestBackendThreading:
    def test_request_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            _request(backend="pods17")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_session_threads_backend_into_pipeline(self, backend):
        """The regression: the pipeline must carry the request's backend,
        not a hard-coded default."""
        session = _session(_request(backend=backend))
        pipeline = session.start_attempt()
        assert pipeline.backend == backend
        session.abort_attempt()

    def test_attempt_span_records_backend(self):
        session = _session(_request(backend="cdkl22"))
        pipeline = session.start_attempt()
        verdict = pipeline.run()
        session.close_attempt(verdict.samples_used)
        spans = [e for e in session.tracer.export() if e["name"] == "attempt"]
        assert spans and spans[0]["attrs"]["backend"] == "cdkl22"


class TestMixedBatchGrouping:
    def _item(self, seed):
        rng = np.random.default_rng(seed)
        n, repeats = 32, 3
        pmf = rng.dirichlet(np.ones(n))
        from repro.util.intervals import Partition

        boundaries = np.array([0, 8, 16, 24, 32])
        return FinalBatchItem(
            counts=rng.poisson(50.0 * pmf, size=(repeats, n)).astype(np.float64),
            m=50.0,
            reference_pmf=pmf,
            mask=np.ones(n, dtype=bool),
            partition=Partition(boundaries),
        )

    def test_mixed_backends_match_singleton_path_bitwise(self):
        """Same-shape items from sessions on different backends share one
        kernel group; every statistic must equal its singleton computation."""
        items = [self._item(seed=i) for i in range(6)]
        batched = compute_final_statistics(items)
        for item, z in zip(items, batched):
            (alone,) = compute_final_statistics([item])
            np.testing.assert_array_equal(z, alone)

    def test_mixed_chaos_drill_replays_byte_identically(self):
        def run():
            chaos = ChaosConfig(sessions=8, fault_rate=0.25, seed=5, backend="mixed")
            service = TesterService(ServiceConfig(tester=CONFIG))
            for request in build_requests(chaos):
                service.submit(request)
            return service.run()

        first, second = run(), run()
        assert first.canonical_json() == second.canonical_json()
        assert len(first.outcomes) == 8


class TestEscalationInRound:
    def test_escalated_session_redraws_within_the_round(self):
        """Force the stage-0 statistic into the guard band (guard width →
        ∞), so every cdkl22 session must escalate: the service's inner batch
        loop redraws at the larger m and still retires a VERDICT whose
        ledger covers both draws."""
        config = replace(CONFIG, cdkl22_guard_sigmas=1e9)
        service = TesterService(ServiceConfig(tester=config))
        service.submit(_request(backend="cdkl22", seed=23))
        before = get_metrics().snapshot().get("tester.chi2_escalations", 0)
        report = service.run()
        after = get_metrics().snapshot().get("tester.chi2_escalations", 0)

        (outcome,) = report.outcomes
        assert outcome.state == SessionState.VERDICT
        assert after - before >= 1
        assert "after escalation" in outcome.reason

    def test_escalated_verdict_matches_standalone_pipeline(self):
        """The batched escalation redraw must be invisible: serve and a
        plain pipeline run on the same seed stream agree exactly."""
        config = replace(CONFIG, cdkl22_guard_sigmas=1e9)
        service = TesterService(ServiceConfig(tester=config))
        service.submit(_request(backend="cdkl22", seed=23))
        (outcome,) = service.run().outcomes

        session = _session(_request(backend="cdkl22", seed=23), config=config)
        verdict = session.start_attempt().run()
        assert outcome.accept == verdict.accept
        assert outcome.reason == verdict.reason
        assert outcome.samples_total == verdict.samples_used


class TestProjectionFallback:
    def test_cdkl22_projection_fault_degrades_to_dense(self):
        """A cdkl22 session with the declared projection fault must land
        DEGRADED (``projection-dense-fallback``), not crash the round."""
        service = TesterService(ServiceConfig(tester=CONFIG))
        service.submit(_request(backend="cdkl22", projection_fault=True))
        (outcome,) = service.run().outcomes
        assert outcome.state == SessionState.DEGRADED
        assert outcome.degraded_mode == "projection-dense-fallback"
        assert outcome.accept is not None  # still reached a verdict

    @staticmethod
    def _fallbacks():
        return get_metrics().counter("serve.projection_fallbacks").value

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_declared_fault_counts_once_and_degrades(self, backend):
        """The fault is one event: the first attempt whose check ran counts
        it when it closes and degrades the session; a later attempt that
        runs its check too adds nothing.  The verdict is the clean
        session's: the fault only flags it."""
        session = _session(_request(backend=backend, projection_fault=True))
        pipeline = session.start_attempt()
        before = self._fallbacks()
        verdict = pipeline.run()
        assert pipeline.reference is not None  # the check ran
        assert self._fallbacks() == before  # counted when the attempt closes
        session.close_attempt(verdict.samples_used)
        assert self._fallbacks() - before == 1
        outcome = session.retire_verdict(verdict, 1, 0.0)
        assert outcome.state == SessionState.DEGRADED
        assert outcome.degraded_mode == "projection-dense-fallback"

        clean = _session(_request(backend=backend)).start_attempt().run()
        assert (verdict.accept, verdict.reason) == (clean.accept, clean.reason)

        retry = session.start_attempt()
        assert retry.run_to_final() is None  # through its check
        assert retry.reference is not None
        session.abort_attempt()
        assert self._fallbacks() - before == 1

    def test_attempts_rejected_at_the_sieve_never_count(self):
        """A pods16 attempt that rejects at the sieve never runs the check:
        it neither counts nor degrades.  The first later attempt whose
        check runs counts exactly once."""
        # A sawtooth mixed into uniform at a weight where the sieve rejects
        # attempts 1 and 2 of this seed and passes attempt 3.
        saw = make("sawtooth-uniform", N, K, EPS, rng=0).pmf
        weight = 0.0702
        dist = DiscreteDistribution((1 - weight) / N + weight * saw)
        session = _session(_request(dist=dist, seed=2, projection_fault=True))
        before = self._fallbacks()
        stages = []
        for _ in range(3):
            pipeline = session.start_attempt()
            verdict = pipeline.run()
            stages.append(verdict.stage)
            session.close_attempt(verdict.samples_used)
            if verdict.stage == "sieve":
                assert pipeline.reference is None
                assert self._fallbacks() == before
                assert session.degraded_mode is None
        assert stages == ["sieve", "sieve", "chi2"]
        assert self._fallbacks() - before == 1
        assert session.degraded_mode == "projection-dense-fallback"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_final_draw_death_after_the_check_keeps_the_fallback_mode(self, backend):
        """An attempt whose check ran and whose final draw then dies of the
        deadline retires partial-pipeline, but flagged with the mode that
        landed first: the fallback, counted once."""
        request = _request(backend=backend, projection_fault=True)
        probe = _CountingSource(
            request.dist,
            rng=np.random.default_rng(
                np.random.SeedSequence(entropy=request.seed, spawn_key=(0, 1))
            ),
        )
        prefix = TesterPipeline(probe, K, EPS, config=CONFIG, backend=backend)
        assert prefix.run_to_final() is None
        # Every draw reads the session's step clock once; so do the deadline's
        # construction and the round's pre-attempt expiry check.  With two
        # ticks beyond the prefix's draw calls, the first final draw expires.
        ticks = probe.draw_count + 2
        service = TesterService(ServiceConfig(tester=CONFIG))
        service.submit(replace(request, deadline_ticks=ticks))
        before = self._fallbacks()
        (outcome,) = service.run().outcomes
        assert outcome.state == SessionState.DEGRADED
        assert outcome.stage == "check"  # the partial-pipeline verdict
        assert outcome.confidence == PARTIAL_CONFIDENCE
        assert "TrialTimeout" in outcome.reason
        assert outcome.degraded_mode == "projection-dense-fallback"
        assert self._fallbacks() - before == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_projection_exception_propagates_out_of_run(self, backend, monkeypatch):
        """Nothing catches the projection's exceptions: a failing projection
        is a bug, so it must crash ``run()`` rather than degrade the
        session."""
        from repro.distributions import projection

        def failing(inp, k):
            raise RuntimeError("projection failure")

        monkeypatch.setattr(projection, "_coarse_l1", failing)
        service = TesterService(ServiceConfig(tester=CONFIG))
        service.submit(_request(backend=backend))
        with pytest.raises(RuntimeError, match="projection failure"):
            service.run()
