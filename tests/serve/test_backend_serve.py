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
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.projection import (
    coarse_flattening_projection,
    exists_close_histogram,
)
from repro.observability.metrics import get_metrics
from repro.serve import ChaosConfig, ServiceConfig, TesterService, build_requests
from repro.serve.batch import FinalBatchItem, compute_final_statistics
from repro.serve.service import StepClock
from repro.serve.session import SessionState, StreamRequest, StreamSession

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
        """A cdkl22 session with an injected fast-engine failure must land
        DEGRADED via the dense projection fallback, not crash the round."""
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
        """The fault is one event: the session's first projection call counts
        it and degrades the session; later calls (same attempt or a new
        one) go straight to the plain projection."""
        session = _session(_request(backend=backend, projection_fault=True))
        pipeline = session.start_attempt()
        before = self._fallbacks()
        verdict = pipeline.run()
        assert self._fallbacks() - before == 1
        session.close_attempt(verdict.samples_used)
        outcome = session.retire_verdict(verdict, 1, 0.0)
        assert outcome.state == SessionState.DEGRADED
        assert outcome.degraded_mode == "projection-dense-fallback"

        args = (
            pipeline.learned.to_pmf(),
            pipeline.partition,
            pipeline.k,
            pipeline.sieve.kept,
        )
        if backend == "pods16":
            args += (CONFIG.check_tolerance(EPS),)
            expected = exists_close_histogram(*args)
            for _ in range(2):
                assert pipeline.check_oracle(*args) == expected
        else:
            expected = coarse_flattening_projection(*args)
            for _ in range(2):
                got = pipeline.project_oracle(*args)
                assert got.distance == expected.distance
                np.testing.assert_array_equal(got.boundaries, expected.boundaries)
        retry = session.start_attempt()
        assert retry.check_oracle is exists_close_histogram
        assert retry.project_oracle is coarse_flattening_projection
        session.abort_attempt()
        assert self._fallbacks() - before == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_projection_exception_propagates_out_of_run(self, backend, monkeypatch):
        """No request field reaches the projection's engine and nothing
        catches its exceptions: a failing projection is a bug, so it must
        crash ``run()`` rather than degrade the session."""
        from repro.distributions import projection

        real = projection._resolve_engine

        def dense_only(engine, n):
            if engine != "dense":
                raise RuntimeError("non-dense projection failure")
            return real(engine, n)

        monkeypatch.setattr(projection, "_resolve_engine", dense_only)
        service = TesterService(ServiceConfig(tester=CONFIG))
        service.submit(_request(backend=backend))
        with pytest.raises(RuntimeError, match="non-dense projection failure"):
            service.run()
