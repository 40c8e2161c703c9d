"""The per-stream session state machine.

A :class:`StreamSession` owns one submitted test request through its whole
service lifetime::

    ACCEPTED ──start_attempt──▶ SAMPLING ──verdict──▶ VERDICT
        ▲                          │  │
        │   (retry w/ backoff)     │  └──degrade──▶ DEGRADED
        └──────────────────────────┘
                                   └──give up───▶ EVICTED

Every attempt gets a *fresh* tester pipeline, sample source, and
:class:`~repro.observability.ledger.SampleLedger` — retrying a failed
attempt on the same stream would re-trigger a deterministic failure
forever, and reusing samples across attempts is exactly the corrigendum
bug class this repo exists to avoid.  Each attempt's ledger reconciles
*exactly* (integer equality) whether the attempt finished or died
mid-stage: pipeline stages record their draws in ``finally`` blocks, and
the failure path calls :meth:`~repro.core.tester.TesterPipeline.abort`.

Determinism: attempt ``a`` of session ``i`` draws from
``SeedSequence(entropy=request.seed, spawn_key=(i, a))``; the fault stream
(when the request carries a fault model) uses ``spawn_key=(i, a, 1)``.
Nothing depends on wall-clock time — deadlines run on the service's
virtual step clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.backends import DEFAULT_BACKEND, validate_backend
from repro.core.config import TesterConfig
from repro.core.tester import TesterPipeline, Verdict
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.sampling import SampleSource
from repro.observability.metrics import get_metrics
from repro.observability.trace import RecordingTracer
from repro.robustness.faults import FaultConfig, FaultInjectingSource
from repro.robustness.resilience import Deadline, DeadlineSource


class SessionState:
    """Terminal and transient states of a stream session (str constants)."""

    ACCEPTED = "ACCEPTED"
    SAMPLING = "SAMPLING"
    VERDICT = "VERDICT"
    DEGRADED = "DEGRADED"
    EVICTED = "EVICTED"

    #: States a retired session may end in — anything else is a crash.
    TERMINAL = (VERDICT, DEGRADED, EVICTED)


#: Confidence of an undegraded Algorithm 1 verdict (Theorem 3.1's 2/3).
FULL_CONFIDENCE = 2.0 / 3.0

#: Confidence after the partial-pipeline degradation: the learn/sieve/check
#: prefix passed but the final χ² test never completed, so only the
#: learner's implicit evidence supports the accept.
PARTIAL_CONFIDENCE = 0.5


@dataclass(frozen=True)
class StreamRequest:
    """One submitted test: a stream plus its test parameters and limits."""

    request_id: str
    dist: DiscreteDistribution
    k: int
    eps: float
    seed: int
    #: Upstream grouping key for the per-source circuit breaker: sessions on
    #: one flaky ingest share a breaker, so repeated failures there stop
    #: burning budget without touching healthy sources.
    source_id: str = "default"
    #: Fault model applied to the stream (``None``/no-op → clean stream).
    faults: Optional[FaultConfig] = None
    #: Session deadline in virtual clock ticks (``None`` → no deadline).
    #: The deadline spans *all* attempts: it is created once per session and
    #: shared by every attempt's :class:`DeadlineSource`.
    deadline_ticks: Optional[int] = None
    #: Per-attempt hard sample cap (``None`` → the service derives one from
    #: the backend's budget formula with its fixed slack).
    max_samples: Optional[int] = None
    #: Chaos knob: a declared projection fault — the first attempt whose
    #: check stage ran counts one fallback when it closes, and the session
    #: retires DEGRADED (``projection-dense-fallback``).
    projection_fault: bool = False
    #: Tester backend for this session ("pods16" | "cdkl22").  Part of the
    #: admission cost formula; mixed-backend rounds still batch same-shape
    #: sessions together.
    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        if self.deadline_ticks is not None and self.deadline_ticks < 1:
            raise ValueError(f"deadline_ticks must be ≥ 1, got {self.deadline_ticks}")
        if self.max_samples is not None and self.max_samples < 1:
            raise ValueError(f"max_samples must be ≥ 1, got {self.max_samples}")
        validate_backend(self.backend)


@dataclass(frozen=True)
class SessionOutcome:
    """The immutable record of one retired session.

    ``attempt_samples`` holds each attempt's *reconciled* ledger total, so
    ``samples_total == sum(attempt_samples)`` by construction and each entry
    passed the exact integer reconciliation before landing here.
    """

    request_id: str
    source_id: str
    state: str
    accept: Optional[bool]
    stage: Optional[str]
    reason: str
    attempts: int
    samples_total: int
    attempt_samples: tuple
    confidence: Optional[float]
    degraded_mode: Optional[str]
    admitted_round: int
    retired_round: int
    #: Wall-clock seconds from admission to retirement — observational only,
    #: excluded from the canonical report (it would break replay identity).
    wall_seconds: float = 0.0

    def canonical(self) -> dict:
        """The deterministic view used for byte-identical replay checks."""
        return {
            "request_id": self.request_id,
            "source_id": self.source_id,
            "state": self.state,
            "accept": self.accept,
            "stage": self.stage,
            "reason": self.reason,
            "attempts": self.attempts,
            "samples_total": self.samples_total,
            "attempt_samples": list(self.attempt_samples),
            "confidence": self.confidence,
            "degraded_mode": self.degraded_mode,
            "admitted_round": self.admitted_round,
            "retired_round": self.retired_round,
        }


class StreamSession:
    """One admitted stream working its way to a terminal state."""

    def __init__(
        self,
        index: int,
        request: StreamRequest,
        *,
        config: TesterConfig,
        budget_cap: Optional[int],
        clock: Callable[[], float],
        admitted_round: int,
    ) -> None:
        self.index = index
        self.request = request
        self.config = config
        self.budget_cap = budget_cap
        self.clock = clock
        self.state = SessionState.ACCEPTED
        self.attempt = 0
        self.admitted_round = admitted_round
        self.admitted_wall: float = 0.0
        self.not_before: float = 0.0  # virtual time gate for retry backoff
        self.attempt_samples: list[int] = []
        self.degraded_mode: Optional[str] = None
        self.projection_fault_pending = request.projection_fault
        self.tracer = RecordingTracer()
        self.pipeline: Optional[TesterPipeline] = None
        self._test_span = None
        # One deadline for the whole session, shared by every attempt's
        # DeadlineSource (never copied): a retry cannot reset the clock.
        self.deadline: Optional[Deadline] = (
            Deadline(float(request.deadline_ticks), clock=clock)
            if request.deadline_ticks is not None
            else None
        )

    # -- attempt lifecycle ---------------------------------------------------

    def start_attempt(self) -> TesterPipeline:
        """Open attempt ``self.attempt + 1`` with a fresh source + pipeline."""
        self.attempt += 1
        self.state = SessionState.SAMPLING
        req = self.request
        seq = np.random.SeedSequence(entropy=req.seed, spawn_key=(self.index, self.attempt))
        source: SampleSource = SampleSource(
            req.dist,
            rng=np.random.default_rng(seq),
            max_samples=req.max_samples if req.max_samples is not None else self.budget_cap,
        )
        if req.faults is not None and not req.faults.is_noop:
            fault_seq = np.random.SeedSequence(
                entropy=req.seed, spawn_key=(self.index, self.attempt, 1)
            )
            source = FaultInjectingSource(
                source, req.faults, fault_rng=np.random.default_rng(fault_seq)
            )
        if self.deadline is not None:
            source = DeadlineSource(source, self.deadline)
        self._test_span = self.tracer.span(
            "attempt",
            n=req.dist.n,
            k=req.k,
            eps=req.eps,
            attempt=self.attempt,
            backend=req.backend,
        )
        self._test_span.__enter__()
        self.pipeline = TesterPipeline(
            source,
            req.k,
            req.eps,
            config=self.config,
            backend=req.backend,
            trace=self.tracer,
        )
        return self.pipeline

    def close_attempt(self, reconciled_samples: int) -> None:
        """Record one finished (or aborted-and-reconciled) attempt.

        The request's declared ``projection`` fault fires here, once: the
        first closing attempt whose check stage ran (only the check sets
        ``pipeline.reference``) counts one ``serve.projection_fallbacks``
        and degrades the session (``projection-dense-fallback``).
        """
        if self.projection_fault_pending and self.pipeline.reference is not None:
            self.projection_fault_pending = False
            get_metrics().counter("serve.projection_fallbacks").inc()
            self.degrade("projection-dense-fallback")
        self.attempt_samples.append(int(reconciled_samples))
        if self._test_span is not None:
            self._test_span.set(samples=int(reconciled_samples))
            self._test_span.__exit__(None, None, None)
            self._test_span = None
        self.pipeline = None

    def abort_attempt(self) -> int:
        """Abandon the in-flight attempt; its ledger must still reconcile."""
        assert self.pipeline is not None
        reconciled = self.pipeline.abort()
        self.close_attempt(reconciled)
        return reconciled

    def degrade(self, mode: str) -> None:
        """Flag a degradation mode (the first one sticks)."""
        if self.degraded_mode is None:
            self.degraded_mode = mode

    @property
    def samples_total(self) -> int:
        return sum(self.attempt_samples)

    # -- retirement ----------------------------------------------------------

    def retire_verdict(self, verdict: Verdict, round_index: int, wall: float) -> SessionOutcome:
        state = SessionState.DEGRADED if self.degraded_mode else SessionState.VERDICT
        confidence = FULL_CONFIDENCE
        self.state = state
        return self._outcome(
            state=state,
            accept=verdict.accept,
            stage=verdict.stage,
            reason=verdict.reason,
            confidence=confidence,
            round_index=round_index,
            wall=wall,
        )

    def retire_degraded_partial(
        self, reason: str, round_index: int, wall: float
    ) -> SessionOutcome:
        """The partial-pipeline degradation: the learn/sieve/check prefix
        passed but the final χ² test could not complete (deadline or budget
        died mid-draw).  Accept on the prefix evidence with an explicit
        confidence downgrade instead of crashing the session."""
        self.degrade("partial-pipeline")
        self.state = SessionState.DEGRADED
        return self._outcome(
            state=SessionState.DEGRADED,
            accept=True,
            stage="check",
            reason=reason,
            confidence=PARTIAL_CONFIDENCE,
            round_index=round_index,
            wall=wall,
        )

    def retire_evicted(self, reason: str, round_index: int, wall: float) -> SessionOutcome:
        self.state = SessionState.EVICTED
        return self._outcome(
            state=SessionState.EVICTED,
            accept=None,
            stage=None,
            reason=reason,
            confidence=None,
            round_index=round_index,
            wall=wall,
        )

    def _outcome(
        self,
        *,
        state: str,
        accept: Optional[bool],
        stage: Optional[str],
        reason: str,
        confidence: Optional[float],
        round_index: int,
        wall: float,
    ) -> SessionOutcome:
        return SessionOutcome(
            request_id=self.request.request_id,
            source_id=self.request.source_id,
            state=state,
            accept=accept,
            stage=stage,
            reason=reason,
            attempts=self.attempt,
            samples_total=self.samples_total,
            attempt_samples=tuple(self.attempt_samples),
            confidence=confidence,
            degraded_mode=self.degraded_mode,
            admitted_round=self.admitted_round,
            retired_round=round_index,
            wall_seconds=wall,
        )
