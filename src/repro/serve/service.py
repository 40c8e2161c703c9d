"""The round-driven service loop: admission → attempts → batched verdicts.

:class:`TesterService` runs in *rounds*.  Each round it (1) advances the
virtual clock and the breakers' cooldowns, (2) refills and drains the
admission queue, (3) steps every eligible session through its attempt up
to the final χ² test, catching stream faults / timeouts / budget overruns
per session, and (4) computes all pending final tests in one vectorized
batch (:mod:`repro.serve.batch`) and retires the verdicts.  The loop ends
when nothing is queued or in flight — every submitted request has become a
VERDICT, a DEGRADED verdict, an EVICTED outcome, or a structured
:class:`~repro.serve.admission.Rejection`.  No session crashes the loop:
only programming errors propagate.

Degradation policy (in order of preference):

1. **retry** — transient stream faults (injected failures, corrupt
   batches) get a fresh attempt after a seeded, jittered backoff in
   virtual time, up to the retry policy's attempt limit;
2. **fallback** — a session carrying the chaos drill's declared
   ``projection`` fault runs its first check-stage projection on the
   dense engine and flags the verdict ``projection-dense-fallback``
   (:meth:`StreamSession.start_attempt
   <repro.serve.session.StreamSession.start_attempt>`); nothing else
   falls back — an exception from the projection is a bug and propagates;
3. **partial-pipeline** — a deadline or budget death *after* the check
   stage passed accepts on the prefix evidence with an explicit confidence
   downgrade (2/3 → 1/2);
4. **evict** — any other session failure (:data:`SESSION_FAILURES`)
   retires the session with a reason string.

Time is virtual (a step clock advanced one tick per round plus one per
deadline check), retry jitter is seeded per session, and attempt RNG
streams are spawned from the request seed — so a full run is byte-identical
across replays with the same inputs, which ``ServiceReport.canonical_json``
makes checkable with a string compare.
"""

from __future__ import annotations

import json
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.baselines.learn_offline import learn_offline_budget_practical
from repro.core.backends import backend_budget
from repro.core.config import TesterConfig
from repro.core.tester import TesterPipeline, Verdict
from repro.distributions.sampling import SampleBudgetExceeded
from repro.observability.metrics import get_metrics
from repro.observability.trace import TraceEvent
from repro.robustness.faults import CorruptSampleError, InjectedStreamFailure
from repro.robustness.resilience import RetryPolicy, TrialTimeout
from repro.serve.admission import AdmissionConfig, AdmissionController, Rejection
from repro.serve.batch import FinalBatchItem, compute_final_statistics
from repro.serve.breaker import CircuitBreaker
from repro.serve.session import SessionOutcome, SessionState, StreamRequest, StreamSession


#: Failures the service absorbs per session; anything else is a bug and
#: propagates (crashing loudly beats serving silently-wrong verdicts).
SESSION_FAILURES = (
    InjectedStreamFailure,
    CorruptSampleError,
    SampleBudgetExceeded,
    TrialTimeout,
)

#: Failures that count against the *source's* circuit breaker (stream
#: trouble).  Budget exhaustion is the session's own doing, not the
#: upstream's, so it never trips a breaker.
SOURCE_FAILURES = (InjectedStreamFailure, CorruptSampleError, TrialTimeout)


class StepClock:
    """Virtual time: each *reading* advances one tick.

    Deadlines constructed over this clock expire after a deterministic
    number of clock reads (≈ draw calls + rounds), so timeout behaviour
    replays identically — no wall-clock anywhere in the control flow.
    """

    def __init__(self) -> None:
        self._now = 0.0

    def __call__(self) -> float:
        self._now += 1.0
        return self._now

    def peek(self) -> float:
        """Read without advancing (for backoff gates and reporting)."""
        return self._now

    def advance(self, ticks: float) -> None:
        if ticks < 0:
            raise ValueError(f"cannot rewind the clock by {ticks}")
        self._now += ticks


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the always-on service."""

    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    tester: TesterConfig = field(default_factory=TesterConfig.practical)
    #: Per-session retry policy; ``jitter_seed`` is re-seeded per session
    #: (with the session index) so concurrent retries de-synchronise.
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=3,
            base_delay=2.0,
            multiplier=2.0,
            max_delay=32.0,
            jitter=0.5,
            retry_on=(InjectedStreamFailure, CorruptSampleError),
        )
    )
    breaker_failure_threshold: int = 3
    breaker_cooldown_rounds: int = 2
    #: Per-attempt sample caps are ``slack ×`` the Algorithm 1 budget
    #: (mirrors :func:`repro.core.budget.capped_source`).
    budget_slack: float = 1.5
    #: Worker processes for the batched final-test statistics (None=serial).
    workers: Optional[int] = None
    #: Hard stop for the round loop — a liveness backstop, not a tunable.
    max_rounds: int = 100_000


@dataclass(frozen=True)
class ServiceReport:
    """Everything one service run produced, in submission order: the
    outcomes and rejections of the requests submitted since the previous
    run.  ``rounds`` is the service's round counter at the end of the run
    (the index ``SessionOutcome.admitted_round`` is counted on)."""

    outcomes: tuple
    rejections: tuple
    rounds: int
    wall_seconds: float
    #: True when the run ended via a graceful drain (SIGTERM/SIGINT):
    #: in-flight sessions finished, queued requests were shed as rejections.
    drained: bool = False

    def counts(self) -> dict:
        tally = {state: 0 for state in SessionState.TERMINAL}
        for outcome in self.outcomes:
            tally[outcome.state] += 1
        tally["REJECTED"] = len(self.rejections)
        return tally

    def canonical_json(self) -> str:
        """Deterministic serialisation (no wall-clock): two same-seed runs
        must produce byte-identical strings — the replay contract."""
        payload = {
            "outcomes": [outcome.canonical() for outcome in self.outcomes],
            "rejections": [rejection.canonical() for rejection in self.rejections],
            "rounds": self.rounds,
            "drained": self.drained,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def request_units(
    request: StreamRequest, config: TesterConfig, slack: float
) -> int:
    """The admission cost of a request: its per-attempt hard sample cap.

    Priced by the request's backend — a cdkl22 request admits at its own
    (much smaller) worst case, escalation reserve included, so the same
    capacity serves proportionally more cdkl22 sessions.
    """
    if request.max_samples is not None:
        return int(request.max_samples)
    n, k = request.dist.n, request.k
    if k >= n:
        return 0
    b = config.partition_b(k, request.eps)
    if 2.0 * b + 2.0 >= n / 2.0:
        # Plug-in regime: the backend budget formulas do not apply; the
        # offline learner's Θ(n/ε²) budget does.
        return int(math.ceil(slack * learn_offline_budget_practical(n, request.eps)))
    return int(math.ceil(slack * backend_budget(request.backend, n, k, request.eps, config)))


class TesterService:
    """A long-lived multiplexer of test sessions over the batch-first core."""

    __test__ = False  # "Test"-prefixed product class; not a pytest suite

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.clock = StepClock()
        self.admission = AdmissionController(self.config.admission)
        self.breakers: dict[str, CircuitBreaker] = {}
        self.sessions: "OrderedDict[str, StreamSession]" = OrderedDict()
        self._requests: dict[str, StreamRequest] = {}
        self._submission_order: list[str] = []
        self._outcomes: dict[str, SessionOutcome] = {}
        self._rejections: list[Rejection] = []
        self._session_counter = 0
        self.rounds_run = 0
        self._draining = False
        #: Per-session trace events (request_id → tuple of ``TraceEvent``) of
        #: the latest :meth:`run`, captured at retirement for post-hoc audit
        #: (`repro serve --trace-dir`).  Each run starts a fresh dict, so a
        #: long-lived service holds one run's traces, never its history.
        self.session_traces: dict[str, tuple[TraceEvent, ...]] = {}

    # -- graceful drain -------------------------------------------------------

    def request_drain(self) -> None:
        """Ask the run loop to wind down (signal-handler safe: just a flag).

        From the next round on, no queued request is admitted — the queue
        is shed as structured rejections — while every in-flight session
        runs to its terminal outcome, so the final report still accounts
        for every submitted request and its ledger reconciles exactly.
        """
        self._draining = True

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (call from the main thread)."""
        import signal

        def _handler(signum: int, frame: object) -> None:
            self.request_drain()

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    # -- intake ---------------------------------------------------------------

    def submit(self, request: StreamRequest) -> Rejection | None:
        """Queue a request; returns the :class:`Rejection` when shed."""
        if request.request_id in self._requests:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        units = request_units(request, self.config.tester, self.config.budget_slack)
        rejection = self.admission.submit(request.request_id, units)
        if rejection is not None:
            self._rejections.append(rejection)
            self._submission_order.append(request.request_id)
            get_metrics().counter("serve.rejected").inc()
            return rejection
        self._requests[request.request_id] = request
        self._submission_order.append(request.request_id)
        return None

    # -- the round loop -------------------------------------------------------

    def run(self) -> ServiceReport:
        """Drive every submitted request to a terminal outcome.

        The report covers the requests submitted since the previous
        ``run()``; the service then releases their outcomes and rejections,
        so a long-lived service retains at most one run's state (plus that
        run's :attr:`session_traces`).
        """
        started = time.perf_counter()
        self.session_traces = {}
        while not self.admission.idle:
            self.rounds_run += 1
            if self.rounds_run > self.config.max_rounds:
                raise RuntimeError(
                    f"service made no terminal progress within "
                    f"{self.config.max_rounds} rounds — liveness bug"
                )
            self._round(self.rounds_run)
        outcomes = tuple(
            self._outcomes[rid]
            for rid in self._submission_order
            if rid in self._outcomes
        )
        report = ServiceReport(
            outcomes=outcomes,
            rejections=tuple(self._rejections),
            rounds=self.rounds_run,
            wall_seconds=time.perf_counter() - started,
            drained=self._draining,
        )
        self._submission_order = []
        self._outcomes = {}
        self._rejections = []
        metrics = get_metrics()
        for state, count in report.counts().items():
            metrics.gauge("serve.outcomes", state=state).set(count)
        return report

    def _round(self, round_index: int) -> None:
        self.clock.advance(1.0)  # a round is at least one virtual tick
        for breaker in self.breakers.values():
            breaker.tick()
        self.admission.refill()
        if self._draining:
            # Drain mode: shed the queue as structured rejections, admit
            # nothing new; the sessions already in flight run to retirement.
            for rejection in self.admission.shed_queued(
                "service draining (shutdown requested) — shed before admission"
            ):
                self._requests.pop(rejection.request_id, None)
                self._rejections.append(rejection)
                get_metrics().counter("serve.rejected").inc()
        else:
            for request_id in self.admission.admit_ready():
                self._open_session(request_id, round_index)
        get_metrics().gauge("serve.inflight_units").set(self.admission.inflight_units)

        batch_items: list[FinalBatchItem] = []
        batch_sessions: list[StreamSession] = []
        # Iterate over a snapshot: retirements mutate self.sessions.
        for session in list(self.sessions.values()):
            if self.clock.peek() < session.not_before:
                continue  # still backing off
            if session.deadline is not None and session.pipeline is None:
                # The session-scoped deadline keeps running through backoff
                # waits; don't start an attempt that is already dead.
                if session.deadline.expired:
                    self._retire(
                        session,
                        session.retire_evicted(
                            f"deadline of {session.request.deadline_ticks} ticks "
                            f"expired after {session.attempt} attempt(s)",
                            round_index,
                            self._wall(session),
                        ),
                    )
                    continue
            breaker = self._breaker(session.request.source_id)
            if not breaker.allow():
                continue  # source breaker open; wait for the re-probe window
            item = self._step_to_final(session, round_index)
            if item is not None:
                batch_items.append(item)
                batch_sessions.append(session)

        # Inner loop: a cdkl22 session whose stage-0 statistic is ambiguous
        # escalates (finish returns None) — it redraws fresh counts at the
        # larger batch size and joins the next inner batch, still within
        # this round.  pods16 sessions always retire on the first pass.
        while batch_items:
            statistics = compute_final_statistics(
                batch_items, workers=self.config.workers
            )
            next_items: list[FinalBatchItem] = []
            next_sessions: list[StreamSession] = []
            for session, z in zip(batch_sessions, statistics):
                verdict = session.pipeline.finish_final_test(z)
                if verdict is not None:
                    self._retire_with_verdict(session, verdict, round_index)
                    continue
                try:
                    item = self._final_item(session.pipeline)
                except SESSION_FAILURES as exc:
                    self._on_failure(session, exc, round_index)
                    continue
                next_items.append(item)
                next_sessions.append(session)
            batch_items, batch_sessions = next_items, next_sessions

    # -- session stepping -----------------------------------------------------

    def _open_session(self, request_id: str, round_index: int) -> None:
        request = self._requests.pop(request_id)
        index = self._session_counter
        self._session_counter += 1
        session = StreamSession(
            index,
            request,
            config=self.config.tester,
            budget_cap=request_units(
                request, self.config.tester, self.config.budget_slack
            )
            or None,
            clock=self.clock,
            admitted_round=round_index,
        )
        session.admitted_wall = time.perf_counter()
        self.sessions[request_id] = session
        get_metrics().counter("serve.admitted").inc()

    def _step_to_final(
        self, session: StreamSession, round_index: int
    ) -> FinalBatchItem | None:
        """Run one attempt up to the final test; absorb session failures.

        Returns the session's pending final-test item when it reached the
        χ² stage with its counts drawn; ``None`` when it retired, failed,
        or is waiting.
        """
        try:
            pipeline = session.start_attempt()
            verdict = pipeline.run_to_final()
            if verdict is not None:
                self._retire_with_verdict(session, verdict, round_index)
                return None
            return self._final_item(pipeline)
        except SESSION_FAILURES as exc:
            self._on_failure(session, exc, round_index)
            return None

    def _final_item(self, pipeline: TesterPipeline) -> FinalBatchItem:
        """Draw counts for the pipeline's *current* plan (stage 0 or an
        escalated stage 1) and package them for the batch executor."""
        plan = pipeline.final_plan
        counts = pipeline.draw_final_counts()
        return FinalBatchItem(
            counts=counts,
            m=plan.m,
            reference_pmf=plan.reference_pmf,
            mask=plan.mask,
            partition=pipeline.partition,
        )

    def _on_failure(
        self, session: StreamSession, exc: BaseException, round_index: int
    ) -> None:
        """Apply the degradation policy to one failed attempt."""
        prefix_passed = session.pipeline.final_in_flight
        session.abort_attempt()  # reconciles the partial ledger exactly
        metrics = get_metrics()
        metrics.counter("serve.failures", kind=type(exc).__name__).inc()
        breaker = self._breaker(session.request.source_id)
        if isinstance(exc, SOURCE_FAILURES):
            breaker.record_failure()
            if breaker.state == "OPEN":
                metrics.counter(
                    "serve.breaker_trips", source=session.request.source_id
                ).inc()

        if isinstance(exc, (TrialTimeout, SampleBudgetExceeded)):
            # Terminal resource exhaustion: retrying cannot help (the
            # deadline spans attempts; the budget is per-attempt worst-case).
            if prefix_passed:
                self._retire(
                    session,
                    session.retire_degraded_partial(
                        f"final χ² test died ({type(exc).__name__}: {exc}) after "
                        "the check stage passed — accepting on prefix evidence",
                        round_index,
                        self._wall(session),
                    ),
                )
            else:
                self._retire(
                    session,
                    session.retire_evicted(
                        f"{type(exc).__name__} during attempt {session.attempt}: {exc}",
                        round_index,
                        self._wall(session),
                    ),
                )
            return

        # Transient stream faults: retry with seeded jittered backoff.
        policy = replace(self.config.retry, jitter_seed=session.index)
        if session.attempt >= policy.max_attempts:
            self._retire(
                session,
                session.retire_evicted(
                    f"retries exhausted after {session.attempt} attempt(s); "
                    f"last failure: {type(exc).__name__}: {exc}",
                    round_index,
                    self._wall(session),
                ),
            )
            return
        pause = policy.delay(session.attempt)
        session.not_before = self.clock.peek() + pause
        session.state = SessionState.ACCEPTED
        metrics.counter("serve.retries").inc()

    # -- retirement -----------------------------------------------------------

    def _retire_with_verdict(
        self, session: StreamSession, verdict: Verdict, round_index: int
    ) -> None:
        session.close_attempt(verdict.samples_used)
        self._breaker(session.request.source_id).record_success()
        get_metrics().counter(
            "tester.verdicts", stage=verdict.stage, accept=verdict.accept
        ).inc()
        self._retire(
            session, session.retire_verdict(verdict, round_index, self._wall(session))
        )

    def _retire(self, session: StreamSession, outcome: SessionOutcome) -> None:
        assert outcome.state in SessionState.TERMINAL
        self._outcomes[outcome.request_id] = outcome
        self.session_traces[outcome.request_id] = tuple(session.tracer.events)
        self.admission.release(outcome.request_id)
        del self.sessions[outcome.request_id]
        get_metrics().counter("serve.retired", state=outcome.state).inc()

    def _wall(self, session: StreamSession) -> float:
        return time.perf_counter() - session.admitted_wall

    # -- per-source breakers -------------------------------------------------

    def _breaker(self, source_id: str) -> CircuitBreaker:
        breaker = self.breakers.get(source_id)
        if breaker is None:
            breaker = CircuitBreaker(
                self.config.breaker_failure_threshold,
                self.config.breaker_cooldown_rounds,
            )
            self.breakers[source_id] = breaker
        return breaker
