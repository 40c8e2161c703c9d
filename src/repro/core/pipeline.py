"""The stepped pipeline driver shared by every tester in the repo.

Algorithm 1 is one stage sequence — partition → learn → sieve → check →
final χ² — reused by DKN17 closeness (:mod:`repro.core.closeness`) and the
CDKL22 backend (:mod:`repro.core.backends.cdkl22`).  :class:`SteppedPipeline`
owns the stage order (written once, in :meth:`~SteppedPipeline.run_to_final`),
the ledger, the final-test bookkeeping, the verdict exit and the root span;
a task subclass supplies only its stage bodies.  Every step is called as
``self.<step>()`` at call time, so wrapping a step on a subclass (as the
repo benchmark does to time each layer) sees every call from every driver.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.chi2 import Chi2Result
from repro.core.config import TesterConfig, check_k_eps
from repro.core.partition import approx_partition
from repro.observability.ledger import SampleLedger
from repro.observability.metrics import get_metrics
from repro.observability.trace import Tracer
from repro.util.intervals import Partition


class _StageHandle:
    """An open stage: pairs the trace span with the draw/clock marks."""

    __slots__ = ("name", "cm", "span", "mark", "tick")

    def __init__(self, name: str, cm, span, mark: int, tick: float) -> None:
        self.name = name
        self.cm = cm
        self.span = span
        self.mark = mark
        self.tick = tick


class _StageLog:
    """Per-stage accounting shared by the verdict, the trace and the ledger.

    One stage (opened with :meth:`begin`/:meth:`end`, or the :meth:`stage`
    context manager wrapping them) records the integer draw count and
    wall-clock duration into the verdict's dicts, enters the draws into the
    sample ledger, and closes a trace span carrying the same numbers — a
    single source of truth for all three views.  The explicit begin/end
    form exists for the stepped pipeline, where a stage stays open across
    several calls (the batched final test).
    """

    def __init__(self, source, trace: Tracer, ledger: SampleLedger) -> None:
        self._source = source
        self._trace = trace
        self._ledger = ledger
        self.stage_samples: dict[str, int] = {}
        self.stage_timings: dict[str, float] = {}

    def begin(self, name: str, **attrs: object) -> _StageHandle:
        mark = self._source.samples_drawn
        tick = time.perf_counter()
        cm = self._trace.span(name, **attrs)
        span = cm.__enter__()
        return _StageHandle(name, cm, span, mark, tick)

    def end(self, handle: _StageHandle) -> None:
        try:
            drew = self._source.samples_drawn - handle.mark
            handle.span.set(samples=drew)
            self.stage_samples[handle.name] = drew
            self.stage_timings[handle.name] = time.perf_counter() - handle.tick
            self._ledger.record(handle.name, drew)
        finally:
            handle.cm.__exit__(None, None, None)

    @contextmanager
    def stage(self, name: str, **attrs: object) -> Iterator[object]:
        handle = self.begin(name, **attrs)
        try:
            yield handle.span
        finally:
            self.end(handle)


def _finish(trace: Tracer, ledger: SampleLedger, samples_used: int) -> int:
    """Reconcile the ledger against the source's counter and emit the audit
    event.  Raises ``LedgerError`` on any leak/double-count/cap overrun."""
    total = ledger.reconcile(samples_used)
    trace.event("ledger", **ledger.as_attrs())
    return total


@dataclass(frozen=True)
class FinalTestPlan:
    """Everything a batched executor needs for one session's final test.

    ``reference_pmf`` is the identity χ² reference (closeness compares the
    two streams; its ``mask`` is over the partition's intervals).  ``stage``
    carries the cdkl22 adaptive schedule: escalation replaces the *current*
    plan (:attr:`SteppedPipeline.final_plan`) with a stage-1 copy at the
    larger ``m`` — a batch executor must re-read it before re-drawing.
    """

    m: float
    repeats: int
    eps_final: float
    mask: np.ndarray
    reference_pmf: np.ndarray | None = None
    stage: int = 0


class SteppedPipeline:
    """Stepped (batch-first) execution of the shared stage sequence.

    Stepping protocol — each boundary is a point where a multiplexing
    service may interleave other sessions::

        verdict = pipeline.run_to_final()   # prepare → … → begin_final_test
        while verdict is None:              # a backend may escalate once
            counts = pipeline.draw_final_counts()
            z = <per-interval statistics of counts under pipeline.final_plan>
            verdict = pipeline.finish_final_test(z)

    The statistics step takes *pre-drawn* counts, so a batch executor can
    stack many sessions' count matrices and compute their statistics in
    one vectorized call — bit-identical to the serial path, because the
    arithmetic is elementwise.

    Every verdict path reconciles the ledger exactly.  A caller that
    abandons a pipeline mid-flight (stream failure, timeout, budget
    overrun) must call :meth:`abort` so the partial draws of any open stage
    land in the ledger and the reconciliation still balances.

    A task subclass implements ``budget_cap()``, ``draw_final_counts()``
    and these hooks:

    * ``_trivial_reason()`` — why every input is accepted sample-free, or
      ``None``; ``_prepare_degenerate(b)`` — the ``2b + 2 ≥ n/2`` regime,
      returning a verdict or ``None`` (then opening the ledger itself);
    * ``_partition_source()``, ``_learn()``, ``_sieve()`` and
      ``_check(span)`` — stage bodies; the last two return a rejection
      reason or ``None``;
    * ``_final_test_plan()``, ``_final_statistics(counts)`` and
      ``_decide(z, plan)`` — ``(statistic, threshold, span attrs, reason
      prefix)``, or ``None`` after escalating :attr:`final_plan`;
    * ``_verdict(**fields)`` and ``_root_attrs()`` — the verdict type and
      the root span's task attributes.
    """

    __test__ = False  # "Test"-infixed product classes; not pytest suites

    #: Root span of the single-call API and the counter its verdicts bump.
    root_span = ""
    verdict_counter = ""

    def __init__(
        self,
        draws,
        k: int,
        eps: float,
        *,
        config: TesterConfig | None,
        trace: Tracer,
    ) -> None:
        check_k_eps(k, eps)
        self.k = k
        self.eps = eps
        self.config = config if config is not None else TesterConfig.practical()
        self.trace = trace
        #: The counter every stage is charged against (one source, or the
        #: joint counter of a stream pair).
        self._draws = draws
        self.n = draws.n
        self.start = draws.samples_drawn
        self.partition: Partition | None = None
        #: Partition parameter; ``None`` until :meth:`prepare` picks the
        #: main regime — the reduction stages are skipped without it.
        self._b: float | None = None
        self._ledger: SampleLedger | None = None
        self._log: _StageLog | None = None
        self._final: _StageHandle | None = None
        self._plan: FinalTestPlan | None = None

    # -- stepped stages -------------------------------------------------------

    def prepare(self):
        """Dispatch the degenerate regimes; set up the ledger otherwise.

        Returns a short-circuit verdict for the trivial regime (and the
        task's degenerate regime, when it decides there), ``None`` when the
        stages should run.
        """
        reason = self._trivial_reason()
        if reason is not None:
            self._open_ledger(None)
            return self._exit(accept=True, stage="trivial", reason=reason)
        b = self.config.partition_b(self.k, self.eps)
        if 2.0 * b + 2.0 >= self.n / 2.0:
            return self._prepare_degenerate(b)
        self._b = b
        self._open_ledger(self.budget_cap())
        return None

    def run_partition(self) -> None:
        """Stage 1: ``APPROXPART`` with ``b = Θ(k log k / ε)`` [line 3]."""
        if self._b is None:
            return
        with self._log.stage("partition", b=int(self._b)) as span:
            self.partition = approx_partition(
                self._partition_source(),
                self._b,
                self.config.partition_samples(self.k, self.eps),
            )
            span.set(intervals=len(self.partition))

    def run_learn(self) -> None:
        """Stage 2: the Lemma 3.5 χ² learner on the partition [line 4]."""
        if self._b is None:
            return
        with self._log.stage("learn"):
            self._learn()

    def run_sieve(self):
        """Stage 3: sieve [lines 6–8]; returns a rejecting verdict or None."""
        if self._b is None:
            return None
        return self._reject("sieve", self._sieve())

    def run_check(self):
        """Stage 4: the sample-free check gate [line 10]; returns a
        rejecting verdict or None.  Logged like every other stage so the
        per-stage views cover all executed work on all exit paths."""
        if self._b is None:
            return None
        with self._log.stage("check") as span:
            reason = self._check(span)
        return self._reject("check", reason)

    # -- stage 5: final test [line 13], stepped ------------------------------

    def begin_final_test(self) -> FinalTestPlan:
        """Fix the final test's plan and open the chi2 stage."""
        self._plan = self._final_test_plan()
        self._final = self._log.begin("chi2")
        return self._plan

    def finish_final_test(self, z_per_interval: np.ndarray):
        """Threshold the (externally computed) statistics into a verdict.

        Returns ``None`` only when the backend escalates: :attr:`final_plan`
        is replaced with a larger-``m`` copy and the caller must draw fresh
        counts, recompute statistics, and call again (the chi2 stage stays
        open, so ledger accounting spans every batch).
        """
        z_per_interval = np.asarray(z_per_interval, dtype=np.float64)
        plan, handle = self._plan, self._final
        decision = self._decide(z_per_interval, plan)
        if decision is None:
            return None
        statistic, threshold, attrs, prefix = decision
        chi2 = Chi2Result(
            accept=statistic <= threshold,
            statistic=statistic,
            threshold=threshold,
            m=plan.m,
            interval_statistics=z_per_interval,
            samples_used=self._draws.samples_drawn - handle.mark,
        )
        handle.span.set(
            statistic=chi2.statistic, threshold=chi2.threshold, accept=chi2.accept, **attrs
        )
        self._final = None
        self._log.end(handle)
        reason = f"{prefix} {'<=' if chi2.accept else '>'} threshold {chi2.threshold:.4g}"
        return self._exit(accept=chi2.accept, stage="chi2", reason=reason, chi2=chi2)

    @property
    def final_plan(self) -> FinalTestPlan | None:
        """The *current* final-test plan — re-read after every
        ``finish_final_test`` returning ``None``, since escalation replaces
        it with a larger-``m`` copy."""
        return self._plan

    @property
    def final_in_flight(self) -> bool:
        """True between ``begin_final_test`` and its finish/close — i.e. the
        learn/sieve/check prefix already passed (degradation policy hook)."""
        return self._final is not None

    def close_final_test(self) -> None:
        """Close an open chi2 stage without a verdict (failure path): the
        partial draws are recorded so the ledger can still reconcile."""
        if self._final is not None:
            handle, self._final = self._final, None
            self._log.end(handle)

    def abort(self) -> int:
        """Abandon the pipeline mid-flight and reconcile what was drawn.

        Closes any open final-test stage, then demands the usual exact
        integer reconciliation over every stage the attempt executed
        (partial draws included — stages record in ``finally``).  Returns
        the attempt's reconciled sample total.
        """
        self.close_final_test()
        samples = self._draws.samples_drawn - self.start
        if self._ledger is None:
            return samples  # failed before prepare(): nothing was drawn
        return _finish(self.trace, self._ledger, samples)

    # -- drivers --------------------------------------------------------------

    def run_to_final(self):
        """Run every stage up to the final test's draw, in order.

        Returns the verdict of an early exit, or ``None`` with the chi2
        stage open and :attr:`final_plan` set.
        """
        verdict = self.prepare()
        if verdict is None:
            self.run_partition()
            self.run_learn()
            verdict = self.run_sieve()
        if verdict is None:
            verdict = self.run_check()
        if verdict is None:
            self.begin_final_test()
        return verdict

    def run(self):
        """Run every stage in order (the single-session driver)."""
        verdict = self.run_to_final()
        while verdict is None:
            try:
                z = self._final_statistics(self.draw_final_counts())
            except BaseException:
                self.close_final_test()
                raise
            verdict = self.finish_final_test(z)
        return verdict

    def run_traced(self):
        """:meth:`run` under the task's root span, then count the verdict
        (the single-call API)."""
        with self.trace.span(
            self.root_span, n=self.n, k=self.k, eps=self.eps, **self._root_attrs()
        ) as run_span:
            verdict = self.run()
            run_span.set(
                accept=verdict.accept,
                stage=verdict.stage,
                samples_used=verdict.samples_used,
            )
        get_metrics().counter(
            self.verdict_counter, stage=verdict.stage, accept=verdict.accept
        ).inc()
        return verdict

    # -- internals ------------------------------------------------------------

    def _open_ledger(self, budget_cap: int | None) -> None:
        self._ledger = SampleLedger(budget_cap=budget_cap)
        self._log = _StageLog(self._draws, self.trace, self._ledger)

    def _reject(self, stage: str, reason: str | None):
        """A rejecting verdict at ``stage`` — or ``None`` when no reason."""
        if reason is None:
            return None
        return self._exit(accept=False, stage=stage, reason=reason)

    def _exit(self, accept: bool, stage: str, reason: str, chi2: Chi2Result | None = None):
        samples_used = _finish(
            self.trace, self._ledger, self._draws.samples_drawn - self.start
        )
        return self._verdict(
            accept=accept,
            stage=stage,
            reason=reason,
            samples_used=samples_used,
            k=self.k,
            eps=self.eps,
            partition=self.partition,
            chi2=chi2,
            stage_samples=dict(self._log.stage_samples),
            stage_timings=dict(self._log.stage_timings),
        )
