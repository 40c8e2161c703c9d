"""Repeated-trial measurement of tester behaviour.

The testing model's guarantees are probabilistic (success w.p. ≥ 2/3), so
every experiment reduces to estimating an acceptance probability over
independent trials — with fresh sample streams, and fresh instances when
the workload itself is randomised.  This module is that loop, with Wilson
confidence intervals and exact sample accounting.

Trials are independent, so the loop fans out over the
:mod:`repro.parallel` engine: per-trial ``SeedSequence.spawn`` sub-streams
are derived up front and outcomes are aggregated in trial order, making
parallel output bit-identical to serial output at any ``workers`` count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.sampling import PairedSampleSource, SampleSource
from repro.observability.metrics import get_metrics
from repro.observability.trace import NULL_TRACER, RecordingTracer, Tracer
from repro.parallel.engine import TrialOutcome, run_trials
from repro.robustness.resilience import (
    Deadline,
    DeadlineSource,
    TooManyTrialFailures,
    TrialFailure,
    TrialPolicy,
    run_with_retry,
)
from repro.util.rng import RandomState, child_rng, spawn_seed_sequences
from repro.util.stats import wilson_interval

#: A workload is either a fixed distribution or a per-trial factory.  A
#: factory may instead return a ``(p, q)`` *tuple* of distributions — a
#: two-sample (closeness) workload; such trials judge the tester on a
#: :class:`~repro.distributions.sampling.PairedSampleSource` built from the
#: pair, with the trial's budget cap enforced jointly across both streams.
Workload = Union[DiscreteDistribution, Callable[[np.random.Generator], DiscreteDistribution]]

#: A tester is any callable judging a sample source.  A tester that sets
#: ``supports_trace = True`` additionally accepts a ``trace=`` keyword and
#: will be handed each trial's recording tracer when tracing is on.
#: Testers for paired workloads receive the trial's
#: :class:`~repro.distributions.sampling.PairedSampleSource` instead.
Tester = Callable[[SampleSource], bool]


def _judge(tester: Tester, source: SampleSource, tracer: Tracer | None) -> bool:
    """Invoke a tester, passing the tracer only when it advertises support."""
    if tracer is not None and getattr(tester, "supports_trace", False):
        return bool(tester(source, trace=tracer))
    return bool(tester(source))

#: Per-trial source decorator: wraps the trial's fresh source (e.g. in a
#: :class:`~repro.robustness.faults.FaultInjectingSource`); the generator is
#: the trial's own stream, so wrappers stay reproducible per trial.
SourceWrapper = Callable[[SampleSource, np.random.Generator], SampleSource]


@dataclass(frozen=True)
class AcceptanceEstimate:
    """Estimated acceptance probability of a tester on a workload."""

    accepted: int
    trials: int
    rate: float
    ci_low: float
    ci_high: float
    mean_samples: float

    def __str__(self) -> str:
        return (
            f"{self.accepted}/{self.trials} accepted "
            f"(rate {self.rate:.2f}, 99% CI [{self.ci_low:.2f}, {self.ci_high:.2f}], "
            f"~{self.mean_samples:,.0f} samples/trial)"
        )


def _materialise(workload: Workload, gen: np.random.Generator) -> DiscreteDistribution:
    if isinstance(workload, DiscreteDistribution):
        return workload
    return workload(gen)


def _plain_source(
    dist, gen: np.random.Generator
) -> "SampleSource | PairedSampleSource":
    """The unguarded trial's source: single-stream, or a joint-budget pair."""
    if isinstance(dist, tuple):
        p, q = dist
        return PairedSampleSource(p, q, gen)
    return SampleSource(dist, gen)


def _guarded_source(
    dist,
    gen: np.random.Generator,
    max_samples: "float | None",
    wrap: "SourceWrapper | None",
    deadline: "Deadline | None",
) -> "SampleSource | PairedSampleSource":
    """The fault-isolated trial's source, with wrappers composed per stream.

    For a ``(p, q)`` pair each stream is wrapped independently (faults and
    deadlines hit the stream they were drawn through, exactly as for a
    single source) while the budget cap is enforced *jointly* by the pair —
    the cap bounds total draw volume, which is what the sample-complexity
    experiments measure.
    """

    def build(d) -> SampleSource:
        source = SampleSource(d, child_rng(gen))
        if wrap is not None:
            source = wrap(source, gen)
        if deadline is not None:
            source = DeadlineSource(source, deadline)
        return source

    if isinstance(dist, tuple):
        p, q = dist
        return PairedSampleSource(build(p), build(q), max_samples=max_samples)
    source: SampleSource = SampleSource(dist, gen, max_samples=max_samples)
    if wrap is not None:
        source = wrap(source, gen)
    if deadline is not None:
        source = DeadlineSource(source, deadline)
    return source


@dataclass(frozen=True)
class PlainTrial:
    """One unguarded trial: draw the instance, run the tester, report.

    A module-level class (not a closure) so the process backend can pickle
    it; exceptions propagate — the plain loop has no isolation semantics.
    """

    workload: Workload
    tester: Tester
    collect_trace: bool = False

    def __call__(self, index: int, seed: np.random.SeedSequence) -> TrialOutcome:
        gen = np.random.default_rng(seed)
        dist = _materialise(self.workload, gen)
        source = _plain_source(dist, gen)
        tracer = RecordingTracer() if self.collect_trace else None
        verdict = _judge(self.tester, source, tracer)
        return TrialOutcome(
            index=index,
            value=(verdict, source.samples_drawn),
            trace=tuple(tracer.export()) if tracer is not None else None,
        )


@dataclass(frozen=True)
class RobustTrial:
    """One fault-isolated trial: retries, deadline, structured failure.

    Runs entirely inside the worker (isolation must survive the process
    boundary): transient stream errors are retried on a fresh sub-stream of
    the trial's own seed, the wall-clock deadline and sample cap are
    enforced per attempt, and an isolatable error is *returned* as a
    :class:`~repro.robustness.resilience.TrialFailure` rather than raised —
    a worker never dies from an isolated failure.
    """

    workload: Workload
    tester: Tester
    policy: TrialPolicy
    wrap_source: SourceWrapper | None
    collect_trace: bool = False

    def __call__(self, index: int, seed: np.random.SeedSequence) -> TrialOutcome:
        trial_stream = np.random.default_rng(seed)
        policy = self.policy
        deadline = (
            Deadline(policy.trial_timeout) if policy.trial_timeout is not None else None
        )
        started = time.monotonic()
        last_attempt = [0]
        # One tracer per *attempt*, so a retried attempt's partial events
        # never contaminate the surviving attempt's trace.
        last_tracer: list[RecordingTracer | None] = [None]

        def attempt(attempt_number: int) -> tuple[bool, float]:
            last_attempt[0] = attempt_number
            gen = child_rng(trial_stream)
            dist = _materialise(self.workload, gen)
            source = _guarded_source(
                dist, gen, policy.max_samples, self.wrap_source, deadline
            )
            tracer = RecordingTracer() if self.collect_trace else None
            last_tracer[0] = tracer
            verdict = _judge(self.tester, source, tracer)
            return bool(verdict), source.samples_drawn

        try:
            (verdict, samples), _ = run_with_retry(attempt, policy.retry)
        except policy.isolate as exc:
            return TrialOutcome(
                index=index,
                failure=TrialFailure(
                    trial=index,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    attempts=last_attempt[0],
                    elapsed=time.monotonic() - started,
                ),
            )
        tracer = last_tracer[0]
        return TrialOutcome(
            index=index,
            value=(verdict, samples),
            trace=tuple(tracer.export()) if tracer is not None else None,
        )


def acceptance_probability(
    workload: Workload,
    tester: Tester,
    trials: int,
    rng: RandomState = None,
    *,
    workers: int | None = None,
    trace: Tracer = NULL_TRACER,
) -> AcceptanceEstimate:
    """Run ``trials`` independent tests and estimate the acceptance rate.

    Each trial gets an independent RNG stream (instance draw and sample
    stream both), so trials are exchangeable and the binomial analysis of
    the confidence interval is exact.

    ``workers`` fans the trials out over worker processes (see
    :func:`repro.parallel.engine.resolve_workers`); the estimate is
    bit-identical to the serial one at any worker count.  With an enabled
    ``trace``, each trial records its own sub-trace in the worker and the
    streams are absorbed here in trial order — so the assembled trace is
    byte-identical across worker counts too.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    seeds = spawn_seed_sequences(rng, trials)
    procedure = PlainTrial(workload, tester, collect_trace=trace.enabled)
    outcomes = run_trials(procedure, seeds, workers=workers)
    accepted = 0
    total_samples = 0.0
    for outcome in outcomes:  # trial order: float sums match serial exactly
        trace.absorb(outcome.trace, trial=outcome.index)
        verdict, samples = outcome.value
        if verdict:
            accepted += 1
        total_samples += samples
    rate = accepted / trials
    low, high = wilson_interval(accepted, trials)
    return AcceptanceEstimate(
        accepted=accepted,
        trials=trials,
        rate=rate,
        ci_low=low,
        ci_high=high,
        mean_samples=total_samples / trials,
    )


def rejection_probability(
    workload: Workload,
    tester: Tester,
    trials: int,
    rng: RandomState = None,
    *,
    workers: int | None = None,
    trace: Tracer = NULL_TRACER,
) -> AcceptanceEstimate:
    """Like :func:`acceptance_probability` but counting rejections."""
    estimate = acceptance_probability(
        workload, tester, trials, rng, workers=workers, trace=trace
    )
    low, high = wilson_interval(estimate.trials - estimate.accepted, estimate.trials)
    return AcceptanceEstimate(
        accepted=estimate.trials - estimate.accepted,
        trials=estimate.trials,
        rate=1.0 - estimate.rate,
        ci_low=low,
        ci_high=high,
        mean_samples=estimate.mean_samples,
    )


def success_probability(
    workload: Workload,
    tester: Tester,
    should_accept: bool,
    trials: int,
    rng: RandomState = None,
    *,
    policy: TrialPolicy | None = None,
    wrap_source: SourceWrapper | None = None,
    trace: Tracer = NULL_TRACER,
) -> AcceptanceEstimate:
    """Acceptance or rejection rate, whichever counts as success.

    With a ``policy`` (or ``wrap_source``), trials run through the
    fault-isolating :func:`robust_acceptance_probability` path instead of
    the bare loop.  Trials run in this process: sweeps, which call this,
    run in parallel across their points (a worker fleet) instead.
    """
    if policy is None and wrap_source is None:
        if should_accept:
            return acceptance_probability(workload, tester, trials, rng, trace=trace)
        return rejection_probability(workload, tester, trials, rng, trace=trace)
    estimate = robust_acceptance_probability(
        workload, tester, trials, rng, policy=policy, wrap_source=wrap_source,
        trace=trace,
    )
    if should_accept:
        return estimate
    low, high = wilson_interval(estimate.trials - estimate.accepted, estimate.trials)
    return RobustAcceptanceEstimate(
        accepted=estimate.trials - estimate.accepted,
        trials=estimate.trials,
        rate=1.0 - estimate.rate,
        ci_low=low,
        ci_high=high,
        mean_samples=estimate.mean_samples,
        failures=estimate.failures,
        attempted=estimate.attempted,
    )


@dataclass(frozen=True)
class RobustAcceptanceEstimate(AcceptanceEstimate):
    """An acceptance estimate whose loop survived isolated trial failures.

    ``trials`` counts only *completed* trials (the binomial analysis runs
    over them); ``attempted`` counts every trial started, and ``failures``
    holds one structured record per trial that was dropped after exhausting
    its retries.
    """

    failures: tuple[TrialFailure, ...] = ()
    attempted: int = 0

    @property
    def failure_rate(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0

    def __str__(self) -> str:
        base = super().__str__()
        if not self.failures:
            return base
        return f"{base} [{len(self.failures)}/{self.attempted} trials failed]"


def robust_acceptance_probability(
    workload: Workload,
    tester: Tester,
    trials: int,
    rng: RandomState = None,
    *,
    policy: TrialPolicy | None = None,
    wrap_source: SourceWrapper | None = None,
    workers: int | None = None,
    trace: Tracer = NULL_TRACER,
) -> RobustAcceptanceEstimate:
    """Like :func:`acceptance_probability`, with trial-level fault isolation.

    Each trial runs under ``policy``: transient stream errors are retried on
    a *fresh* sub-stream (deterministic faults would otherwise repeat
    forever), the per-trial wall-clock deadline and sample cap are enforced,
    and a trial that still fails is recorded as a
    :class:`~repro.robustness.resilience.TrialFailure` while the estimate
    proceeds over the surviving trials.  Only when the failure rate exceeds
    ``policy.max_failure_rate`` (or no trial completes) does the whole
    estimate fail, with
    :class:`~repro.robustness.resilience.TooManyTrialFailures`.

    ``wrap_source`` decorates each trial's source — the hook fault-injection
    experiments use to corrupt the stream the tester sees.

    With ``workers`` the trials fan out over worker processes; isolation
    extends across the process boundary — a worker that dies outright is
    recorded as a ``WorkerCrash`` :class:`TrialFailure` for the trial it was
    running (never a hung sweep), and every other trial's result is exactly
    what a serial run would have produced.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if policy is None:
        policy = TrialPolicy()
    seeds = spawn_seed_sequences(rng, trials)
    procedure = RobustTrial(
        workload, tester, policy, wrap_source, collect_trace=trace.enabled
    )
    outcomes = run_trials(procedure, seeds, workers=workers, isolate_crashes=True)

    accepted = 0
    total_samples = 0.0
    failures: list[TrialFailure] = []
    for outcome in outcomes:  # trial order: aggregation matches serial exactly
        if outcome.failure is not None:
            failures.append(outcome.failure)
            get_metrics().counter(
                "runner.trial_failures", error=outcome.failure.error_type
            ).inc()
            trace.event(
                "trial_failure",
                trial=outcome.index,
                error=outcome.failure.error_type,
                attempts=outcome.failure.attempts,
            )
            continue
        trace.absorb(outcome.trace, trial=outcome.index)
        verdict, samples = outcome.value
        if verdict:
            accepted += 1
        total_samples += samples

    completed = trials - len(failures)
    if completed == 0 or len(failures) / trials > policy.max_failure_rate:
        raise TooManyTrialFailures(tuple(failures), trials, policy.max_failure_rate)
    rate = accepted / completed
    low, high = wilson_interval(accepted, completed)
    return RobustAcceptanceEstimate(
        accepted=accepted,
        trials=completed,
        rate=rate,
        ci_low=low,
        ci_high=high,
        mean_samples=total_samples / completed,
        failures=tuple(failures),
        attempted=trials,
    )
