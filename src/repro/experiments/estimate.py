"""Empirical sample complexity by bisection.

Experiments E4–E6 chart how many samples the testers *actually need* as
``n``, ``k``, ``ε`` vary.  "Need" is operationalised the standard way: the
smallest budget at which the tester succeeds on both a completeness and a
soundness workload with rate ≥ 2/3 (estimated over independent trials).

The budget knob is a multiplicative scale on every stage's sample size
(``TesterConfig.budget_scale`` for Algorithm 1, ``num_samples`` for the
single-batch baselines); the search bisects it on a log scale and reports
the *measured* samples drawn at the frontier, not the knob value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.experiments.runner import SourceWrapper, Tester, Workload, success_probability
from repro.observability.trace import NULL_TRACER, Tracer
from repro.robustness.resilience import TrialPolicy
from repro.util.rng import RandomState, ensure_rng, spawn_rngs

#: ``make_tester(scale) -> tester`` — a tester family indexed by budget.
TesterFamily = Callable[[float], Tester]


@dataclass(frozen=True)
class ComplexityEstimate:
    """Result of the bisection search."""

    samples: float  # measured samples/trial at the accepted frontier
    scale: float  # the budget-knob value at the frontier
    scale_low: float  # largest scale that failed
    evaluations: int
    target_rate: float


def _succeeds(
    family: TesterFamily,
    scale: float,
    complete: Workload,
    far: Workload,
    trials: int,
    target_rate: float,
    rng: RandomState,
    policy: TrialPolicy | None = None,
    wrap_source: SourceWrapper | None = None,
    trace: Tracer = NULL_TRACER,
) -> tuple[bool, float]:
    """Does the tester at this budget clear the bar on both sides?

    Returns (success, mean samples per trial across both workloads).
    """
    rng_a, rng_b = spawn_rngs(rng, 2)
    tester = family(scale)
    with trace.span("evaluation", scale=scale) as span:
        comp = success_probability(
            complete, tester, True, trials, rng_a, policy=policy,
            wrap_source=wrap_source, trace=trace,
        )
        if comp.rate < target_rate:
            span.set(success=False)
            return False, comp.mean_samples
        sound = success_probability(
            far, tester, False, trials, rng_b, policy=policy,
            wrap_source=wrap_source, trace=trace,
        )
        mean = 0.5 * (comp.mean_samples + sound.mean_samples)
        success = sound.rate >= target_rate
        span.set(success=success)
        return success, mean


def empirical_sample_complexity(
    family: TesterFamily,
    complete: Workload,
    far: Workload,
    *,
    trials: int = 24,
    target_rate: float = 2.0 / 3.0,
    scale_lo: float = 1e-3,
    scale_hi: float = 4.0,
    bisection_steps: int = 7,
    rng: RandomState = None,
    policy: TrialPolicy | None = None,
    wrap_source: SourceWrapper | None = None,
    trace: Tracer = NULL_TRACER,
) -> ComplexityEstimate:
    """Bisect the budget scale for the smallest 2/3-successful budget.

    ``scale_hi`` must succeed (it is verified first and doubled up to 3
    times otherwise); ``scale_lo`` is assumed to fail (verified as well —
    if it succeeds, it is returned directly as an upper bound).

    ``policy`` / ``wrap_source`` opt the trial loops into the fault-tolerant
    runner path (see :func:`repro.experiments.runner.success_probability`).
    The bisection is inherently sequential (each step depends on the last
    verdict) and runs its trials in this process.
    """
    if not 0.5 < target_rate <= 1.0:
        raise ValueError(f"target rate must be in (0.5, 1], got {target_rate}")
    if scale_lo <= 0 or scale_hi <= scale_lo:
        raise ValueError("need 0 < scale_lo < scale_hi")
    gen = ensure_rng(rng)
    evaluations = 0

    ok_lo, samples_lo = _succeeds(
        family, scale_lo, complete, far, trials, target_rate, gen, policy,
        wrap_source, trace,
    )
    evaluations += 1
    if ok_lo:
        return ComplexityEstimate(samples_lo, scale_lo, 0.0, evaluations, target_rate)

    hi = scale_hi
    ok_hi, samples_hi = _succeeds(
        family, hi, complete, far, trials, target_rate, gen, policy,
        wrap_source, trace,
    )
    evaluations += 1
    doublings = 0
    while not ok_hi and doublings < 3:
        hi *= 4.0
        ok_hi, samples_hi = _succeeds(
            family, hi, complete, far, trials, target_rate, gen, policy,
            wrap_source, trace,
        )
        evaluations += 1
        doublings += 1
    if not ok_hi:
        raise RuntimeError(
            f"tester failed even at budget scale {hi}: widen scale_hi or fix the tester"
        )

    lo = scale_lo
    best_scale, best_samples = hi, samples_hi
    for _ in range(bisection_steps):
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        ok, samples = _succeeds(
            family, mid, complete, far, trials, target_rate, gen, policy,
            wrap_source, trace,
        )
        evaluations += 1
        if ok:
            hi, best_scale, best_samples = mid, mid, samples
        else:
            lo = mid
    return ComplexityEstimate(
        samples=best_samples,
        scale=best_scale,
        scale_low=lo,
        evaluations=evaluations,
        target_rate=target_rate,
    )
