"""The cdkl22 backend: near-optimal histogram testing by learning.

The corrigendum's sieving gap is what the follow-up line of work (CDKL22,
"Near-Optimal Bounds for Testing Histogram Distributions",
arXiv:2207.06596) removes wholesale: instead of sieving out the breakpoint
intervals with ``Θ(log k)`` batches of ``Θ(√n/α²)`` samples each, reduce
testing to learning.  This implementation reuses the existing substrate —
``APPROXPART``, the Lemma 3.5 χ² learner, the ``H_k`` projection DP, the
[ADK15] χ² kernel — and differs from Algorithm 1 in four places:

1. **No sieve.**  Every partition interval is kept.
2. **Project, don't check.**  The check stage computes the actual
   projection ``D* = argmin_{H ∈ H_k} dTV(D̂, H)`` (breakpoints on
   partition borders) rather than a yes/no oracle, rejecting sample-free
   when ``D̂`` is farther than the generous gate tolerance.  Because the
   final test then runs against ``D* ∈ H_k`` — not against ``D̂``, which
   may be outside ``H_k`` — soundness keeps (almost) the full ``ε``:
   ``dTV(D, H_k) ≥ ε`` implies ``dTV(D, D*) ≥ ε``.
3. **Trimmed statistic.**  The per-interval χ² statistics drop the top
   ``trim_count = ceil(trim_factor·(k−1))`` values among intervals whose
   reference mass is ≤ ``trim_mass_factor/b`` — in the completeness case
   exactly the ≤ ``k−1`` breakpoint intervals whose learner error the
   pods16 sieve exists to remove, here removed at zero sample cost.  Mass
   eligibility keeps the trim sound: at most ``trim_count·factor/b`` of TV
   evidence can be discarded, and ``ε'`` is reduced by exactly that share
   (:meth:`~repro.core.config.TesterConfig.cdkl22_final_eps`).
4. **Adaptive schedule.**  The χ² statistic has std ≈ ``√(2·|A_ε|)`` near
   both decision boundaries while the threshold sits at
   ``(chi2_sample_factor/8)·√n`` — a few σ away.  Clear instances are
   decided on the stage-0 batch; a statistic inside the
   ``±guard_sigmas·σ`` band triggers one escalation with *fresh* draws at
   ``escalation_factor × m``, where the band is relatively three times
   narrower.  Typical cost is one batch; the worst case (priced into the
   budget and the ledger cap) is ``(1 + escalation_factor) × m``.

The budget consequence: pods16 spends ``Θ(log k · √n/α²)`` on the sieve
(with ``α = ε/20`` this dwarfs everything else), while cdkl22's only
``√n`` term is the single final test at a *larger* ``ε'`` — and its
learner, the n-independent term, runs at the coarser accuracy the
reduction needs.  At the E-series anchor (n=4096, k=5, ε=0.3, practical
profile) the worst-case ratio is ≈ 50×; see EXPERIMENTS.md § E25 for
measured numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.core.budget import check_instance
from repro.core.chi2 import active_mask
from repro.core.config import TesterConfig
from repro.observability.metrics import get_metrics
from repro.util.intervals import Partition


@dataclass(frozen=True)
class TrimmedStatistic:
    """The trimmed final statistic and its audit trail."""

    statistic: float  # kept sum (the value thresholded)
    raw_statistic: float  # untrimmed sum of per-interval statistics
    trimmed_indices: np.ndarray  # partition intervals dropped, ascending
    trimmed_sum: float  # total statistic mass dropped


def cdkl22_budget(
    n: int, k: int, eps: float, config: TesterConfig | None = None
) -> float:
    """Exact worst-case sample usage of the cdkl22 backend.

    Partition and learner as in Algorithm 1 (the learner at the coarser
    cdkl22 accuracy, with the same greedy ``4b+2`` interval bound), no
    sieve, and the final test priced at its escalated worst case
    ``repeats · (m + ceil(escalation_factor·m))``.  The tester can use
    less — most runs decide at stage 0 — never more.
    """
    check_instance(n, k, eps)
    if config is None:
        config = TesterConfig.practical()
    if k >= n:
        return 0.0
    partition = config.partition_samples(k, eps)
    b = config.partition_b(k, eps)
    worst_intervals = int(4 * b + 2)  # greedy APPROXPART bound (see E12)
    learner = config.cdkl22_learner_samples(worst_intervals, eps)
    repeats = config.chi2_repeat_count(k)
    m = config.chi2_samples(n, config.cdkl22_final_eps(k, eps))
    final = repeats * (m + config.cdkl22_escalated_m(m))
    return float(partition + learner + final)


def trimmed_statistic(
    z_per_interval: np.ndarray,
    partition: Partition,
    reference_pmf: np.ndarray,
    config: TesterConfig,
    k: int,
    eps: float,
) -> TrimmedStatistic:
    """Drop the largest trim-eligible per-interval statistics (see module
    docstring, point 3).  Deterministic: ties broken by interval index."""
    z = np.asarray(z_per_interval, dtype=np.float64)
    raw = float(z.sum())
    masses = partition.aggregate(np.asarray(reference_pmf, dtype=np.float64))
    cap = config.cdkl22_trim_mass_cap(k, eps)
    trim_count = config.cdkl22_trim_count(k)
    eligible = np.flatnonzero((masses <= cap) & (z > 0.0))
    if trim_count == 0 or eligible.size == 0:
        return TrimmedStatistic(raw, raw, np.empty(0, dtype=np.int64), 0.0)
    take = min(trim_count, int(eligible.size))
    # Stable sort on the statistic: equal values drop the lower interval
    # index first, so the trim is a pure function of (z, masses).
    order = eligible[np.argsort(z[eligible], kind="stable")]
    dropped = np.sort(order[-take:]).astype(np.int64)
    trimmed_sum = float(z[dropped].sum())
    return TrimmedStatistic(raw - trimmed_sum, raw, dropped, trimmed_sum)


def guard_width(config: TesterConfig, mask: np.ndarray) -> float:
    """Half-width of the escalation band: ``guard_sigmas · √(2·|A_ε|)``.

    ``√(2·|A_ε|)`` is the near-null standard deviation of the summed
    [ADK15] point terms (each active point contributes ≈ unit-2 variance);
    the band is a schedule heuristic, never a correctness threshold — the
    accept decision itself always compares against the plain threshold.
    """
    active = int(np.asarray(mask, dtype=bool).sum())
    return config.cdkl22_guard_sigmas * math.sqrt(2.0 * max(1, active))


class Cdkl22:
    """Testing by learning (see :mod:`repro.core.backends` for the surface)."""

    name = "cdkl22"
    budget = staticmethod(cdkl22_budget)
    #: No sieve stage at all (no span, no ledger entry, zero samples):
    #: breakpoint-interval contamination is removed by the trimmed final
    #: statistic instead.
    skip_sieve = "cdkl22: sieve replaced by the trimmed final statistic"

    #: The coarser ``ε/16`` learner: projecting onto ``H_k`` needs far less
    #: precision than per-interval sieving.
    learner_samples = staticmethod(TesterConfig.cdkl22_learner_samples)

    @staticmethod
    def check(pipeline, span) -> str | None:
        """The testing-by-learning gate: project ``D̂`` onto ``H_k``, reject
        sample-free when it is far, otherwise keep ``D*`` as the final
        test's reference."""
        tolerance = pipeline.config.cdkl22_check_tolerance(pipeline.eps)
        projection = pipeline.project_oracle(
            pipeline.learned.to_pmf(),
            pipeline.partition,
            pipeline.k,
            pipeline.sieve.kept,
            engine=pipeline.engine,
        )
        pipeline.reference = projection.histogram
        close = projection.distance <= tolerance
        span.set(close=bool(close), distance=float(projection.distance))
        if close:
            return None
        return (
            f"testing-by-learning gate: learned distribution is "
            f"{projection.distance:.4g} from H_k on the partition "
            f"borders (> {tolerance:.4g})"
        )

    @staticmethod
    def plan_final_test(pipeline) -> tuple[float, np.ndarray, np.ndarray]:
        """``(ε', reference pmf, active mask)``: ``D*`` over the whole
        domain at the larger effective ``ε'``."""
        eps_final = pipeline.config.cdkl22_final_eps(pipeline.k, pipeline.eps)
        ref = pipeline.reference.to_pmf()
        return eps_final, ref, active_mask(ref, eps_final, pipeline.config.chi2_truncation, None)

    @staticmethod
    def statistic(pipeline, z: np.ndarray, plan) -> tuple[float, dict, str]:
        """``(statistic, span attrs, reason prefix)``: the trimmed sum."""
        trimmed = trimmed_statistic(
            z, pipeline.partition, plan.reference_pmf, pipeline.config, pipeline.k, pipeline.eps
        )
        dropped = trimmed.trimmed_indices.size
        escalated = ", after escalation" if plan.stage else ""
        return (
            trimmed.statistic,
            {"trimmed": int(dropped), "stage": plan.stage},
            f"cdkl22 trimmed χ² statistic {trimmed.statistic:.4g} "
            f"({dropped} intervals trimmed{escalated})",
        )

    @staticmethod
    def escalate(pipeline, plan, statistic: float, threshold: float):
        """The stage-1 plan at ``escalation_factor × m`` when the stage-0
        statistic falls inside the guard band, else ``None``."""
        if plan.stage:
            return None
        guard = guard_width(pipeline.config, plan.mask)
        if not threshold - guard < statistic < threshold + guard:
            return None
        escalated = replace(plan, m=float(pipeline.config.cdkl22_escalated_m(plan.m)), stage=1)
        pipeline.trace.event(
            "chi2_escalate",
            statistic=statistic,
            threshold=threshold,
            guard=guard,
            m_next=escalated.m,
        )
        get_metrics().counter("tester.chi2_escalations").inc()
        return escalated
