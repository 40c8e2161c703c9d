"""The sieving stage of Algorithm 1 (Section 3.2.1).

After learning ``D̂`` on the ``APPROXPART`` partition, the tester must
discard the ``O(k log k)`` intervals on which the learner may be arbitrarily
wrong — in the completeness case, exactly the (unknown) breakpoint
intervals.  The paper does this with per-interval χ² statistics ``Z_j`` in
two phases:

* **Phase A (heavy removal)** — one batch of statistics; every non-singleton
  interval with ``Z_j`` above ``heavy_factor · m·α²`` is removed at once.
  If more than ``k`` intervals qualify, reject (a k-histogram has at most
  ``k − 1`` breakpoint intervals).
* **Phase B (iterative removal)** — up to ``O(log k)`` rounds.  Each round
  computes the statistics of the remaining intervals; if their sum is below
  ``accept_factor · m·α²`` the sieve is done; otherwise the largest
  non-singleton statistics are removed (at most ``k'`` per round) until the
  kept sum would be at most ``residual_factor · m·α²``; if even removing
  ``k'`` cannot achieve that, reject.

Only **non-singleton** intervals are ever removed: a breakpoint strictly
inside a singleton is impossible, and in the soundness case every
non-singleton carries at most ``2/b`` probability mass, so the whole sieve
discards at most ``O(k log k) · 2/b = ε/10`` of the distance evidence —
the inequality the soundness proof rests on.

Corrigendum note: with ``fresh_samples=True`` (default) every Phase-B round
draws a fresh batch, so each round's selection is independent of the data it
thresholds — the conservatively-correct variant.  ``fresh_samples=False``
reuses Phase A's single batch across rounds, which is the paper-literal
reading whose adaptive reuse the PODS 2023 corrigendum flags; experiment E15
compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.chi2 import active_mask, collect_interval_statistics, interval_statistics
from repro.core.config import TesterConfig, check_k_eps
from repro.distributions.histogram import Histogram
from repro.distributions.sampling import SampleSource
from repro.observability.metrics import get_metrics
from repro.observability.trace import NULL_TRACER, Tracer
from repro.util.intervals import Partition


@dataclass(frozen=True)
class SieveResult:
    """Outcome of the sieving stage."""

    rejected: bool
    reason: str
    kept: np.ndarray  # boolean mask over the partition's intervals
    removed: np.ndarray  # indices of removed intervals, in removal order
    rounds: int
    samples_used: int
    final_statistic: float

    @property
    def num_removed(self) -> int:
        return len(self.removed)

    @classmethod
    def keep_all(cls, intervals: int, reason: str) -> "SieveResult":
        """A sample-free non-result that keeps every interval (no sieve ran)."""
        return cls(
            rejected=False,
            reason=reason,
            kept=np.ones(intervals, dtype=bool),
            removed=np.empty(0, dtype=np.int64),
            rounds=0,
            samples_used=0,
            final_statistic=float("nan"),
        )


def sieve_intervals(
    source: SampleSource,
    learned: Histogram,
    k: int,
    eps: float,
    config: TesterConfig,
    trace: Tracer = NULL_TRACER,
) -> SieveResult:
    """Run the two-phase sieve; see the module docstring."""
    check_k_eps(k, eps)
    partition: Partition = learned.partition
    if partition.n != source.n:
        raise ValueError("learned histogram does not cover the source domain")

    n = source.n
    alpha = config.sieve_alpha(eps)
    m = config.chi2_samples(n, alpha)
    repeats = config.chi2_repeat_count(k)
    reference = learned.to_pmf()
    point_mask = active_mask(reference, alpha, config.chi2_truncation)

    num_intervals = len(partition)
    removable = partition.lengths() > 1
    kept = np.ones(num_intervals, dtype=bool)
    removed: list[int] = []
    before = source.samples_drawn

    heavy_threshold = config.sieve_heavy_factor * m * alpha * alpha
    accept_threshold = config.sieve_accept_factor * m * alpha * alpha
    residual_target = config.sieve_residual_factor * m * alpha * alpha

    def batch_statistics() -> np.ndarray:
        return collect_interval_statistics(
            source, reference, m, partition, point_mask, repeats
        )

    metrics = get_metrics()

    # ----- Phase A: one-shot removal of heavy statistics -------------------
    with trace.span("phase_a") as span_a:
        mark = source.samples_drawn
        stats = batch_statistics()
        reused_stats = stats if not config.fresh_sieve_samples else None
        heavy = (stats > heavy_threshold) & removable
        num_heavy = int(heavy.sum())
        span_a.set(removed=num_heavy, samples=source.samples_drawn - mark)
        if num_heavy > k:
            span_a.set(rejected=True)
            metrics.counter("sieve.rejections", phase="A").inc()
            return SieveResult(
                rejected=True,
                reason=f"phase A: {num_heavy} heavy intervals exceed k={k}",
                kept=kept,
                removed=np.flatnonzero(heavy),
                rounds=0,
                samples_used=source.samples_drawn - before,
                final_statistic=float(stats.sum()),
            )
        kept[heavy] = False
        removed.extend(int(j) for j in np.flatnonzero(heavy))
        metrics.counter("sieve.removed", phase="A").inc(num_heavy)
    remaining_budget = k - num_heavy
    per_round_budget = max(remaining_budget, 1)

    # ----- Phase B: iterative removal ---------------------------------------
    max_rounds = config.sieve_rounds(k)
    final_statistic = float(stats[kept].sum())
    rounds_run = 0
    for _ in range(max_rounds):
        rounds_run += 1
        with trace.span("round", round=rounds_run) as span_r:
            mark = source.samples_drawn
            stats = batch_statistics() if config.fresh_sieve_samples else reused_stats
            kept_sum = float(stats[kept].sum())
            final_statistic = kept_sum
            if kept_sum < accept_threshold:
                span_r.set(removed=0, samples=source.samples_drawn - mark,
                           early_accept=True)
                break
            # Remove the largest removable statistics until the kept sum is
            # at most the residual target; at most per_round_budget removals.
            candidates = np.flatnonzero(kept & removable)
            order = candidates[np.argsort(stats[candidates])[::-1]]
            running = kept_sum
            to_remove: list[int] = []
            for j in order:
                if running <= residual_target:
                    break
                if len(to_remove) >= per_round_budget:
                    break
                to_remove.append(int(j))
                running -= float(stats[j])
            span_r.set(removed=len(to_remove), samples=source.samples_drawn - mark)
            if running > residual_target:
                span_r.set(rejected=True)
                metrics.counter("sieve.rejections", phase="B").inc()
                return SieveResult(
                    rejected=True,
                    reason=(
                        "phase B: residual statistic "
                        f"{running:.4g} > target {residual_target:.4g} even after "
                        f"removing {len(to_remove)} intervals"
                    ),
                    kept=kept,
                    removed=np.asarray(removed, dtype=np.int64),
                    rounds=rounds_run,
                    samples_used=source.samples_drawn - before,
                    final_statistic=running,
                )
            kept[to_remove] = False
            removed.extend(to_remove)
            metrics.counter("sieve.removed", phase="B").inc(len(to_remove))
            metrics.distribution("sieve.removed_per_round").observe(len(to_remove))
            final_statistic = running

    return SieveResult(
        rejected=False,
        reason="sieve complete",
        kept=kept,
        removed=np.asarray(removed, dtype=np.int64),
        rounds=rounds_run,
        samples_used=source.samples_drawn - before,
        final_statistic=final_statistic,
    )


def sieve_ground_truth_expectations(
    dist_pmf: np.ndarray,
    learned: Histogram,
    eps: float,
    config: TesterConfig,
) -> np.ndarray:
    """Per-interval ``E[Z_j]`` under the true distribution (experiments only)."""
    partition = learned.partition
    reference = learned.to_pmf()
    alpha = config.sieve_alpha(eps)
    m = config.chi2_samples(len(dist_pmf), alpha)
    mask = active_mask(reference, alpha, config.chi2_truncation)
    diff = np.where(mask, dist_pmf - reference, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mask, diff * diff / reference, 0.0)
    return m * partition.aggregate(terms)
