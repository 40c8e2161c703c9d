"""``APPROXPART`` — the adaptive partitioning stage (Proposition 3.4).

Given a parameter ``b > 1`` and samples from ``D``, produce a partition of
the domain into ``K = O(b)`` intervals such that, with probability ≥ 9/10:

(i)   every heavy element (``D(i) ≥ 1/b``) is a singleton interval;
(ii)  few intervals are light (``D(I) < 1/(2b)``);
(iii) every other interval has ``D(I) ∈ [1/(2b), 2/b]``.

The construction is a greedy scan over empirical weights from
``O(b log b)`` samples: empirically-heavy points are forced into singletons,
and the stretches between them are cut every time the accumulated empirical
weight reaches ``1/b``.

Reproduction note (recorded in EXPERIMENTS.md, measured by experiment E12):
the paper's Claim promises *at most two* light intervals; the greedy
construction here can leave one light interval before each forced singleton
(they cannot be merged across the singleton).  Algorithm 1 never uses the
two-light property — it relies only on (i), the ``≤ 2/b`` upper bound of
(iii), and ``K = O(b)`` — all of which the greedy construction satisfies and
E12 verifies empirically.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.sampling import SampleSource
from repro.util.intervals import Partition


def approx_partition(
    source: SampleSource,
    b: float,
    num_samples: int,
) -> Partition:
    """Run ``APPROXPART`` with parameter ``b`` on ``num_samples`` draws.

    Parameters
    ----------
    source:
        Sample access to the unknown distribution.
    b:
        The weight scale: heavy elements are those with ``D(i) ≥ 1/b``.
    num_samples:
        Sample budget (the caller computes ``O(b log b)`` via its config).
    """
    if b <= 1:
        raise ValueError(f"b must exceed 1, got {b}")
    if num_samples < 1:
        raise ValueError(f"need at least one sample, got {num_samples}")
    n = source.n
    counts = source.draw_counts(num_samples)
    weights = counts / num_samples

    # Force empirical-heavy points into singletons: a true-heavy element
    # (D(i) >= 1/b) has empirical weight >= 3/(4b) w.h.p. at this budget.
    singleton_cut = 3.0 / (4.0 * b)
    close_cut = 1.0 / b

    # Zero weights never move ``acc`` and are never heavy, so the scan
    # visits only the nonzero ones; the boundaries are the per-point scan's.
    boundaries = [0]
    acc = 0.0
    nonzero = np.flatnonzero(weights)
    for i, w in zip(nonzero.tolist(), weights[nonzero].tolist()):
        if w >= singleton_cut:
            if boundaries[-1] != i:
                boundaries.append(i)  # close the (possibly light) run before
            boundaries.append(i + 1)  # the singleton itself
            acc = 0.0
            continue
        acc += w
        if acc >= close_cut:
            boundaries.append(i + 1)
            acc = 0.0
    if boundaries[-1] != n:
        boundaries.append(n)
    return Partition(np.unique(np.asarray(boundaries, dtype=np.int64)))


def partition_diagnostics(partition: Partition, pmf: np.ndarray, b: float) -> dict:
    """Measure the Proposition 3.4 guarantees against the *true* pmf.

    Ground-truth-only helper for tests and experiment E12 (a tester never
    sees the pmf).  Returns violation counts for each clause.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    if pmf.shape != (partition.n,):
        raise ValueError("pmf does not match the partition domain")
    heavy_points = np.flatnonzero(pmf >= 1.0 / b)
    singleton_starts = {iv.start for iv in partition if iv.is_singleton}
    heavy_not_singleton = int(sum(1 for i in heavy_points if int(i) not in singleton_starts))

    masses = partition.aggregate(pmf)
    lengths = partition.lengths()
    non_singleton = lengths > 1
    light = masses < 1.0 / (2.0 * b)
    overweight_non_singleton = int(np.count_nonzero(non_singleton & (masses > 2.0 / b)))
    light_count = int(np.count_nonzero(light))
    return {
        "num_intervals": len(partition),
        "bound_2b_plus_2": int(2 * b + 2),
        "heavy_points": len(heavy_points),
        "heavy_not_singleton": heavy_not_singleton,
        "light_intervals": light_count,
        "overweight_non_singletons": overweight_non_singleton,
        "max_non_singleton_mass": float(masses[non_singleton].max()) if non_singleton.any() else 0.0,
    }
