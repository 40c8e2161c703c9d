"""E14 (Table 5) — model selection (the intro's motivating application).

Doubling + binary search for the smallest ε-sufficient k on mixed
database-style workloads, followed by agnostic learning at the selected k.
Shape claims: selected k is ε-sufficient (verified with the exact DP), not
wildly above the minimal sufficient k, and the learned summary meets the
error target.
"""

import sys
import zlib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import CONFIG, check

from repro.distributions import families
from repro.distributions.distances import tv_distance
from repro.distributions.projection import flattening_distance
from repro.experiments.report import print_experiment
from repro.learning import select_k

EPS = 0.25
N = 1000  # small enough for the exact ground-truth DP

SCENARIOS = {
    "uniform": lambda: families.uniform(N),
    "staircase-4": lambda: families.staircase(N, 4, ratio=3.0).to_distribution(),
    "staircase-10": lambda: families.staircase(N, 10, ratio=1.8).to_distribution(),
    "bimodal": lambda: families.discretized_gaussian_mixture(
        N, centers=[0.3, 0.75], widths=[0.05, 0.09]
    ),
    "zipf": lambda: families.zipf(N, 1.0),
}


def smallest_sufficient_k(dist, eps: float, k_max: int) -> int | None:
    """Smallest ``k ≤ k_max`` whose flattening distance is at most ``eps``,
    or None.  The distance is non-increasing in ``k`` (an empty piece is
    free), so a bisection needs about log2(k_max) exact DPs."""
    if flattening_distance(dist, k_max) > eps:
        return None
    lo, hi = 1, k_max
    while lo < hi:
        mid = (lo + hi) // 2
        if flattening_distance(dist, mid) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return lo


def run():
    rows = []
    for name, factory in SCENARIOS.items():
        dist = factory()
        # crc32, not hash(): str hashing is salted per process, and
        # benchmark seeds must be stable across runs.
        rng = zlib.crc32(name.encode()) % 100
        result = select_k(dist, EPS, k_max=128, repeats=3, rng=rng, config=CONFIG)
        # Ground truth from the exact DP.
        k_star = smallest_sufficient_k(dist, EPS, max(80, result.k)) or 80
        err = tv_distance(dist, result.histogram.to_pmf())
        sufficient = flattening_distance(dist, result.k) <= 2 * EPS
        rows.append([name, result.k, k_star, result.tests_run, err, sufficient])
    return rows


def test_e14_model_selection(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_experiment(
        f"E14: model selection (n={N}, eps={EPS})",
        ["workload", "selected k", "minimal sufficient k*", "tester calls",
         "summary TV err", "2eps-sufficient"],
        rows,
    )
    for name, k_sel, k_star, _, err, sufficient in rows:
        check(f"{name}: selection 2eps-sufficient", sufficient)
        check(f"{name}: not wildly over (k <= 4k*+2)", k_sel <= 4 * k_star + 2)
        check(f"{name}: learned summary within 2eps", err <= 2 * EPS)
