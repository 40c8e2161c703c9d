"""E28 — closeness vs naive double-identity: head-to-head.

Deciding ``p = q`` versus ``dTV(p, q) ≥ ε`` given two k-histogram streams.
The obvious-but-wrong baseline runs the one-sample identity tester on each
stream separately and accepts iff both accept.  On the closeness instance
families both streams *are* k-histograms, so the baseline accepts every
pair — close or ε-far — and its far-side acceptance count is the measured
proof that identity testing cannot answer the two-sample question.  The
DKN17 reduction (:func:`repro.core.closeness.test_closeness`) answers it
at comparable per-trial sample cost: shared union partition, per-stream
learn + sieve, then the paired CDVV14 statistic on the interval counts.

Per domain size the benchmark measures:

* **closeness fn / fp** — the real tester's completeness and soundness
  errors over fixed-seed trials, each against the exact binomial bound for
  per-trial error rate 1/3 (the paper's guarantee);
* **naive far-accepts** — how many ε-far pairs the double-identity
  baseline waves through (expected: all of them);
* **samples/trial** for both testers and their ratio;
* **wall seconds** per cell.

``python benchmarks/gate.py BENCH_e28.json`` gates the binomial error
bounds and the baseline's blindness absolutely (correctness never takes a
hardware factor) and the wall clock against ``BENCH_e28_baseline.json``
with ``REPRO_PERF_FACTOR`` headroom.

Emits ``BENCH_e28.json``.  The grid iterates through
:func:`checkpointed_loop`, so a killed run resumes per cell.

Usage::

    python benchmarks/bench_e28_closeness.py [--smoke]
        [--trials T] [--json PATH] [--checkpoint PATH]
"""

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import CONFIG, WORKERS, check, checkpointed_loop, write_bench_json

from scipy import stats

from repro.core.closeness import closeness_budget
from repro.core.config import TesterConfig
from repro.core.tester import test_histogram
from repro.experiments.runner import acceptance_probability
from repro.experiments.sweeps import PairedClosenessTester
from repro.experiments.workloads import BoundPairedWorkload

SEED = 28
K, EPS = 4, 0.4
YES_WORKLOAD = "identical-staircase"  # p = q: errors here are false negatives
NO_WORKLOAD = "shifted-staircase"  # certified eps-far pair of k-histograms

#: Same flake budget as tests/calibration: if the tester only just met the
#: paper's 1/3 error bound, exceeding binom.ppf(1-FLAKE_P, trials, 1/3)
#: errors has probability below FLAKE_P.
FLAKE_P = 1e-6


@dataclass(frozen=True)
class NaiveDoubleIdentityTester:
    """The baseline: one-sample identity test per stream, AND the verdicts.

    Both closeness workload streams are genuine k-histograms, so this
    accepts (w.h.p.) regardless of the distance between them — it tests
    the promise, not the closeness question.
    """

    k: int
    eps: float
    config: TesterConfig

    def __call__(self, pair) -> bool:
        accept_p = test_histogram(pair.p, self.k, self.eps, config=self.config).accept
        accept_q = test_histogram(pair.q, self.k, self.eps, config=self.config).accept
        return accept_p and accept_q


def measure_cell(n: int, trials: int) -> list:
    """One domain size: closeness on both sides + the baseline on the far
    side (its close-side acceptance is trivially high; the far side is
    where the blindness shows)."""
    closeness = PairedClosenessTester(K, EPS, CONFIG)
    naive = NaiveDoubleIdentityTester(K, EPS, CONFIG)
    start = time.perf_counter()
    yes = acceptance_probability(
        BoundPairedWorkload(YES_WORKLOAD, n, K, EPS), closeness,
        trials=trials, rng=SEED, workers=WORKERS,
    )
    no = acceptance_probability(
        BoundPairedWorkload(NO_WORKLOAD, n, K, EPS), closeness,
        trials=trials, rng=SEED + 1, workers=WORKERS,
    )
    naive_no = acceptance_probability(
        BoundPairedWorkload(NO_WORKLOAD, n, K, EPS), naive,
        trials=trials, rng=SEED + 2, workers=WORKERS,
    )
    wall = time.perf_counter() - start
    fn_errors = trials - round(yes.rate * trials)
    fp_errors = round(no.rate * trials)
    naive_far_accepts = round(naive_no.rate * trials)
    closeness_samples = 0.5 * (yes.mean_samples + no.mean_samples)
    naive_samples = naive_no.mean_samples
    ratio = closeness_samples / naive_samples if naive_samples else float("inf")
    return [
        n, fn_errors, fp_errors, naive_far_accepts,
        round(closeness_samples, 1), round(naive_samples, 1),
        round(ratio, 4), round(wall, 3),
    ]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI grid (one n, fewer trials)")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per cell and side (default 60; smoke 20)")
    parser.add_argument("--json", default=None, metavar="PATH")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="resume a killed grid from this sqlite store")
    args = parser.parse_args(argv)
    grid = (2000,) if args.smoke else (2000, 4000, 8000)
    trials = args.trials if args.trials is not None else (20 if args.smoke else 60)
    max_errors = int(stats.binom.ppf(1 - FLAKE_P, trials, 1.0 / 3.0))

    rows = checkpointed_loop(
        list(grid),
        lambda n: measure_cell(n, trials),
        checkpoint=args.checkpoint,
        fingerprint={"grid": list(grid), "trials": trials, "seed": SEED,
                     "k": K, "eps": EPS,
                     "workloads": [YES_WORKLOAD, NO_WORKLOAD]},
    )

    columns = ["n", "closeness fn", "closeness fp", "naive far-accepts",
               "closeness samples", "naive samples", "ratio", "wall s"]
    from repro.experiments.report import print_experiment

    print_experiment(
        f"E28: closeness vs naive double-identity, k={K}, eps={EPS}, "
        f"{trials} trials/side (yes={YES_WORKLOAD}, no={NO_WORKLOAD})",
        columns, rows,
    )

    worst_errors = max(max(row[1], row[2]) for row in rows)
    fewest_naive_accepts = min(row[3] for row in rows)
    largest = max(grid)
    by_n = {row[0]: row for row in rows}

    check(f"closeness error counts within binomial bound {max_errors}",
          worst_errors <= max_errors)
    check("naive double-identity is blind to eps-far pairs",
          fewest_naive_accepts >= trials - max_errors)
    check("closeness costs at most ~2x the naive baseline per trial",
          by_n[largest][6] <= 2.0)
    check("measured samples stay within the closed-form joint budget",
          by_n[largest][4] <= closeness_budget(largest, K, EPS, CONFIG))

    write_bench_json(
        "e28",
        params={
            "grid": list(grid), "k": K, "eps": EPS, "trials": trials,
            "seed": SEED, "workers": WORKERS, "smoke": args.smoke,
            "yes_workload": YES_WORKLOAD, "no_workload": NO_WORKLOAD,
        },
        columns=columns,
        rows=rows,
        metrics={
            "max_errors_allowed": max_errors,
            "worst_closeness_errors": worst_errors,
            "naive_blind_bound": trials - max_errors,
            "fewest_naive_far_accepts": fewest_naive_accepts,
            "sample_ratio_by_n": {str(row[0]): row[6] for row in rows},
            "closeness_seconds_by_n": {str(row[0]): row[7] for row in rows},
        },
        path=args.json,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
