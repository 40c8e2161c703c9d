"""E25 — backend matrix: pods16 vs cdkl22 head-to-head.

Runs both tester backends over the same workload pair — one true
k-histogram (completeness side) and one certified ε-far instance
(soundness side) — across a grid of domain sizes, measuring for each
``(n, backend)`` cell:

* **fn / fp errors** — empirical completeness and soundness errors among
  the fixed-seed trials, each checked against the exact binomial bound for
  per-trial error rate 1/3 (the paper's guarantee; both backends must meet
  the *same* bar);
* **samples/trial** — mean empirical samples actually drawn, the number
  the near-optimal backend exists to shrink;
* **wall seconds** per cell.

The headline metric is the **sample-complexity crossover**: the
cdkl22/pods16 mean-sample ratio at the largest grid point.  The cdkl22
schedule drops the sieve (the pods16 budget's dominant √n/ε² × batches
term) in favour of the trimmed final statistic, so the ratio must be well
below 1 and shrink as n grows — ``python benchmarks/gate.py
BENCH_e25.json`` gates both the error bounds and this ratio against
``BENCH_e25_baseline.json``.

Emits ``BENCH_e25.json``.  The grid iterates through
:func:`checkpointed_loop`, so a killed run resumes per cell.  Note this
benchmark ignores ``REPRO_BACKEND`` by design: it always measures both
backends head-to-head.

Usage::

    python benchmarks/bench_e25_backend_matrix.py [--smoke]
        [--trials T] [--json PATH] [--checkpoint PATH]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import CONFIG, WORKERS, check, checkpointed_loop, write_bench_json

from scipy import stats

from repro.core.backends import BACKENDS, backend_budget
from repro.experiments.runner import acceptance_probability
from repro.experiments.sweeps import HistogramTester
from repro.experiments.workloads import BoundWorkload

SEED = 25
K, EPS = 4, 0.3
YES_WORKLOAD = "staircase"  # true k-histogram: errors here are false negatives
NO_WORKLOAD = "sawtooth-uniform"  # certified eps-far: errors are false positives

#: Same flake budget as tests/calibration: if a backend only just met the
#: paper's 1/3 error bound, exceeding binom.ppf(1-FLAKE_P, trials, 1/3)
#: errors has probability below FLAKE_P.
FLAKE_P = 1e-6


def measure_cell(n: int, backend: str, trials: int) -> list:
    """One (n, backend) cell: errors on both sides + mean samples + wall."""
    tester = HistogramTester(K, EPS, CONFIG, backend)
    start = time.perf_counter()
    yes = acceptance_probability(
        BoundWorkload(YES_WORKLOAD, n, K, EPS), tester,
        trials=trials, rng=SEED, workers=WORKERS,
    )
    no = acceptance_probability(
        BoundWorkload(NO_WORKLOAD, n, K, EPS), tester,
        trials=trials, rng=SEED + 1, workers=WORKERS,
    )
    wall = time.perf_counter() - start
    fn_errors = trials - round(yes.rate * trials)
    fp_errors = round(no.rate * trials)
    mean_samples = 0.5 * (yes.mean_samples + no.mean_samples)
    return [
        n, backend, fn_errors, fp_errors,
        round(mean_samples, 1), round(wall, 3),
    ]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI matrix (one n, fewer trials)")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per cell and side (default 60; smoke 20)")
    parser.add_argument("--json", default=None, metavar="PATH")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="resume a killed grid from this sqlite store")
    args = parser.parse_args(argv)
    grid = (600,) if args.smoke else (600, 1200, 2500)
    trials = args.trials if args.trials is not None else (20 if args.smoke else 60)
    max_errors = int(stats.binom.ppf(1 - FLAKE_P, trials, 1.0 / 3.0))

    points = [(n, backend) for n in grid for backend in BACKENDS]
    rows = checkpointed_loop(
        points,
        lambda point: measure_cell(point[0], point[1], trials),
        checkpoint=args.checkpoint,
        fingerprint={"grid": list(grid), "trials": trials, "seed": SEED,
                     "k": K, "eps": EPS,
                     "workloads": [YES_WORKLOAD, NO_WORKLOAD]},
    )

    columns = ["n", "backend", "fn errors", "fp errors",
               "samples/trial", "wall s"]
    from repro.experiments.report import print_experiment

    print_experiment(
        f"E25: backend matrix, k={K}, eps={EPS}, {trials} trials/side "
        f"(yes={YES_WORKLOAD}, no={NO_WORKLOAD})",
        columns, rows,
    )

    by_cell = {(row[0], row[1]): row for row in rows}
    ratios = {}
    for n in grid:
        pods = by_cell[(n, "pods16")][4]
        cdkl = by_cell[(n, "cdkl22")][4]
        ratios[n] = cdkl / pods if pods else float("inf")
        print(f"  sample ratio cdkl22/pods16 @ n={n}: {ratios[n]:.4f}")
    largest = max(grid)

    worst_errors = max(max(row[2], row[3]) for row in rows)
    check(f"all error counts within binomial bound {max_errors}",
          worst_errors <= max_errors)
    check("cdkl22 uses measurably fewer samples at the largest n",
          ratios[largest] <= 0.6)
    check("cdkl22 advantage grows (or holds) with n",
          args.smoke or ratios[largest] <= ratios[min(grid)] * 1.05)
    check("worst-case budgets agree with the measurement",
          backend_budget("cdkl22", largest, K, EPS, CONFIG)
          < backend_budget("pods16", largest, K, EPS, CONFIG))

    write_bench_json(
        "e25",
        params={
            "grid": list(grid), "k": K, "eps": EPS, "trials": trials,
            "seed": SEED, "workers": WORKERS, "smoke": args.smoke,
            "yes_workload": YES_WORKLOAD, "no_workload": NO_WORKLOAD,
        },
        columns=columns,
        rows=rows,
        metrics={
            "max_errors_allowed": max_errors,
            "worst_cell_errors": worst_errors,
            "sample_ratio_largest_n": round(ratios[largest], 4),
            "sample_ratios": {str(n): round(r, 4) for n, r in ratios.items()},
        },
        path=args.json,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
