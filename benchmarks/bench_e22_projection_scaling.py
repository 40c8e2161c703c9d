"""E22 — projection-engine scaling: fast oracle DP vs dense cost matrix.

Wall-clock time of :func:`repro.distributions.projection.distance_to_histogram`
on a noisy staircase (the tester's realistic near-histogram regime) as the
domain grows, n ∈ {2^8 … 2^15}, at fixed k.  Three shape checks encode the
engine's contract:

* the fast engine's log-log slope stays **well below the dense engine's
  cubic** (near-linear in practice: ~1.1–1.6 on this family);
* fast and dense agree to ≤ 1e-12 wherever both run (golden equivalence);
* ≥ 20× speedup at n = 4096, k = 32 (the tentpole acceptance bar; the dense
  time there is cubic-extrapolated unless ``--full-dense`` measures it);
* the tracemalloc peak of one fast run per n grows near-linearly (log-log
  slope ≤ 1.5: the O(n·k) preallocation contract of the sparse-table and
  block kernels — a quadratic table would show a slope of ≈ 2).

The dense engine builds the full O(n²) cost matrix (O(n³) work), so it is
only timed up to ``--dense-cap`` (default 2048; smoke 512); its time is
input-independent, which makes the cubic extrapolation safe.

Emits ``BENCH_e22.json`` (see :func:`_common.write_bench_json`) with
``fast_seconds_by_n``, ``dense_seconds_by_n``, ``max_engine_diff``,
``peak_bytes_by_n`` and ``peak_memory_slope`` for the regression gate
(``python benchmarks/gate.py BENCH_e22.json``), which holds both engines'
times against the committed baseline and the engine agreement and memory
slope to their absolute bars.

Usage::

    python benchmarks/bench_e22_projection_scaling.py [--smoke]
        [--k K] [--dense-cap N] [--full-dense] [--json PATH]
"""

import argparse
import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _common import check, write_bench_json

from repro.distributions import families
from repro.distributions.projection import distance_to_histogram
from repro.experiments.report import print_experiment

SEED = 22
NOISE = 0.05
ACCEPT_N = 4096  # the acceptance-criterion point (n=4096, k=32, >=20x)
ACCEPT_SPEEDUP = 20.0


def make_pmf(n: int, k: int) -> np.ndarray:
    """Noisy staircase: a k-histogram convexly mixed with Dirichlet noise."""
    base = families.staircase(n, k).to_distribution().pmf
    noise = np.random.default_rng([SEED, n, k]).dirichlet(np.ones(n))
    return (1.0 - NOISE) * base + NOISE * noise


def time_engine(pmf: np.ndarray, k: int, engine: str) -> tuple[float, float]:
    """(seconds, distance) for one engine; best-of-3 below n=1024."""
    reps = 3 if len(pmf) < 1024 else 1
    best, dist = math.inf, math.nan
    for _ in range(reps):
        start = time.perf_counter()
        dist = distance_to_histogram(pmf, k, engine=engine)
        best = min(best, time.perf_counter() - start)
    return best, dist


def peak_memory(pmf: np.ndarray, k: int) -> int:
    """tracemalloc peak (bytes) of one fast-engine run."""
    tracemalloc.start()
    try:
        distance_to_histogram(pmf, k, engine="fast")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def run_grid(sizes: list[int], k: int, dense_cap: int):
    rows = []
    for n in sizes:
        pmf = make_pmf(n, k)
        fast_s, fast_d = time_engine(pmf, k, "fast")
        if n <= dense_cap:
            dense_s, dense_d = time_engine(pmf, k, "dense")
            speedup, agree = dense_s / fast_s, abs(dense_d - fast_d)
        else:
            dense_s = speedup = agree = math.nan
        rows.append([n, fast_s, dense_s, speedup, agree, fast_d])
    return rows


def loglog_slope(ns: list[float], ts: list[float]) -> float:
    if len(ns) < 2:
        return math.nan
    return float(np.polyfit(np.log(ns), np.log(ts), 1)[0])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small fast grid (<60 s)")
    parser.add_argument("--k", type=int, default=32, help="histogram pieces")
    parser.add_argument(
        "--dense-cap", type=int, default=None,
        help="largest n to time the dense engine at (default 2048; smoke 512)",
    )
    parser.add_argument(
        "--full-dense", action="store_true",
        help=f"measure dense at n={ACCEPT_N} (~10 min) instead of extrapolating",
    )
    parser.add_argument("--json", default=None, help="output path for BENCH_e22.json")
    args = parser.parse_args(argv)

    sizes = [1 << e for e in (range(8, 12) if args.smoke else range(8, 16))]
    dense_cap = args.dense_cap if args.dense_cap is not None else (
        512 if args.smoke else 2048
    )
    if args.full_dense:
        dense_cap = max(dense_cap, ACCEPT_N)

    rows = run_grid(sizes, args.k, dense_cap)
    print_experiment(
        f"E22: projection scaling (k={args.k}, noisy staircase, dense<= {dense_cap})",
        ["n", "fast s", "dense s", "speedup", "|diff|", "distance"],
        rows,
    )

    fast_by_n = {row[0]: row[1] for row in rows}
    dense_rows = [row for row in rows if not math.isnan(row[2])]
    dense_by_n = {row[0]: row[2] for row in dense_rows}
    slope = loglog_slope([r[0] for r in rows], [r[1] for r in rows])

    # Speedup at the acceptance point: measured if dense ran there, else the
    # dense time is cubic-extrapolated from the largest measured dense n
    # (the dense cost-matrix build is input-independent, so this is safe).
    accept_speedup = math.nan
    accept_mode = "unmeasured"
    if ACCEPT_N in fast_by_n and dense_rows:
        top = dense_rows[-1]
        if top[0] >= ACCEPT_N:
            accept_speedup, accept_mode = top[3], "measured"
        else:
            dense_est = top[2] * (ACCEPT_N / top[0]) ** 3
            accept_speedup = dense_est / fast_by_n[ACCEPT_N]
            accept_mode = f"extrapolated from n={top[0]}"

    # Measured after the timings, so tracemalloc's overhead never enters them.
    peaks_by_n = {n: peak_memory(make_pmf(n, args.k), args.k) for n in sizes}
    mem_slope = loglog_slope(sizes, [float(peaks_by_n[n]) for n in sizes])
    print(f"  peak-memory log-log slope: {mem_slope:.2f} (O(n*k) => ~1)")

    max_diff = max((r[4] for r in dense_rows), default=math.nan)
    check("fast log-log slope < 2.0 (sub-quadratic)", slope < 2.0)
    check("memory near-linear in n (slope <= 1.5)", mem_slope <= 1.5)
    if dense_rows:
        check("engines agree <= 1e-12", max_diff <= 1e-12)
    if not math.isnan(accept_speedup):
        check(
            f"speedup at n={ACCEPT_N} >= {ACCEPT_SPEEDUP:.0f}x ({accept_mode})",
            accept_speedup >= ACCEPT_SPEEDUP,
        )

    write_bench_json(
        "e22",
        params={
            "k": args.k, "sizes": sizes, "dense_cap": dense_cap,
            "noise": NOISE, "seed": SEED, "smoke": bool(args.smoke),
        },
        columns=["n", "fast_s", "dense_s", "speedup", "abs_diff", "distance"],
        rows=rows,
        metrics={
            "fast_loglog_slope": slope,
            "accept_speedup": accept_speedup,
            "accept_speedup_mode": accept_mode,
            "max_engine_diff": max_diff,
            "fast_seconds_by_n": {str(n): t for n, t in fast_by_n.items()},
            "dense_seconds_by_n": {str(n): t for n, t in dense_by_n.items()},
            "peak_bytes_by_n": {str(n): b for n, b in peaks_by_n.items()},
            "peak_memory_slope": mem_slope,
        },
        path=args.json,
    )
    ok = (max_diff <= 1e-12) if dense_rows else True
    return 0 if ok else 1


def test_e22_projection_scaling(benchmark):
    rows = benchmark.pedantic(
        lambda: run_grid([256, 512, 1024], 16, 512), rounds=1, iterations=1
    )
    print_experiment(
        "E22 (smoke): projection scaling",
        ["n", "fast s", "dense s", "speedup", "|diff|", "distance"],
        rows,
    )
    dense_rows = [row for row in rows if not math.isnan(row[2])]
    assert dense_rows, "smoke grid must include a dense comparison point"
    assert all(row[4] <= 1e-12 for row in dense_rows)


if __name__ == "__main__":
    sys.exit(main())
