"""E22 — projection scaling: the point flattening against the per-point fold.

Wall-clock time of :func:`repro.distributions.projection.distance_to_histogram`
on a noisy staircase (the tester's realistic near-histogram regime) as the
domain grows, n ∈ {2^8 … 2^13} (the point-granularity cap), at fixed k.
Up to n = 512 the library runs the certified rank-prefix split on the
singleton base; above it, the oracle DP
(:func:`~repro.distributions.projection_engine.project_intervals`), which
prices each of the n(n+1)/2 intervals once.  The "dense" column times the
exact reference above n = 512: the per-point fold on the singleton base
(:func:`~repro.distributions.projection._fold_l1`, a (n+1)² cost matrix
built from n³/6 terms).  The shape checks encode the oracle DP's contract:

* its log-log slope over n > 512 (O(n² log n) oracle work plus an O(k·n²)
  DP) against the sub-quadratic bar 2.0; like the speedup check it is
  reported only, and the exit status follows the agreement check;
* it agrees with the fold to ≤ 1e-12 wherever both run (the smoke grid
  times the fold at n = 1024);
* ≥ 20× speedup over the fold at n = 4096, k = 32 (the fold's time there
  is cubic-extrapolated unless ``--full-dense`` measures it);
* the tracemalloc peak of one run per n > 512 grows at most near-linearly
  (log-log slope ≤ 1.5: the O(n·k) layers plus one bounded column block —
  a quadratic table would show a slope of ≈ 2).  The certified split at
  n ≤ 512 holds one complex (n+1)² rank table, so those sizes stay out of
  the fit.

One more row, reported only, times the Step-10 worst case: the uniform
pmf at n = 512, k ∈ {8, 32}.  Every height ties, so the certified split's
gap test fails and the per-point fold runs after it (the rank build, the
DP and the K³/6 fold).

The fold is only timed for 512 < n ≤ ``--dense-cap`` (default 2048; smoke
1024); its time there is input-independent, which makes the cubic
extrapolation safe.

Emits ``BENCH_e22.json`` (see :func:`_common.write_bench_json`) with
``fast_seconds_by_n`` (the library), ``dense_seconds_by_n`` (the fold),
``max_engine_diff``, ``peak_bytes_by_n`` and ``peak_memory_slope`` for the
regression gate, plus the worst-case row as ``tie_seconds_by_k`` and
``tie_split_by_k`` (which path answered: ``"fold"`` or ``"rank"``), which
no gate row reads (``python benchmarks/gate.py BENCH_e22.json``), which holds
both times against the committed baseline and the agreement and memory
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
from repro.distributions.projection import (
    _MAX_PROJECTION_BASE,
    _coarse_input,
    _fold_l1,
    distance_to_histogram,
)
from repro.experiments.report import print_experiment
from repro.observability.metrics import get_metrics
from repro.util.intervals import Partition

SEED = 22
NOISE = 0.05
ACCEPT_N = 4096  # the acceptance-criterion point (n=4096, k=32, >=20x)
ACCEPT_SPEEDUP = 20.0
TIE_KS = (8, 32)  # the worst-case row's k


def make_pmf(n: int, k: int) -> np.ndarray:
    """Noisy staircase: a k-histogram convexly mixed with Dirichlet noise."""
    base = families.staircase(n, k).to_distribution().pmf
    noise = np.random.default_rng([SEED, n, k]).dirichlet(np.ones(n))
    return (1.0 - NOISE) * base + NOISE * noise


def fold_distance(pmf: np.ndarray, k: int) -> float:
    """The exact reference: the per-point fold on the singleton base."""
    n = len(pmf)
    l1, _ = _fold_l1(_coarse_input(pmf, Partition.singletons(n), k, None, n), k)
    return 0.5 * l1


def timed(distance, pmf: np.ndarray, k: int) -> tuple[float, float]:
    """(seconds, distance) of ``distance(pmf, k)``; best-of-3 below n=1024."""
    reps = 3 if len(pmf) < 1024 else 1
    best, dist = math.inf, math.nan
    for _ in range(reps):
        start = time.perf_counter()
        dist = distance(pmf, k)
        best = min(best, time.perf_counter() - start)
    return best, dist


def tie_row(k: int) -> tuple[float, str]:
    """(seconds, path) of the library on the uniform pmf at n = 512: every
    height ties, so the split's certificate fails (path ``"fold"``)."""
    n = _MAX_PROJECTION_BASE
    before = get_metrics().counter("projection.split_certified", by="fold").value
    seconds, _ = timed(distance_to_histogram, np.full(n, 1.0 / n), k)
    folds = get_metrics().counter("projection.split_certified", by="fold").value - before
    return seconds, "fold" if folds else "rank"


def peak_memory(pmf: np.ndarray, k: int) -> int:
    """tracemalloc peak (bytes) of one library run."""
    tracemalloc.start()
    try:
        distance_to_histogram(pmf, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def run_grid(sizes: list[int], k: int, dense_cap: int):
    rows = []
    for n in sizes:
        pmf = make_pmf(n, k)
        fast_s, fast_d = timed(distance_to_histogram, pmf, k)
        if _MAX_PROJECTION_BASE < n <= dense_cap:
            dense_s, dense_d = timed(fold_distance, pmf, k)
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
        help="largest n to time the fold reference at (default 2048; smoke 1024)",
    )
    parser.add_argument(
        "--full-dense", action="store_true",
        help=f"measure the fold at n={ACCEPT_N} instead of extrapolating",
    )
    parser.add_argument("--json", default=None, help="output path for BENCH_e22.json")
    args = parser.parse_args(argv)

    sizes = [1 << e for e in (range(8, 12) if args.smoke else range(8, 14))]
    dense_cap = args.dense_cap if args.dense_cap is not None else (
        1024 if args.smoke else 2048
    )
    if args.full_dense:
        dense_cap = max(dense_cap, ACCEPT_N)

    rows = run_grid(sizes, args.k, dense_cap)
    print_experiment(
        f"E22: projection scaling (k={args.k}, noisy staircase, fold <= {dense_cap})",
        ["n", "fast s", "fold s", "speedup", "|diff|", "distance"],
        rows,
    )

    fast_by_n = {row[0]: row[1] for row in rows}
    dense_rows = [row for row in rows if not math.isnan(row[2])]
    dense_by_n = {row[0]: row[2] for row in dense_rows}
    oracle_ns = [n for n in sizes if n > _MAX_PROJECTION_BASE]
    slope = loglog_slope(oracle_ns, [fast_by_n[n] for n in oracle_ns])

    # Speedup at the acceptance point: measured if the fold ran there, else
    # its time is cubic-extrapolated from the largest measured n (the fold's
    # work is input-independent, so this is safe).
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

    ties = {k: tie_row(k) for k in TIE_KS}
    print_experiment(
        f"E22 worst case (reported, not gated): uniform pmf, n={_MAX_PROJECTION_BASE}",
        ["k", "s", "path"],
        [[k, s, path] for k, (s, path) in ties.items()],
    )

    # Measured after the timings, so tracemalloc's overhead never enters them.
    peaks_by_n = {n: peak_memory(make_pmf(n, args.k), args.k) for n in sizes}
    mem_slope = loglog_slope(oracle_ns, [float(peaks_by_n[n]) for n in oracle_ns])
    print(f"  peak-memory log-log slope over n > 512: {mem_slope:.2f} (O(n*k) => <= ~1)")

    max_diff = max((r[4] for r in dense_rows), default=math.nan)
    check("fast log-log slope over n > 512 < 2.0 (sub-quadratic)", slope < 2.0)
    check("memory over n > 512 at most near-linear in n (slope <= 1.5)", mem_slope <= 1.5)
    if dense_rows:
        check("oracle DP and fold agree <= 1e-12", max_diff <= 1e-12)
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
            "tie_seconds_by_k": {str(k): s for k, (s, _) in ties.items()},
            "tie_split_by_k": {str(k): path for k, (_, path) in ties.items()},
        },
        path=args.json,
    )
    ok = (max_diff <= 1e-12) if dense_rows else True
    return 0 if ok else 1


def test_e22_projection_scaling(benchmark):
    rows = benchmark.pedantic(
        lambda: run_grid([256, 512, 1024], 16, 1024), rounds=1, iterations=1
    )
    print_experiment(
        "E22 (smoke): projection scaling",
        ["n", "fast s", "fold s", "speedup", "|diff|", "distance"],
        rows,
    )
    dense_rows = [row for row in rows if not math.isnan(row[2])]
    assert dense_rows, "smoke grid must include a dense comparison point"
    assert all(row[4] <= 1e-12 for row in dense_rows)


if __name__ == "__main__":
    sys.exit(main())
