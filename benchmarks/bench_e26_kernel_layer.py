"""E26 — kernel layer: hot-path timings and memory.

Measures the numpy kernel layer:

* **fast-engine seconds** on the E22 smoke grid (noisy staircase, k=32) —
  the same points as ``baselines/BENCH_e22_baseline.json``, so the gate
  (``check_kernel_regression.py``) can compute the speedup of the kernel
  layer over the pre-kernel committed baseline (≥ 1.5×);
* **peak memory** — tracemalloc peak of one fast-engine run per n; the
  log-log slope over the grid must stay near-linear (the O(n·k)
  preallocation contract of the sparse table / block kernels — a
  quadratic table would show slope ≈ 2);
* **serve throughput** — terminal sessions/sec of a small clean drill
  through the batched final-test path.

Also prints the per-op dispatch table (op / calls / seconds) from
the metrics registry — the data behind ``repro test --stage-timings``.

Emits ``BENCH_e26.json`` (gated by ``check_kernel_regression.py`` against
``baselines/BENCH_e22_baseline.json`` + ``baselines/BENCH_e26_baseline.json``).

Usage::

    python benchmarks/bench_e26_kernel_layer.py [--smoke]
        [--k K] [--sessions S] [--json PATH]
"""

import argparse
import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _common import WORKERS, check, write_bench_json

from repro.distributions import families
from repro.distributions.projection import distance_to_histogram
from repro.experiments.report import print_experiment
from repro.kernels import kernel_seconds_snapshot
from repro.serve import ChaosConfig, ServiceConfig, TesterService, build_requests
from repro.serve.session import SessionState

SEED = 22  # deliberately the E22 seed: same pmfs as the committed baseline
NOISE = 0.05


def make_pmf(n: int, k: int) -> np.ndarray:
    """The E22 noisy staircase (identical construction, same seed)."""
    base = families.staircase(n, k).to_distribution().pmf
    noise = np.random.default_rng([SEED, n, k]).dirichlet(np.ones(n))
    return (1.0 - NOISE) * base + NOISE * noise


#: Timing reps per n.  Background load only ever *inflates* a
#: rep, so the per-point minimum converges to true cost from above; the
#: rep loop runs outermost (interleaved across the whole grid) so one
#: sustained load burst on a shared host can inflate at most one rep of
#: any point instead of all of them.
REPS = 3


def time_fast_once(pmf: np.ndarray, k: int) -> tuple[float, float]:
    """(seconds, distance) of one fast-engine run."""
    start = time.perf_counter()
    dist = distance_to_histogram(pmf, k, engine="fast")
    return time.perf_counter() - start, dist


def peak_memory(pmf: np.ndarray, k: int) -> int:
    """tracemalloc peak (bytes) of one fast-engine run."""
    tracemalloc.start()
    try:
        distance_to_histogram(pmf, k, engine="fast")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def serve_throughput(sessions: int) -> tuple[float, int]:
    """(sessions/sec, terminal sessions) of one clean drill."""
    config = ChaosConfig(sessions=sessions, fault_rate=0.0, seed=26)
    service = TesterService(ServiceConfig(workers=WORKERS))
    for request in build_requests(config):
        service.submit(request)
    start = time.perf_counter()
    report = service.run()
    wall = time.perf_counter() - start
    terminal = sum(
        1 for o in report.outcomes if o.state in SessionState.TERMINAL
    )
    return terminal / wall, terminal


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    if len(xs) < 2:
        return math.nan
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small CI grid (<90 s)")
    parser.add_argument("--k", type=int, default=32, help="histogram pieces")
    parser.add_argument("--sessions", type=int, default=None,
                        help="serve-drill population (default 24; smoke 8)")
    parser.add_argument("--json", default=None, help="output path for BENCH_e26.json")
    args = parser.parse_args(argv)

    sizes = [1 << e for e in (range(8, 12) if args.smoke else range(8, 13))]
    sessions = args.sessions if args.sessions is not None else (8 if args.smoke else 24)

    pmfs = {n: make_pmf(n, args.k) for n in sizes}
    seconds_by_n = {str(n): math.inf for n in sizes}
    dists_by_n: dict[int, float] = {}
    for _ in range(REPS):
        for n in sizes:
            secs, dist = time_fast_once(pmfs[n], args.k)
            seconds_by_n[str(n)] = min(seconds_by_n[str(n)], secs)
            dists_by_n[n] = dist

    rows = []
    peaks_by_n: dict[str, int] = {}
    for n in sizes:
        peaks_by_n[str(n)] = peak_memory(pmfs[n], args.k)
        rows.append([n, seconds_by_n[str(n)], peaks_by_n[str(n)] / 1e6, dists_by_n[n]])

    columns = ["n", "fast s", "peak MB", "distance"]
    print_experiment(f"E26: kernel layer (k={args.k})", columns, rows)

    mem_slope = loglog_slope(
        [float(n) for n in sizes], [float(peaks_by_n[str(n)]) for n in sizes]
    )
    throughput, terminal = serve_throughput(sessions)

    print(f"  peak-memory log-log slope: {mem_slope:.2f} (O(n*k) => ~1)")
    print(f"  serve throughput: {throughput:.2f} sessions/s ({terminal} terminal)")
    print("  kernel dispatches (op / calls / seconds):")
    for op, _kernel, calls, secs in kernel_seconds_snapshot():
        print(f"    {op:<28} {calls:>9,} calls  {secs:>9.4f}s")

    check("memory near-linear in n (slope <= 1.5)", mem_slope <= 1.5)
    check("all drill sessions terminal", terminal == sessions)

    write_bench_json(
        "e26",
        params={
            "k": args.k,
            "sizes": sizes,
            "seed": SEED,
            "noise": NOISE,
            "smoke": bool(args.smoke),
            "sessions": sessions,
        },
        columns=columns,
        rows=rows,
        metrics={
            # Same key layout as BENCH_e22 so the speedup gate can divide
            # the committed pre-kernel baseline by these.
            "fast_seconds_by_n_python": seconds_by_n,
            "peak_bytes_by_n": peaks_by_n,
            "peak_memory_slope": mem_slope,
            "serve_sessions_per_sec": throughput,
        },
        path=args.json,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
