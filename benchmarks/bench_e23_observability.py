"""E23 — per-stage sample-budget breakdown vs the Theorem 3.1 closed form.

Runs Algorithm 1 under a :class:`~repro.observability.trace.RecordingTracer`
across a runnable slice of the E1 landscape grid and compares the *measured*
integer per-stage draws (partition / learn / sieve / χ²) against the
``algorithm1_budget`` closed form.  Because the sample ledger reconciles on
every exit path, the printed stage columns sum exactly to the total — the
table is an audit, not an estimate.

Shape checks encode the accounting contract:

* every grid point's total stays within the closed-form budget
  (utilisation ≤ 1 — the cap the ledger enforces);
* the sieve dominates the draw budget (it is the Θ(√n·k/ε² + k²/ε⁴) term);
* one trace file is written and re-validated against the JSONL schema.

Also measures the tracer-off wall-clock of one standard tester call
(median of ``--reps``), which the regression gate holds against the
committed baseline (``baselines/BENCH_e23_baseline.json``, the median of
nine real ``--smoke`` runs): the no-op tracer must keep the instrumented
pipeline within 5% of it (× ``REPRO_PERF_FACTOR`` headroom for slower
hosts).

Emits ``BENCH_e23.json`` and ``TRACE_e23.jsonl``, gated by
``PYTHONPATH=src python benchmarks/gate.py BENCH_e23.json``.

Usage::

    python benchmarks/bench_e23_observability.py [--smoke]
        [--reps R] [--json PATH] [--trace PATH]
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import CONFIG, EPS, K, N, check, write_bench_json

from repro.core.budget import algorithm1_budget
from repro.core.tester import test_histogram
from repro.distributions import families
from repro.experiments.report import print_experiment
from repro.observability.trace import (
    NULL_TRACER,
    RecordingTracer,
    validate_trace,
    write_jsonl,
)

SEED = 23
FULL_GRID = [(n, k) for n in (1_000, 4_000, 16_000) for k in (2, 8)]
SMOKE_GRID = [(1_000, 2), (4_000, 4)]
STAGES = ("partition", "learn", "sieve", "check", "chi2", "plugin")


def breakdown_row(n: int, k: int) -> list:
    dist = families.staircase(n, k).to_distribution()
    tracer = RecordingTracer()
    verdict = test_histogram(dist, k, EPS, config=CONFIG, rng=SEED, trace=tracer)
    budget = algorithm1_budget(n, k, EPS, config=CONFIG)
    util = verdict.samples_used / budget if budget else 0.0
    per_stage = [verdict.stage_samples.get(s, 0) for s in STAGES]
    return [n, k, *per_stage, verdict.samples_used, int(budget), round(util, 4)]


def time_tester(reps: int) -> tuple[float, float]:
    """(tracer-off, tracer-on) median seconds of one standard tester call."""
    dist = families.staircase(N, K).to_distribution()

    def once(tracer) -> float:
        start = time.perf_counter()
        test_histogram(dist, K, EPS, config=CONFIG, rng=SEED, trace=tracer)
        return time.perf_counter() - start

    off = statistics.median(once(NULL_TRACER) for _ in range(reps))
    on = statistics.median(once(RecordingTracer()) for _ in range(reps))
    return off, on


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small CI grid")
    parser.add_argument("--reps", type=int, default=None,
                        help="timing repetitions (default 5; smoke 3)")
    parser.add_argument("--json", default=None, metavar="PATH")
    parser.add_argument("--trace", default="TRACE_e23.jsonl", metavar="PATH")
    args = parser.parse_args(argv)
    grid = SMOKE_GRID if args.smoke else FULL_GRID
    reps = args.reps if args.reps is not None else (3 if args.smoke else 5)

    rows = [breakdown_row(n, k) for n, k in grid]
    columns = ["n", "k", *STAGES, "total", "budget(Thm 3.1)", "utilisation"]
    print_experiment(
        f"E23: integer per-stage draws vs algorithm1_budget, eps={EPS}",
        columns,
        rows,
    )

    utils = [row[-1] for row in rows]
    check("all points within the closed-form budget", all(u <= 1.0 for u in utils))
    # Dominance only applies to full-pipeline points; k·log k/ε ≈ n points
    # route to the plug-in fallback (the whole point of the plugin column).
    sieve_share = [
        row[2 + STAGES.index("sieve")] / row[-3]
        for row in rows
        if row[2 + STAGES.index("plugin")] == 0
    ]
    check("sieve dominates the full-pipeline draw budget",
          all(s >= 0.5 for s in sieve_share))

    # One trace file for the schema gate: re-run the first grid point traced.
    n, k = grid[0]
    tracer = RecordingTracer()
    test_histogram(
        families.staircase(n, k).to_distribution(), k, EPS,
        config=CONFIG, rng=SEED, trace=tracer,
    )
    write_jsonl(args.trace, tracer.export())
    events = validate_trace(args.trace)
    print(f"  wrote {args.trace} ({events} events, schema-valid)")
    check("trace has a ledger event", any(
        e.name.endswith("ledger") for e in tracer.events
    ))

    off, on = time_tester(reps)
    print(f"  tester wall clock: tracer off {off:.3f}s, recording {on:.3f}s "
          f"(median of {reps})")

    write_bench_json(
        "e23",
        params={"grid": grid, "eps": EPS, "seed": SEED, "smoke": args.smoke,
                "reps": reps, "timing_point": {"n": N, "k": K}},
        columns=columns,
        rows=rows,
        metrics={
            "tracer_off_seconds": off,
            "tracer_on_seconds": on,
            "trace_file": str(args.trace),
            "trace_events": events,
            "max_utilisation": max(utils),
        },
        path=args.json,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
