"""E24 — service soak under a deterministic chaos schedule.

Drives the always-on tester service (:mod:`repro.serve`) through a chaos
drill: a population of concurrent stream sessions of which a configured
fraction carries an injected fault (stream failures, contamination, corrupt
samples, virtual-time deadlines, projection-engine faults — the full
:data:`repro.serve.chaos.FAULT_KINDS` cycle).  Measures the service-level
numbers the regression gate watches:

* **sessions/sec** — sustained terminal-outcome throughput of one run;
* **p99 verdict latency** — 99th percentile of per-session wall seconds
  from admission to retirement (observational; the canonical report
  excludes it, so it never affects replay identity);
* **degraded / evicted rates** under the fault schedule.

Shape checks encode the issue's acceptance criteria literally: zero
crashed sessions (the run completing *is* the check — session failures are
absorbed, programming errors propagate), every session terminal, every
ledger reconciling exactly, and two same-seed runs byte-identical.

Emits ``BENCH_e24.json`` (gated by ``python benchmarks/gate.py
BENCH_e24.json`` against ``baselines/BENCH_e24_baseline.json``).

Usage::

    python benchmarks/bench_e24_serve_chaos.py [--smoke]
        [--sessions S] [--fault-rate R] [--json PATH]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _common import WORKERS, check, write_bench_json

from repro.experiments.report import print_experiment
from repro.serve import ChaosConfig, ServiceConfig, TesterService, build_requests
from repro.serve.session import SessionState

SEED = 24
N, K, EPS = 512, 4, 0.3


def run_drill(config: ChaosConfig) -> tuple:
    """One full service run; returns (report, wall_seconds)."""
    service = TesterService(ServiceConfig(workers=WORKERS))
    for request in build_requests(config):
        service.submit(request)
    start = time.perf_counter()
    report = service.run()
    return report, time.perf_counter() - start


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small CI drill")
    # 50 sessions at 10% faults = 5 faulty sessions = one of each fault
    # kind, so the degraded-rate metric is never vacuously zero.
    parser.add_argument("--sessions", type=int, default=None,
                        help="population size (default 50; smoke 12)")
    parser.add_argument("--fault-rate", type=float, default=0.1)
    parser.add_argument("--json", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    sessions = args.sessions if args.sessions is not None else (12 if args.smoke else 50)

    config = ChaosConfig(
        sessions=sessions, n=N, k=K, eps=EPS,
        fault_rate=args.fault_rate, seed=SEED,
    )
    report, wall = run_drill(config)
    replay, _ = run_drill(config)

    counts = report.counts()
    total = len(report.outcomes)
    terminal = all(o.state in SessionState.TERMINAL for o in report.outcomes)
    ledgers_exact = all(
        o.samples_total == sum(o.attempt_samples) for o in report.outcomes
    )
    latencies = np.asarray([o.wall_seconds for o in report.outcomes])
    p99 = float(np.percentile(latencies, 99)) if total else 0.0
    throughput = total / wall if wall > 0 else 0.0
    degraded_rate = counts["DEGRADED"] / total if total else 0.0
    evicted_rate = counts["EVICTED"] / total if total else 0.0
    replay_identical = report.canonical_json() == replay.canonical_json()

    rows = [
        [state, counts[state], round(counts[state] / total, 4) if total else 0.0]
        for state in (*SessionState.TERMINAL, "REJECTED")
    ]
    print_experiment(
        f"E24: {sessions}-session chaos drill, fault rate "
        f"{config.fault_rate:.0%}, n={N}, k={K}, eps={EPS}",
        ["outcome", "count", "rate"],
        rows,
    )
    print(f"  wall          : {wall:.3f}s ({throughput:.1f} sessions/s)")
    print(f"  rounds        : {report.rounds}")
    print(f"  p99 latency   : {p99 * 1e3:.2f} ms")

    # The issue's acceptance criteria, as shape checks.
    check("all sessions reached a terminal state", terminal and total == sessions)
    check("every ledger reconciles exactly", ledgers_exact)
    check("same-seed replay is byte-identical", replay_identical)
    check("faults produced non-verdict outcomes",
          config.fault_rate == 0.0
          or counts["DEGRADED"] + counts["EVICTED"] > 0)
    check("healthy majority still gets verdicts",
          counts["VERDICT"] >= total // 2)

    write_bench_json(
        "e24",
        params={
            "sessions": sessions, "n": N, "k": K, "eps": EPS,
            "fault_rate": config.fault_rate, "seed": SEED,
            "workers": WORKERS,
        },
        columns=["outcome", "count", "rate"],
        rows=rows,
        metrics={
            "sessions_per_second": round(throughput, 2),
            "p99_latency_seconds": round(p99, 6),
            "degraded_rate": round(degraded_rate, 4),
            "evicted_rate": round(evicted_rate, 4),
            "rounds": report.rounds,
            "replay_identical": replay_identical,
        },
        path=args.json,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
