"""E27 — distributed sweep under a seeded kill schedule.

Runs the same complexity sweep twice: serially through
``complexity_sweep``, and distributed over a supervised fleet of worker
subprocesses coordinating through the crash-consistent sqlite results
store (:mod:`repro.distributed`) while a deterministic
:class:`~repro.distributed.chaos.ChaosSchedule` kills workers after they
compute but before they commit, stalls them past their lease deadlines,
and replays duplicate completions.  The numbers the regression gate
watches:

* **byte identity** — assembled points, fitted exponent, and the canonical
  trace must equal the serial run's exactly (no tolerance, no perf
  factor: distribution is an execution knob, never an identity knob);
* **zero drift** — every committed ``samples_total`` must equal the total
  recomputed from that shard's stored trace ledger events;
* **recovery** — the kill schedule must actually fire (≥1 worker restart)
  and the sweep must still finish every shard exactly once;
* **wall clock** — distributed wall seconds, gated within
  ``REPRO_PERF_FACTOR×`` of the committed baseline (the one hardware-
  dependent number here).

Emits ``BENCH_e27.json`` (gated by ``check_distributed_regression.py``
against ``baselines/BENCH_e27_baseline.json``).

Usage::

    python benchmarks/bench_e27_distributed.py [--smoke]
        [--processes P] [--json PATH]
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import check, write_bench_json

from repro.distributed import (
    ChaosSchedule,
    SweepSpec,
    assemble,
    create_store,
    run_fleet,
    summarize,
)
from repro.experiments.report import print_experiment
from repro.experiments.sweeps import complexity_sweep
from repro.observability.trace import RecordingTracer, canonical_jsonl

SEED = 7
#: Seed 5 at rate 0.6 deterministically kills w0 on its first shard and
#: gives w1 a late commit + a duplicate completion — one of each fault
#: class per run, so no gate is ever vacuously green.
CHAOS = ChaosSchedule(seed=5, rate=0.6, max_actions=2, stall_seconds=0.1)


def spec_for(smoke: bool) -> SweepSpec:
    values = (32.0, 48.0, 64.0, 80.0) if smoke else (32.0, 48.0, 64.0, 96.0, 128.0, 192.0)
    trials = 2 if smoke else 6
    return SweepSpec(
        axis="n", values=values, n=int(values[-1]), k=3, eps=0.3,
        trials=trials, bisection_steps=1 if smoke else 3, seed=SEED,
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small CI grid")
    parser.add_argument("--processes", type=int, default=2)
    parser.add_argument("--json", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    spec = spec_for(args.smoke)

    serial_tracer = RecordingTracer()
    start = time.perf_counter()
    serial = complexity_sweep(
        spec.axis, list(spec.values), n=spec.n, k=spec.k, eps=spec.eps,
        trials=spec.trials, bisection_steps=spec.bisection_steps,
        rng=spec.seed, trace=serial_tracer,
    )
    wall_serial = time.perf_counter() - start
    serial_trace = canonical_jsonl(serial_tracer.events)

    with tempfile.TemporaryDirectory() as tmp:
        store = create_store(Path(tmp) / "sweep.sqlite", spec)
        start = time.perf_counter()
        fleet = run_fleet(
            store, processes=args.processes, lease_seconds=1.0,
            chaos=CHAOS, timeout=600,
        )
        wall_distributed = time.perf_counter() - start
        tracer = RecordingTracer()
        result = assemble(store, trace=tracer)
        report = summarize(store)
        tally = store.event_tally()
        store.close()

    byte_identical = (
        result.points == serial.points
        and result.exponent == serial.exponent
        and canonical_jsonl(tracer.events) == serial_trace
    )
    drift_zero = report.total_drift == 0 and all(
        s.drift == 0 for s in report.shards
    )

    rows = [
        [s.index, s.worker_id, s.committed_samples, s.drift]
        for s in report.shards
    ]
    print_experiment(
        f"E27: {len(spec.values)}-shard distributed sweep, "
        f"{args.processes} workers, seeded kill schedule",
        ["shard", "committed by", "samples", "drift"],
        rows,
    )
    print(f"  serial wall   : {wall_serial:.3f}s")
    print(f"  fleet wall    : {wall_distributed:.3f}s "
          f"({fleet.workers_spawned} spawned, {fleet.restarts} restarts)")
    print(f"  events        : " + "  ".join(
        f"{k}={v}" for k, v in sorted(tally.items()) if v))

    check("assembled sweep byte-identical to serial", byte_identical)
    check("zero sample-accounting drift", drift_zero)
    check("kill schedule fired (>=1 restart)", fleet.restarts >= 1)
    check("every shard committed exactly once",
          tally["commit"] == len(spec.values))
    check("faults were absorbed (expiry or duplicate recorded)",
          tally["expire"] + tally["duplicate"] >= 1)

    write_bench_json(
        "e27",
        params={
            "axis": spec.axis, "values": list(spec.values), "n": spec.n,
            "k": spec.k, "eps": spec.eps, "trials": spec.trials,
            "bisection_steps": spec.bisection_steps, "seed": SEED,
            "processes": args.processes, "chaos_seed": CHAOS.seed,
            "chaos_rate": CHAOS.rate,
        },
        columns=["shard", "committed_by", "samples", "drift"],
        rows=rows,
        metrics={
            "wall_serial_seconds": round(wall_serial, 3),
            "wall_distributed_seconds": round(wall_distributed, 3),
            "byte_identical": byte_identical,
            "total_drift": report.total_drift,
            "restarts": fleet.restarts,
            "workers_spawned": fleet.workers_spawned,
            "commits": tally["commit"],
            "duplicates": tally["duplicate"],
            "expiries": tally["expire"],
            "shards": len(spec.values),
        },
        path=args.json,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
