"""Command-line interface: ``python -m repro <command> …``.

Six subcommands mirroring the library's main entry points:

* ``test``    — run Algorithm 1 on a named workload (``--trace`` writes the
  structured span trace as JSONL);
* ``closeness`` — run the two-sample closeness tester (DKN17 reduction) on
  a named paired workload;
* ``select``  — model selection (smallest ε-sufficient k) on a workload;
* ``budget``  — print the sample-budget landscape for given (n, k, ε);
* ``sweep``   — empirical sample-complexity sweep along one axis, with
  ``--store``/``--resume`` for interruption-safe long runs drained by
  ``--worker-procs`` worker processes;
* ``bench``   — repeated-trial acceptance benchmark of Algorithm 1 on a
  named workload, fanned out over ``--workers`` processes (results are
  bit-identical to serial; ``--compare-serial`` verifies and reports the
  speedup);
* ``serve``   — drive the always-on multi-session service over a
  deterministic request population (``--chaos`` injects the standard fault
  schedule; every session ends VERDICT/DEGRADED/EVICTED/REJECTED and the
  run replays byte-identically under a fixed seed; SIGTERM/SIGINT drain
  in-flight sessions and still emit the final report);
* ``worker``  — run one distributed-sweep worker against a results store
  (claim shards, heartbeat, commit idempotently; SIGTERM drains);
* ``report``  — inspect a results store: progress, per-worker stats, the
  fault audit log, and exact zero-drift sample accounting;
* ``trace``   — inspect a trace file (``summarize`` renders per-span
  aggregates, ``validate`` checks the JSONL schema and seq invariant).

``sweep --store`` persists the sweep in a crash-consistent sqlite store:
shards are enqueued into it and drained by ``--worker-procs`` supervised
worker processes forked from this one (or by separately launched ``repro worker`` processes on
other terminals/hosts sharing the file), or in-process with
``--worker-procs 1``; the assembled output is byte-identical to the
serial run.

All RNG seeding goes through :func:`repro.util.rng.ensure_rng` so every
entry point shares one seed-handling convention.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import OrderedDict
from typing import Sequence

from repro.core.backends import BACKENDS, DEFAULT_BACKEND, backend_budget
from repro.core.budget import budget_table_row
from repro.core.config import TesterConfig
from repro.core.tester import STAGE_ORDER, test_histogram
from repro.experiments.report import format_table
from repro.experiments.runner import acceptance_probability
from repro.experiments.sweeps import HistogramTester, complexity_sweep
from repro.experiments.workloads import REGISTRY, BoundWorkload, make
from repro.kernels import kernel_seconds_snapshot
from repro.learning.model_selection import select_k
from repro.observability.trace import (
    NULL_TRACER,
    RecordingTracer,
    read_jsonl,
    validate_trace,
    write_jsonl,
)
from repro.util.rng import ensure_rng


def _add_common(
    parser: argparse.ArgumentParser, *, backends: Sequence[str] = BACKENDS
) -> None:
    parser.add_argument("--n", type=int, default=10_000, help="domain size")
    parser.add_argument("--k", type=int, default=8, help="histogram pieces")
    parser.add_argument("--eps", type=float, default=0.25, help="TV proximity")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--profile",
        choices=["practical", "paper"],
        default="practical",
        help="constant profile (paper = literal worst-case constants)",
    )
    parser.add_argument(
        "--backend",
        choices=list(backends),
        default=DEFAULT_BACKEND,
        help="tester backend (changes budgets and verdicts; part of sweep "
        "fingerprints)",
    )


def _add_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the structured span trace to this JSONL file "
        "(inspect with `repro trace summarize PATH`)",
    )


def _config(args: argparse.Namespace) -> TesterConfig:
    return TesterConfig.paper() if args.profile == "paper" else TesterConfig.practical()


def _stage_rows(verdict) -> list[str]:
    """Stage names from *both* audit dicts, in stable pipeline order.

    A stage can legitimately appear in only one dict (e.g. a timing with no
    samples attributed, or vice versa), so iterate the key union rather than
    either dict alone — otherwise rows silently vanish from the table.
    """
    union = set(verdict.stage_timings) | set(verdict.stage_samples)
    ordered = [s for s in STAGE_ORDER if s in union]
    ordered += sorted(union - set(STAGE_ORDER))  # future-proof: unknown stages last
    return ordered


def _print_stage_table(verdict) -> None:
    """Per-stage samples and wall-clock seconds from a Verdict's audit trail."""
    for stage in _stage_rows(verdict):
        used = verdict.stage_samples.get(stage)
        secs = verdict.stage_timings.get(stage)
        used_s = f"{used:>14,}" if used is not None else f"{'—':>14}"
        secs_s = f"{secs:>9.4f}s" if secs is not None else f"{'—':>10}"
        print(f"  {stage:<10}: {used_s} samples  {secs_s}")


def _print_kernel_table() -> None:
    """Per-op dispatch accounting from the metrics registry: how many times
    each hot loop ran, and for how long."""
    print("kernel dispatches (op / calls / seconds):")
    rows = kernel_seconds_snapshot()
    if not rows:
        print("  (no kernel dispatches recorded)")
        return
    for op, _kernel, calls, seconds in rows:
        print(f"  {op:<28} {calls:>9,} calls  {seconds:>9.4f}s")


def _cmd_test(args: argparse.Namespace) -> int:
    dist = make(args.workload, args.n, args.k, args.eps, rng=ensure_rng(args.seed))
    tracer = RecordingTracer() if args.trace else NULL_TRACER
    verdict = test_histogram(
        dist, args.k, args.eps, config=_config(args), rng=args.seed + 1,
        backend=args.backend, trace=tracer,
    )
    print(f"workload  : {args.workload} ({REGISTRY[args.workload].nature})")
    print(f"backend   : {args.backend}")
    print(f"verdict   : {'ACCEPT' if verdict.accept else 'REJECT'} (stage: {verdict.stage})")
    print(f"reason    : {verdict.reason}")
    print(f"samples   : {verdict.samples_used:,}")
    _print_stage_table(verdict)
    if args.stage_timings:
        _print_kernel_table()
    if args.trace:
        write_jsonl(args.trace, tracer.export())
        print(f"trace     : {args.trace} ({len(tracer.events)} events)")
    return 0


def _cmd_closeness(args: argparse.Namespace) -> int:
    from repro.core.closeness import closeness_budget, test_closeness
    from repro.experiments.workloads import CLOSENESS_REGISTRY, make_pair

    try:
        p, q = make_pair(args.workload, args.n, args.k, args.eps, rng=ensure_rng(args.seed))
    except ValueError as exc:
        print(
            f"error: cannot build workload {args.workload} at n={args.n}, "
            f"k={args.k}, eps={args.eps}: {exc}",
            file=sys.stderr,
        )
        return 2
    tracer = RecordingTracer() if args.trace else NULL_TRACER
    verdict = test_closeness(
        p, q, args.k, args.eps, config=_config(args), rng=args.seed + 1, trace=tracer
    )
    nature = CLOSENESS_REGISTRY[args.workload].nature
    print(f"workload  : {args.workload} ({nature})")
    print(f"verdict   : {'ACCEPT' if verdict.accept else 'REJECT'} (stage: {verdict.stage})")
    print(f"reason    : {verdict.reason}")
    print(f"samples   : {verdict.samples_used:,} "
          f"(p: {verdict.samples_p:,}, q: {verdict.samples_q:,})")
    budget = closeness_budget(args.n, args.k, args.eps, config=_config(args))
    print(f"budget    : {budget:,.0f} (worst case, both streams)")
    _print_stage_table(verdict)
    if args.stage_timings:
        _print_kernel_table()
    if args.trace:
        write_jsonl(args.trace, tracer.export())
        print(f"trace     : {args.trace} ({len(tracer.events)} events)")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    dist = make(args.workload, args.n, args.k, args.eps, rng=args.seed)
    result = select_k(
        dist, args.eps, k_max=args.k_max, repeats=args.repeats,
        config=_config(args), rng=args.seed + 1, backend=args.backend,
    )
    print(f"workload   : {args.workload}")
    print(f"selected k : {result.k}")
    print(f"probes     : {sorted(result.accepted_trace)}")
    print(f"samples    : {result.samples_used:,.0f}")
    print(f"summary    : {result.histogram.num_pieces} pieces")
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    row = budget_table_row(args.n, args.k, args.eps)
    config = _config(args)
    print(
        format_table(
            ["quantity", "samples"],
            [
                ["this paper (Thm 1.1)", row["this_paper_ub"]],
                ["lower bound (Thm 1.2)", row["lower_bound"]],
                ["ILR12", row["ilr12"]],
                ["CDGR16", row["cdgr16"]],
                ["learn offline", row["learn_offline"]],
            ]
            + [
                [f"{backend} worst case ({args.profile})",
                 int(backend_budget(backend, args.n, args.k, args.eps, config))]
                for backend in BACKENDS
            ],
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    workload = BoundWorkload(args.workload, args.n, args.k, args.eps)
    tester = HistogramTester(args.k, args.eps, _config(args), args.backend)

    def timed(workers: int | None):
        start = time.perf_counter()
        estimate = acceptance_probability(
            workload, tester, trials=args.trials, rng=args.seed, workers=workers
        )
        return estimate, time.perf_counter() - start

    estimate, elapsed = timed(args.workers)
    print(f"workload  : {args.workload} (n={args.n}, k={args.k}, eps={args.eps})")
    print(f"workers   : {args.workers if args.workers is not None else 1}")
    print(f"estimate  : {estimate}")
    print(f"wall time : {elapsed:.2f}s ({args.trials / elapsed:.1f} trials/s)")
    if args.stage_timings:
        # One representative in-process trial — aggregated parallel trials
        # don't surface Verdict audit fields, so profile a single run.
        gen = ensure_rng(args.seed)
        verdict = test_histogram(
            workload(gen), args.k, args.eps, config=_config(args),
            rng=args.seed, backend=args.backend,
        )
        print(f"stage timings (1 representative trial, backend={args.backend}):")
        _print_stage_table(verdict)
        _print_kernel_table()
    if args.compare_serial:
        serial_estimate, serial_elapsed = timed(None)
        identical = serial_estimate == estimate
        print(f"serial    : {serial_elapsed:.2f}s "
              f"(speedup {serial_elapsed / elapsed:.2f}x, "
              f"results {'identical' if identical else 'DIFFER'})")
        if not identical:
            print("error     : parallel result differs from serial — "
                  "determinism contract violated", file=sys.stderr)
            return 1
    return 0


def _print_sweep_result(args: argparse.Namespace, result) -> None:
    rows = [
        [getattr(p, result.axis), p.estimate.samples, p.estimate.scale,
         p.estimate.evaluations]
        for p in result.points
    ]
    print(
        format_table(
            [result.axis, "samples/trial", "budget scale", "evaluations"], rows
        )
    )
    print(f"fitted exponent: {result.exponent:.3f}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise SystemExit("--values must name at least one axis value")
    tracer = RecordingTracer() if args.trace else NULL_TRACER
    fleet = None
    if args.store and args.worker_procs != 1:
        from repro.distributed import SweepSpec, distributed_sweep

        spec = SweepSpec(
            axis=args.axis,
            values=tuple(values),
            n=args.n,
            k=args.k,
            eps=args.eps,
            trials=args.trials,
            bisection_steps=args.bisection_steps,
            seed=args.seed,
            backend=args.backend,
            task=args.task,
            config=_config(args),
        )
        result, fleet = distributed_sweep(
            spec,
            args.store,
            processes=args.worker_procs,
            lease_seconds=args.lease_seconds,
            resume=args.resume,
            trace=tracer,
        )
    else:
        result = complexity_sweep(
            args.axis,
            values,
            n=args.n,
            k=args.k,
            eps=args.eps,
            config=_config(args),
            trials=args.trials,
            bisection_steps=args.bisection_steps,
            rng=args.seed,
            checkpoint=args.store,
            resume=args.resume,
            backend=args.backend,
            task=args.task,
            trace=tracer,
        )
    _print_sweep_result(args, result)
    if args.store:
        print(f"store          : {args.store}")
    if fleet is not None:
        print(f"fleet          : {fleet.workers_spawned} worker(s), "
              f"{fleet.restarts} restart(s), {fleet.leases_expired} lease "
              f"expiries, {fleet.wall_seconds:.2f}s wall")
    if args.trace:
        write_jsonl(args.trace, tracer.export())
        print(f"trace          : {args.trace} ({len(tracer.events)} events)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ChaosConfig, ServiceConfig, TesterService, build_requests

    chaos = ChaosConfig(
        sessions=args.sessions,
        n=args.n,
        k=args.k,
        eps=args.eps,
        fault_rate=args.fault_rate if args.chaos else 0.0,
        seed=args.seed,
        backend=args.backend,
    )
    service = TesterService(ServiceConfig(tester=_config(args)))
    # SIGTERM/SIGINT drain: in-flight sessions finish, the queue is shed,
    # and the final (reconciled) report below is still written.
    service.install_signal_handlers()
    for request in build_requests(chaos):
        service.submit(request)
    report = service.run()
    counts = report.counts()
    print(f"sessions  : {args.sessions} "
          f"(chaos fault rate {chaos.fault_rate:.0%})")
    if report.drained:
        print("drained   : yes (shutdown signal; queue shed, in-flight finished)")
    print(f"rounds    : {report.rounds}")
    print(f"outcomes  : " + "  ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    rate = len(report.outcomes) / report.wall_seconds if report.wall_seconds else 0.0
    print(f"throughput: {rate:.1f} sessions/s ({report.wall_seconds:.2f}s wall)")
    degraded = [o for o in report.outcomes if o.state == "DEGRADED"]
    for outcome in degraded:
        print(f"  degraded  {outcome.request_id}: {outcome.degraded_mode} "
              f"(confidence {outcome.confidence:.3g})")
    evicted = [o for o in report.outcomes if o.state == "EVICTED"]
    for outcome in evicted:
        print(f"  evicted   {outcome.request_id}: {outcome.reason}")
    if args.report:
        from repro.util.atomicio import atomic_write_text

        atomic_write_text(args.report, report.canonical_json())
        print(f"report    : {args.report}")
    if args.trace_dir:
        import os

        os.makedirs(args.trace_dir, exist_ok=True)
        for request_id, events in sorted(service.session_traces.items()):
            write_jsonl(os.path.join(args.trace_dir, f"{request_id}.jsonl"), events)
        print(f"traces    : {args.trace_dir} "
              f"({len(service.session_traces)} session files)")
    if args.metrics:
        from repro.observability.metrics import get_metrics

        for key, value in get_metrics().snapshot().items():
            print(f"  metric    {key} = {value}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed import ChaosSchedule
    from repro.distributed.worker import WorkerOptions, worker_main

    chaos = None
    if args.chaos_rate > 0.0:
        actions = tuple(a for a in args.chaos_actions.split(",") if a.strip())
        chaos = ChaosSchedule(
            seed=args.chaos_seed,
            rate=args.chaos_rate,
            actions=actions,
            max_actions=args.chaos_max_actions,
            stall_seconds=args.chaos_stall,
        )
    options = WorkerOptions(
        worker_id=args.worker_id,
        lease_seconds=args.lease_seconds,
        poll_seconds=args.poll_seconds,
        max_shards=args.max_shards,
        chaos=chaos,
    )
    worker_main(args.store, options)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.distributed import ResultsStore, format_report, summarize
    from repro.distributed.report import report_json

    store = ResultsStore(args.store)
    try:
        report = summarize(store)
        if args.json:
            print(report_json(report))
        else:
            print(format_report(report))
            if args.events:
                print("audit log:")
                for event in store.events():
                    detail = f" — {event['detail']}" if event["detail"] else ""
                    print(f"  [{event['seq']:>4}] {event['kind']:<10} "
                          f"shard={str(event['shard_id'])[:12]} "
                          f"worker={event['worker_id']}{detail}")
        return 0 if report.total_drift == 0 else 1
    finally:
        store.close()


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.action == "validate":
        count = validate_trace(args.file)
        print(f"{args.file}: OK ({count} events)")
        return 0

    events = read_jsonl(args.file)
    # Aggregate per span/event name: occurrences, samples drawn, wall clock.
    agg: "OrderedDict[str, dict]" = OrderedDict()
    ledgers = []
    for event in events:
        if event["kind"] == "event" and event["name"].split("/")[-1] == "ledger":
            ledgers.append(event["attrs"])
        row = agg.setdefault(
            event["name"], {"count": 0, "samples": 0, "secs": 0.0, "timed": False}
        )
        row["count"] += 1
        samples = event["attrs"].get("samples")
        if isinstance(samples, int) and not isinstance(samples, bool):
            row["samples"] += samples
        if event["duration_s"] is not None:
            row["secs"] += event["duration_s"]
            row["timed"] = True
    rows = [
        [name, r["count"], f"{r['samples']:,}",
         f"{r['secs']:.4f}" if r["timed"] else "—"]
        for name, r in agg.items()
    ]
    print(format_table(["span", "count", "samples", "seconds"], rows))
    if ledgers:
        total = sum(led.get("total", 0) for led in ledgers)
        print(f"ledger events  : {len(ledgers)} (reconciled; {total:,} samples total)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Testing histogram distributions (Canonne, PODS'16/'23).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the k-histogram tester on a workload")
    p_test.add_argument("workload", choices=sorted(REGISTRY), help="named workload")
    _add_common(p_test)
    p_test.add_argument(
        "--stage-timings",
        action="store_true",
        default=False,
        help="also print the per-op kernel dispatch breakdown (calls, seconds)",
    )
    _add_trace(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_close = sub.add_parser(
        "closeness",
        help="run the two-sample closeness tester on a paired workload",
    )
    from repro.experiments.workloads import CLOSENESS_REGISTRY

    p_close.add_argument(
        "workload", choices=sorted(CLOSENESS_REGISTRY), help="named paired workload"
    )
    p_close.add_argument("--n", type=int, default=10_000, help="domain size")
    p_close.add_argument("--k", type=int, default=8, help="histogram pieces")
    p_close.add_argument("--eps", type=float, default=0.25, help="TV proximity")
    p_close.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_close.add_argument(
        "--profile",
        choices=["practical", "paper"],
        default="practical",
        help="constant profile (paper = literal worst-case constants)",
    )
    p_close.add_argument(
        "--stage-timings",
        action="store_true",
        default=False,
        help="also print the per-op kernel dispatch breakdown",
    )
    _add_trace(p_close)
    p_close.set_defaults(func=_cmd_closeness)

    p_select = sub.add_parser("select", help="find the smallest eps-sufficient k")
    p_select.add_argument("workload", choices=sorted(REGISTRY))
    _add_common(p_select)
    p_select.add_argument("--k-max", type=int, default=256)
    p_select.add_argument("--repeats", type=int, default=3)
    p_select.set_defaults(func=_cmd_select)

    p_budget = sub.add_parser("budget", help="print the sample-budget landscape")
    _add_common(p_budget)
    p_budget.set_defaults(func=_cmd_budget)

    p_bench = sub.add_parser(
        "bench", help="repeated-trial acceptance benchmark with worker processes"
    )
    p_bench.add_argument("workload", choices=sorted(REGISTRY), help="named workload")
    _add_common(p_bench)
    p_bench.add_argument("--trials", type=int, default=200, help="independent trials")
    p_bench.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the trial loop "
        "(default serial; 0 = one per CPU; results identical at any count)",
    )
    p_bench.add_argument(
        "--compare-serial",
        action="store_true",
        default=False,
        help="rerun serially, report the speedup, and verify bit-identical results",
    )
    p_bench.add_argument(
        "--stage-timings",
        action="store_true",
        default=False,
        help="also profile one in-process trial and print per-stage "
        "wall-clock timings (partition/learn/sieve/check/chi2)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_sweep = sub.add_parser(
        "sweep", help="empirical sample-complexity sweep along one axis"
    )
    p_sweep.add_argument("axis", choices=["n", "k", "eps"], help="axis to sweep")
    p_sweep.add_argument(
        "--values",
        required=True,
        help="comma-separated axis values, e.g. 1000,2000,4000",
    )
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--task",
        choices=["identity", "closeness"],
        default="identity",
        help="tester under measurement: one-sample identity (Algorithm 1) "
        "or two-sample closeness (DKN17); fingerprint-bearing",
    )
    p_sweep.add_argument("--trials", type=int, default=9, help="trials per evaluation")
    p_sweep.add_argument(
        "--bisection-steps", type=int, default=5, help="budget-bisection refinements"
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        default=False,
        help="continue the --store sweep instead of starting it over "
        "(a store of a different sweep is refused)",
    )
    p_sweep.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="commit every point to this sqlite results store, drained by "
        "supervised worker processes (byte-identical to the serial run; "
        "inspect with `repro report`)",
    )
    p_sweep.add_argument(
        "--worker-procs",
        type=int,
        default=2,
        metavar="N",
        help="worker processes for --store mode (1 runs in-process)",
    )
    p_sweep.add_argument(
        "--lease-seconds",
        type=float,
        default=15.0,
        help="shard lease duration for --store mode (a worker silent this "
        "long is presumed dead and its shard re-dispatched)",
    )
    _add_trace(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_serve = sub.add_parser(
        "serve", help="run the always-on multi-session tester service"
    )
    p_serve.add_argument(
        "--sessions", type=int, default=40, help="number of stream sessions to submit"
    )
    # Serve additionally accepts "mixed": alternate backends per session to
    # drill the same-shape, different-backend batch-grouping path.
    _add_common(p_serve, backends=tuple(BACKENDS) + ("mixed",))
    p_serve.add_argument(
        "--chaos",
        action="store_true",
        default=False,
        help="replay the deterministic fault schedule over the session population",
    )
    p_serve.add_argument(
        "--fault-rate",
        type=float,
        default=0.1,
        help="fraction of sessions carrying an injected fault (with --chaos)",
    )
    p_serve.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the canonical JSON service report to this file",
    )
    p_serve.add_argument(
        "--trace-dir",
        default=None,
        metavar="PATH",
        help="write one JSONL trace file per session into this directory",
    )
    p_serve.add_argument(
        "--metrics",
        action="store_true",
        default=False,
        help="print the final metrics snapshot",
    )
    # Chaos-drill defaults: n=512 keeps the full pipeline (not the plugin
    # regime) in play, so every fault kind actually fires.
    p_serve.set_defaults(func=_cmd_serve, n=512, k=4, eps=0.3)

    p_worker = sub.add_parser(
        "worker", help="run one distributed-sweep worker against a results store"
    )
    p_worker.add_argument(
        "--store", required=True, metavar="PATH", help="sqlite results store"
    )
    p_worker.add_argument(
        "--worker-id", required=True, help="unique id for this worker process"
    )
    p_worker.add_argument("--lease-seconds", type=float, default=30.0)
    p_worker.add_argument("--poll-seconds", type=float, default=0.2)
    p_worker.add_argument(
        "--max-shards", type=int, default=None,
        help="exit after committing this many shards (default: run to finish)",
    )
    p_worker.add_argument("--chaos-seed", type=int, default=0)
    p_worker.add_argument(
        "--chaos-rate", type=float, default=0.0,
        help="per-claim fault-injection probability (0 disables chaos)",
    )
    p_worker.add_argument(
        "--chaos-actions",
        default="kill,late-commit,duplicate-commit,skip-heartbeat",
        help="comma-separated action pool for seeded chaos",
    )
    p_worker.add_argument("--chaos-stall", type=float, default=0.05)
    p_worker.add_argument("--chaos-max-actions", type=int, default=2)
    p_worker.set_defaults(func=_cmd_worker)

    p_report = sub.add_parser(
        "report", help="inspect a distributed-sweep results store"
    )
    p_report.add_argument(
        "--store", required=True, metavar="PATH", help="sqlite results store"
    )
    p_report.add_argument(
        "--json", action="store_true", default=False,
        help="emit the full report as JSON instead of text",
    )
    p_report.add_argument(
        "--events", action="store_true", default=False,
        help="also print the complete audit log",
    )
    p_report.set_defaults(func=_cmd_report)

    p_trace = sub.add_parser("trace", help="inspect a JSONL trace file")
    p_trace.add_argument(
        "action",
        choices=["summarize", "validate"],
        help="summarize: per-span aggregates; validate: schema + seq check",
    )
    p_trace.add_argument("file", help="trace file written by --trace")
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
