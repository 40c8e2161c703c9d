"""The repository benchmark.

One workload (prints metrics, then one JSON object as the last line of
standard output)::

    python3 bench/run.py --workload identity --seed 1 --seconds 15 --trace 0

Every workload, each in its own subprocess, timed and then traced; writes
``<out>/run-<seed>.json`` and one span trace per workload::

    python3 bench/run.py --seed 1

The layered profile of a trace (entry → layer → kernel op, with residuals)::

    python3 bench/run.py --summarize bench/out/trace-identity.jsonl

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from an
untraced, timed pass.  ``--trace 1`` reports its per-layer metrics from
traced passes over the first quarter of the same operations, each paired
with an untraced twin that prices the tracing.  The exit status is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = BENCH_DIR / "out"
#: Per-subprocess time limit in ``--seed`` mode.
WORKLOAD_TIMEOUT = 170

sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402  (after the path fix-up; imports no library code)


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def declared(spec: dict, trace: int) -> dict:
    """``name -> unit`` of the metrics a run in this mode must report."""
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def host() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def import_library():
    """Import the workloads (and with them the library under ``src/``);
    returns the module and the import time in seconds."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    import workloads

    where = Path(repro.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"imported repro from {where}, not from {ROOT / 'src'}")
    return workloads, time.perf_counter() - start


def run_workload(args: argparse.Namespace) -> int:
    """One workload in this process: metrics lines, then the result JSON."""
    spec = load_spec()
    units = declared(spec, args.trace)
    workloads, import_s = import_library()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload](args.seed, args.out)
    try:
        if args.trace:
            w.setup()
            metrics, rounds, recorder = workloads.traced_run(w, args.seconds)
            problems = spans.structure_problems(recorder.spans)
            w.problems.extend(f"{args.workload}: trace: {p}" for p in problems[:5])
            args.out.mkdir(parents=True, exist_ok=True)
            trace_path = args.out / f"trace-{args.workload}.jsonl"
            spans.write_jsonl(trace_path, recorder.spans)
            print(f"trace: {trace_path} ({len(recorder.spans)} spans)")
        else:
            setup_s = import_s + workloads.setup_seconds(w)
            metrics, rounds = workloads.timed_run(w, args.seconds)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        w.close()
    undeclared = set(metrics) - set(units)
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    if args.trace:
        # A layer this workload never reaches did no work: it reads 0.
        metrics = {name: metrics.get(name, 0.0) for name in units}
    elif set(metrics) != set(units):
        raise SystemExit(f"end-to-end metrics not computed: {sorted(set(units) - set(metrics))}")
    for problem in w.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"outputs_digest: {hashlib.sha256(rounds[0].digest.encode()).hexdigest()}")
    for name in units:
        print(f"  {name:<42} {metrics[name]:>16.6g} {units[name]}")
    result = {
        "correct": not w.problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own subprocess, timed then traced."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    record = {"seed": args.seed, "seconds": args.seconds, "host": host(), "workloads": {}}
    ok = True
    for name in names:
        entry = record["workloads"][name] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(args.out),
            ]  # fmt: skip
            print(f"== {name} --trace {trace}", flush=True)
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.stderr.strip():
                print(proc.stderr.strip(), file=sys.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name}: no result (exit {proc.returncode})")
                ok = False
                continue
            digest = next(
                line.split(":", 1)[1].strip()
                for line in lines
                if line.startswith("outputs_digest:")
            )
            if entry.setdefault("outputs_digest", digest) != digest:
                print(f"{name}: outputs differ between the timed and traced runs")
                ok = False
            entry[key] = {m: v["value"] for m, v in result["metrics"].items()}
            entry["correct"] = entry.get("correct", True) and result["correct"]
            entry["attempted"] = entry.get("attempted", 0) + result["attempted"]
            entry["failed"] = entry.get("failed", 0) + result["failed"]
            ok = ok and result["correct"] and proc.returncode == 0
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"run-{args.seed}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(f"wrote {path}; {'all checks passed' if ok else 'SOME CHECKS FAILED'}")
    return 0 if ok else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per run (default: run_seconds of BENCHMARK.json)",
    )  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="traces and run records")
    parser.add_argument("--summarize", metavar="TRACE", help="render a trace file's profile")
    args = parser.parse_args(argv)
    if args.summarize:
        print(spans.render(spans.read_jsonl(args.summarize)))
        return 0
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
