"""Compare benchmark runs of two commits, or summarise the runs of one.

    python3 bench/compare.py PARENT CHANGE
    python3 bench/compare.py RUNS [--save bench/results/seed.json]

A side is a directory of run records written by ``run.py --seed S``
(``run-<seed>.json``), read in file-name order.  The i-th records of the
two sides form pair i, so produce them alternating which side runs first.

For every (end-to-end metric, workload) the comparison prints each side's
median and quartiles and one decision, following the rule in the
choosing-metrics guide:

``regression``  the change's median is worse than the parent's by more than
                the metric's bound in ``BENCHMARK.json``;
``gain``        at least 10 pairs, the change wins at least 9 in 10 of them
                (ties count for neither), and the gap between the medians is
                larger than the parent's quartile distance;
``better``      every change run reads better than every parent run, but
                the gain rule is not met (too few pairs, or too small a gap);
``unresolved``  a side's spread (quartile distance / median) exceeds the
                bound;
``same``        otherwise.

It also reports whether same-seed runs produced identical outputs
(``outputs_digest``).  Exit status 1 on any regression or failed check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def decide(parent: list, change: list, bound: float, better: str) -> str:
    """The decision for one (metric, workload); see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "regression"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    q1, _, q3 = quartiles(parent)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (c_med - p_med) > q3 - q1
    ):
        return "gain"
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "better"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    return "same"


def load_side(path: "str | Path") -> list:
    path = Path(path)
    files = sorted(path.glob("run-*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"{path}: no run records")
    records = []
    for file in files:
        with open(file) as fh:
            records.append(json.load(fh))
    return records


def series(records: list, workload: str, section: str, metric: str) -> list:
    return [r["workloads"][workload][section][metric] for r in records]


def failed_checks(records: list) -> list:
    return [
        f"seed {r['seed']} {name}: correctness checks failed"
        for r in records
        for name, entry in r["workloads"].items()
        if not entry.get("correct", False)
    ]


def fmt(values: list) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:>11.5g} [{q1:.5g}, {q3:.5g}]"


def summarise(records: list, spec: dict) -> dict:
    """Medians and quartiles per (metric, workload) of one set of runs."""
    summary = {
        "host": records[0]["host"],
        "seconds": records[0]["seconds"],
        "seeds": [r["seed"] for r in records],
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        e2e = summary["end_to_end"][workload] = {}
        for metric in spec["end_to_end"]:
            values = series(records, workload, "end_to_end", metric["name"])
            q1, median, q3 = quartiles(values)
            e2e[metric["name"]] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread(values),
                "bound": metric["bound"],
                "unit": metric["unit"],
            }
        layers = summary["per_layer"][workload] = {}
        for metric in spec["per_layer"]:
            values = series(records, workload, "per_layer", metric["name"])
            if any(values):  # layers the workload never reaches read 0
                layers[metric["name"]] = {
                    "median": statistics.median(values),
                    "unit": metric["unit"],
                }
    return summary


def print_summary(summary: dict) -> None:
    print(f"{len(summary['seeds'])} runs, seeds {summary['seeds']}, host {summary['host']}")
    print(f"{'workload':<10} {'metric':<12} {'median [q1, q3]':>34} {'spread':>7} {'bound':>6}")
    for workload, metrics in summary["end_to_end"].items():
        for name, m in metrics.items():
            values = f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}] {m['unit']}"
            print(
                f"{workload:<10} {name:<12} {values:>34} {m['spread']:>7.3f} {m['bound']:>6.2f}"
            )


def compare(parent: list, change: list, spec: dict) -> bool:
    """Print the comparison table; True when there is no regression."""
    print(f"parent: {len(parent)} runs; change: {len(change)} runs")
    print(
        f"{'workload':<10} {'metric':<12} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'delta':>8}  decision"
    )
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = series(parent, workload, "end_to_end", name)
            c = series(change, workload, "end_to_end", name)
            verdict = decide(p, c, metric["bound"], metric["better"])
            ok = ok and verdict != "regression"
            delta = statistics.median(c) / statistics.median(p) - 1.0
            print(f"{workload:<10} {name:<12} {fmt(p):>34} {fmt(c):>34} {delta:>+8.1%}  {verdict}")
        same_seed = [
            (a, b)
            for a, b in zip(parent, change)
            if a["seed"] == b["seed"]
        ]
        if same_seed:
            identical = sum(
                a["workloads"][workload]["outputs_digest"] == b["workloads"][workload]["outputs_digest"]
                for a, b in same_seed
            )
            print(f"{workload:<10} outputs identical in {identical}/{len(same_seed)} same-seed pairs")
    return ok


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", help="run records of the parent (or the only side)")
    parser.add_argument("change", nargs="?", help="run records of the change")
    parser.add_argument("--save", type=Path, help="write the one-side summary as JSON")
    args = parser.parse_args(argv)
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    parent = load_side(args.parent)
    problems = failed_checks(parent)
    if args.change is None:
        summary = summarise(parent, spec)
        print_summary(summary)
        if args.save:
            args.save.parent.mkdir(parents=True, exist_ok=True)
            with open(args.save, "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
        ok = True
    else:
        change = load_side(args.change)
        problems += failed_checks(change)
        ok = compare(parent, change, spec)
    for problem in problems:
        print(problem)
    return 0 if ok and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
