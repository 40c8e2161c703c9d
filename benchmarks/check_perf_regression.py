"""CI perf-smoke gate: fail on >2x regression vs the committed baseline.

Compares a freshly produced ``BENCH_e22.json`` (see
``bench_e22_projection_scaling.py``) against
``benchmarks/baselines/BENCH_e22_baseline.json``.  Two gates:

* **throughput** — for every domain size the baseline covers, the fresh
  fast-engine time (``fast_seconds_by_n``) and dense cost-matrix time
  (``dense_seconds_by_n``) must each stay within ``--factor`` (default
  2.0) of the baseline's.  The dense times are a real smoke run (see the
  note inside the baseline file), so the per-piece cost fold cannot be
  quietly undone;
* **correctness** — wherever the fresh run compared engines, the max
  fast-vs-dense discrepancy must stay <= 1e-12 (this one has no factor:
  golden equivalence never regresses).

``REPRO_PERF_FACTOR`` overrides ``--factor`` (e.g. a known-slow runner).

Usage::

    python benchmarks/check_perf_regression.py BENCH_e22.json
        [--baseline PATH] [--factor 2.0]
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent / "baselines" / "BENCH_e22_baseline.json"


def load(path: "str | Path") -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if "metrics" not in data or "bench" not in data:
        raise SystemExit(f"{path}: not a BENCH_*.json payload")
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly produced BENCH_e22.json")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--factor", type=float, default=None,
                        help="allowed slowdown vs baseline (default 2.0)")
    args = parser.parse_args(argv)

    factor = args.factor
    if factor is None:
        factor = float(os.environ.get("REPRO_PERF_FACTOR", "2.0"))
    if factor <= 0:
        raise SystemExit(f"factor must be positive, got {factor}")

    fresh, base = load(args.fresh), load(args.baseline)
    if fresh["bench"] != base["bench"]:
        raise SystemExit(
            f"bench mismatch: fresh={fresh['bench']!r} baseline={base['bench']!r}"
        )

    failures = []
    for engine in ("fast", "dense"):
        key = f"{engine}_seconds_by_n"
        base_times = base["metrics"].get(key, {})
        fresh_times = fresh["metrics"].get(key, {})
        shared = sorted(set(base_times) & set(fresh_times), key=int)
        if not shared:
            raise SystemExit(f"no shared {engine} domain sizes between fresh run and baseline")
        print(f"{engine} perf gate: fresh <= {factor:g}x baseline ({len(shared)} sizes)")
        for n in shared:
            allowed = factor * base_times[n]
            got = fresh_times[n]
            verdict = "ok" if got <= allowed else "REGRESSION"
            print(f"  n={n:>6}: {got:8.3f}s vs allowed {allowed:8.3f}s  {verdict}")
            if got > allowed:
                failures.append(f"{engine}-{n}")

    diff = fresh["metrics"].get("max_engine_diff", math.nan)
    if not math.isnan(diff):
        print(f"correctness gate: max engine diff {diff:.3g} (<= 1e-12)")
        if diff > 1e-12:
            failures.append("engine-diff")

    if failures:
        print(f"FAIL: {failures}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
