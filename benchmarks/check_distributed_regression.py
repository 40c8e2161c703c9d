"""CI distributed-smoke gate: byte identity, accounting, recovery, wall clock.

Compares a freshly produced ``BENCH_e27.json`` (see
``bench_e27_distributed.py``) against
``benchmarks/baselines/BENCH_e27_baseline.json``.  Four gates:

* **byte identity** — the fleet-assembled sweep (points, exponent,
  canonical trace) must equal the serial run's.  Takes no perf factor:
  distribution may never change an answer, only how fast it arrives;
* **accounting** — ``total_drift`` must be exactly 0 and every shard must
  have committed exactly once.  Also factor-free;
* **recovery** — the seeded kill schedule must have fired (≥1 restart)
  and been absorbed (≥1 expiry or duplicate recorded) — a green run in
  which no fault ever happened proves nothing;
* **wall clock** — fresh ``wall_distributed_seconds`` must stay below
  ``factor ×`` the baseline (default factor 2.0; the baseline is a real
  smoke run, not padded, so a slower host raises the factor).

``REPRO_PERF_FACTOR`` overrides ``--factor`` (e.g. a known-slow runner).

Usage::

    python benchmarks/check_distributed_regression.py BENCH_e27.json
        [--baseline PATH] [--factor 2.0]
"""

import argparse
import json
import os
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent / "baselines" / "BENCH_e27_baseline.json"


def load(path: "str | Path") -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if "metrics" not in data or "bench" not in data:
        raise SystemExit(f"{path}: not a BENCH_*.json payload")
    return data


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly produced BENCH_e27.json")
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
    fm, bm = fresh["metrics"], base["metrics"]

    if fm.get("byte_identical", False):
        print("identity gate  : assembled sweep byte-identical to serial  ok")
    else:
        print("identity gate  : assembled sweep DIFFERS from serial  REGRESSION")
        failures.append("byte-identity")

    drift = fm.get("total_drift", None)
    commits, shards = fm.get("commits", -1), fm.get("shards", -2)
    if drift == 0 and commits == shards:
        print(f"accounting gate: drift=0, {commits}/{shards} shards committed  ok")
    else:
        print(f"accounting gate: drift={drift}, commits={commits}/{shards}  REGRESSION")
        failures.append("accounting")

    restarts = fm.get("restarts", 0)
    absorbed = fm.get("expiries", 0) + fm.get("duplicates", 0)
    if restarts >= 1 and absorbed >= 1:
        print(f"recovery gate  : {restarts} restarts, {absorbed} faults absorbed  ok")
    else:
        print(f"recovery gate  : restarts={restarts}, absorbed={absorbed} "
              "(kill schedule never fired)  REGRESSION")
        failures.append("recovery")

    ceiling = factor * bm["wall_distributed_seconds"]
    got = fm.get("wall_distributed_seconds", float("inf"))
    verdict = "ok" if got <= ceiling else "REGRESSION"
    print(f"wall-clock gate: {got:7.2f}s vs ceiling {ceiling:7.2f}s  {verdict}")
    if got > ceiling:
        failures.append("wall-clock")

    if failures:
        print(f"FAIL: {failures}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
