"""CI serve-smoke gate: service throughput, tail latency, and determinism.

Compares a freshly produced ``BENCH_e24.json`` (see
``bench_e24_serve_chaos.py``) against
``benchmarks/baselines/BENCH_e24_baseline.json``.  Three gates:

* **throughput** — fresh ``sessions_per_second`` must stay above
  ``baseline / factor`` (default factor 2.0; the baseline is the
  unpadded median of nine real ``--smoke`` runs);
* **tail latency** — fresh ``p99_latency_seconds`` must stay below
  ``factor × baseline``;
* **determinism** — the fresh run's ``replay_identical`` flag must be
  true, and its degraded+evicted rate must stay at or below the fault
  rate plus slack (faults may degrade sessions; healthy sessions may
  not silently fail).  Neither takes a factor: correctness never
  regresses with the hardware.

``REPRO_PERF_FACTOR`` overrides ``--factor`` (e.g. a known-slow runner).

Usage::

    python benchmarks/check_serve_regression.py BENCH_e24.json
        [--baseline PATH] [--factor 2.0]
"""

import argparse
import json
import os
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent / "baselines" / "BENCH_e24_baseline.json"

#: Non-verdict outcomes beyond the injected fault fraction that the gate
#: tolerates (a borderline contamination session may legitimately evict).
OUTCOME_SLACK = 0.05


def load(path: "str | Path") -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if "metrics" not in data or "bench" not in data:
        raise SystemExit(f"{path}: not a BENCH_*.json payload")
    return data


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly produced BENCH_e24.json")
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

    floor = bm["sessions_per_second"] / factor
    got = fm.get("sessions_per_second", 0.0)
    verdict = "ok" if got >= floor else "REGRESSION"
    print(f"throughput gate: {got:8.1f} sessions/s vs floor {floor:8.1f}  {verdict}")
    if got < floor:
        failures.append("throughput")

    ceiling = factor * bm["p99_latency_seconds"]
    got = fm.get("p99_latency_seconds", float("inf"))
    verdict = "ok" if got <= ceiling else "REGRESSION"
    print(f"latency gate   : {got * 1e3:8.2f} ms p99 vs ceiling "
          f"{ceiling * 1e3:8.2f} ms  {verdict}")
    if got > ceiling:
        failures.append("p99-latency")

    if not fm.get("replay_identical", False):
        print("determinism gate: replay NOT byte-identical  REGRESSION")
        failures.append("replay")
    else:
        print("determinism gate: same-seed replay byte-identical  ok")

    fault_rate = fresh["params"].get("fault_rate", 0.0)
    non_verdict = fm.get("degraded_rate", 0.0) + fm.get("evicted_rate", 0.0)
    allowed = fault_rate + OUTCOME_SLACK
    verdict = "ok" if non_verdict <= allowed else "REGRESSION"
    print(f"outcome gate   : {non_verdict:.3f} degraded+evicted vs allowed "
          f"{allowed:.3f}  {verdict}")
    if non_verdict > allowed:
        failures.append("outcome-rate")

    if failures:
        print(f"FAIL: {failures}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
