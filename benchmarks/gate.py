"""The regression gate: one table of rows over the committed baselines.

Usage::

    python benchmarks/gate.py BENCH_eNN.json

Reads the payload's ``bench`` tag, loads
``benchmarks/baselines/BENCH_<tag>_baseline.json`` and checks that tag's
rows of :data:`TABLE`.  Each row holds one fresh metric (a tuple of
metrics is summed) to a bound with ``<=``, ``>=`` or ``==``.  The bound is
a constant, :class:`Base` (the baseline's value of the same metric),
:class:`Fresh` (another value of the fresh payload) or
:class:`TraceEvents` (the event count of a schema-valid trace file).  A
row whose baseline value is a per-n dict checks every n that fresh and
baseline share, and fails if they share none.

A metric or bound that is absent or NaN fails its row by name.  A bench
tag with no rows exits non-zero.

``REPRO_PERF_FACTOR`` (default 2.0) is the one knob: it multiplies the
bound of a ``scaled`` ``<=`` row and divides the bound of a ``scaled``
``>=`` row, so a known-slow host loosens the wall-clock rows only.  Exact
rows — correctness, identity, accounting, memory — never move.  The E23
rows validate the trace file through :mod:`repro.observability.trace`, so
that gate runs with ``PYTHONPATH=src``.

Every baseline is an unpadded measurement; its ``note`` says what
produced it.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
from pathlib import Path
from typing import Any, NamedTuple

BASELINES = Path(__file__).parent / "baselines"
DEFAULT_FACTOR = 2.0
OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


class Base(NamedTuple):
    """The baseline's value of the row's own metric, times ``times``."""

    times: float = 1.0


class Fresh(NamedTuple):
    """A value of the fresh payload plus ``plus``.

    ``key`` names a metric, or a param as ``"params.<name>"``.
    """

    key: str
    plus: float = 0.0


class TraceEvents(NamedTuple):
    """Events in the trace file named by fresh ``metrics[key]``.

    Unavailable when the file is missing or fails schema validation.
    """

    key: str


class Row(NamedTuple):
    metric: str | tuple[str, ...]
    op: str
    bound: Any
    scaled: bool = False


TABLE: dict[str, list[Row]] = {
    # Projection engines: fast and dense times on the smoke grid, golden
    # fast-vs-dense agreement, and the O(n·k) peak-memory contract (a
    # quadratic table would show a log-log slope of about 2).
    "e22": [
        Row("fast_seconds_by_n", "<=", Base(), scaled=True),
        Row("dense_seconds_by_n", "<=", Base(), scaled=True),
        Row("max_engine_diff", "<=", 1e-12),
        Row("peak_memory_slope", "<=", 1.5),
    ],
    # Observability: the no-op tracer stays within 5% of the baseline
    # tester time, and the written trace validates with the event count
    # the bench recorded.
    "e23": [
        Row("tracer_off_seconds", "<=", Base(1.05), scaled=True),
        Row("trace_events", "==", TraceEvents("trace_file")),
    ],
    # Serve soak: throughput and p99 latency, same-seed replay identity,
    # and non-verdict outcomes within the injected fault rate plus a
    # slack for a borderline contamination session that may evict.
    "e24": [
        Row("sessions_per_second", ">=", Base(), scaled=True),
        Row("p99_latency_seconds", "<=", Base(), scaled=True),
        Row("replay_identical", "==", True),
        Row(("degraded_rate", "evicted_rate"), "<=",
            Fresh("params.fault_rate", plus=0.05)),
    ],
    # Backend matrix: error counts within the exact binomial bound, and
    # cdkl22 keeps its measured sample advantage over pods16 (sample
    # draws are seed-deterministic, so the 1.5x drift allowance is
    # exact).
    "e25": [
        Row("worst_cell_errors", "<=", Fresh("max_errors_allowed")),
        Row("sample_ratio_largest_n", "<=", 0.6),
        Row("sample_ratios", "<=", Base(1.5)),
    ],
    # Distributed sweep: byte identity with the serial run, an exact
    # sample ledger with every shard committed once, a kill schedule that
    # fired and was absorbed, and the fleet's wall clock.
    "e27": [
        Row("byte_identical", "==", True),
        Row("total_drift", "==", 0),
        Row("commits", "==", Fresh("shards")),
        Row("restarts", ">=", 1),
        Row(("expiries", "duplicates"), ">=", 1),
        Row("wall_distributed_seconds", "<=", Base(), scaled=True),
    ],
    # Closeness: error counts within the exact binomial bound, the naive
    # double-identity baseline stays blind to the far pairs, wall clock.
    "e28": [
        Row("worst_closeness_errors", "<=", Fresh("max_errors_allowed")),
        Row("fewest_naive_far_accepts", ">=", Fresh("naive_blind_bound")),
        Row("closeness_seconds_by_n", "<=", Base(), scaled=True),
    ],
}


def number(value: Any) -> float | None:
    """``value`` as a float; None when it is absent or not a number.

    NaN stays NaN, which fails every comparison.
    """
    return float(value) if isinstance(value, (bool, int, float)) else None


def trace_events(path: Any) -> int | None:
    from repro.observability.trace import validate_trace

    if not path:
        return None
    try:
        return validate_trace(path)
    except (OSError, ValueError) as exc:
        print(f"  trace file invalid: {exc}")
        return None


def metric_value(metrics: dict, metric: str | tuple[str, ...]) -> Any:
    if isinstance(metric, str):
        return metrics.get(metric)
    parts = [number(metrics.get(key)) for key in metric]
    return None if None in parts else sum(parts)


def bound_value(row: Row, fresh: dict, base: dict) -> Any:
    bound = row.bound
    if isinstance(bound, Base):
        value = base["metrics"].get(row.metric)
        if isinstance(value, dict):
            return {n: _times(v, bound.times) for n, v in value.items()}
        return _times(value, bound.times)
    if isinstance(bound, Fresh):
        section, _, key = bound.key.rpartition(".")
        value = number(fresh.get(section or "metrics", {}).get(key))
        return None if value is None else value + bound.plus
    if isinstance(bound, TraceEvents):
        return trace_events(fresh["metrics"].get(bound.key))
    return bound


def _times(value: Any, times: float) -> float | None:
    value = number(value)
    return None if value is None else value * times


def compare(name: str, got: Any, want: Any, row: Row, factor: float):
    got, want = number(got), number(want)
    if got is None:
        return name, False, "metric missing"
    if want is None:
        return name, False, "bound missing or invalid"
    if row.scaled:
        want = want * factor if row.op == "<=" else want / factor
    return name, OPS[row.op](got, want), f"{got:.6g} {row.op} {want:.6g}"


def evaluate(tag: str, fresh: dict, base: dict, factor: float) -> list:
    """``(name, ok, detail)`` for every check of ``tag``'s rows."""
    results = []
    for row in TABLE[tag]:
        name = row.metric if isinstance(row.metric, str) else "+".join(row.metric)
        got = metric_value(fresh["metrics"], row.metric)
        want = bound_value(row, fresh, base)
        if not isinstance(want, dict) and not isinstance(got, dict):
            results.append(compare(name, got, want, row, factor))
        elif not (isinstance(want, dict) and isinstance(got, dict)):
            results.append((name, False, "metric or bound missing"))
        else:
            shared = sorted(set(got) & set(want), key=int)
            if not shared:
                results.append((name, False, "no n shared with the baseline"))
            for n in shared:
                results.append(compare(f"{name}@n={n}", got[n], want[n], row, factor))
    return results


def perf_factor() -> float:
    raw = os.environ.get("REPRO_PERF_FACTOR", str(DEFAULT_FACTOR))
    try:
        factor = float(raw)
    except ValueError:
        factor = math.nan
    if not factor > 0:
        raise SystemExit(f"REPRO_PERF_FACTOR must be positive, got {raw!r}")
    return factor


def load(path: str | Path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if "metrics" not in data or "bench" not in data:
        raise SystemExit(f"{path}: not a BENCH_*.json payload")
    return data


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit("usage: python benchmarks/gate.py BENCH_eNN.json")
    fresh = load(argv[0])
    tag = fresh["bench"]
    if tag not in TABLE:
        raise SystemExit(f"{argv[0]}: no gate rows for bench {tag!r}")
    base = load(BASELINES / f"BENCH_{tag}_baseline.json")
    if base["bench"] != tag:
        raise SystemExit(f"bench mismatch: fresh={tag!r} baseline={base['bench']!r}")

    results = evaluate(tag, fresh, base, perf_factor())
    for name, ok, detail in results:
        print(f"{tag} {name}: {detail}  {'ok' if ok else 'REGRESSION'}")
    failures = [name for name, ok, _ in results if not ok]
    if failures:
        print(f"FAIL: {failures}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
