"""Tests for ``benchmarks/gate.py``, the one benchmark regression gate.

Every case starts from a committed baseline, which must pass against
itself, and moves one metric to the edge of its row's bound (passes) or
just past it (fails).  The bounds below are written out from the gate's
documented contract at the default ``REPRO_PERF_FACTOR`` of 2, not read
from the gate's table.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.observability.trace import RecordingTracer, write_jsonl

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

_spec = importlib.util.spec_from_file_location("gate", BENCHMARKS / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

TAGS = sorted(gate.TABLE)


def baseline(tag: str) -> dict:
    with open(gate.BASELINES / f"BENCH_{tag}_baseline.json") as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def trace_file(tmp_path, monkeypatch):
    """A schema-valid ``TRACE_e23.jsonl`` in the cwd, as the E23 bench leaves
    it, holding the E23 baseline's event count."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_PERF_FACTOR", raising=False)
    tracer = RecordingTracer()
    for _ in range(baseline("e23")["metrics"]["trace_events"]):
        with tracer.span("stage"):
            pass
    write_jsonl(tmp_path / baseline("e23")["metrics"]["trace_file"], tracer.export())


# (tag, metric, n, op, bound at factor 2 from baseline metrics b and fresh
# payload f, scaled by REPRO_PERF_FACTOR)
ROWS = [
    ("e22", "fast_seconds_by_n", "2048", "<=", lambda b, f: 2 * b["fast_seconds_by_n"]["2048"], True),
    ("e22", "dense_seconds_by_n", "512", "<=", lambda b, f: 2 * b["dense_seconds_by_n"]["512"], True),
    ("e22", "max_engine_diff", None, "<=", lambda b, f: 1e-12, False),
    ("e22", "peak_memory_slope", None, "<=", lambda b, f: 1.5, False),
    ("e23", "tracer_off_seconds", None, "<=", lambda b, f: 2 * 1.05 * b["tracer_off_seconds"], True),
    ("e23", "trace_events", None, "==", lambda b, f: b["trace_events"], False),
    ("e24", "sessions_per_second", None, ">=", lambda b, f: b["sessions_per_second"] / 2, True),
    ("e24", "p99_latency_seconds", None, "<=", lambda b, f: 2 * b["p99_latency_seconds"], True),
    ("e24", "replay_identical", None, "==", lambda b, f: True, False),
    ("e24", ("degraded_rate", "evicted_rate"), None, "<=",
     lambda b, f: f["params"]["fault_rate"] + 0.05, False),
    ("e25", "worst_cell_errors", None, "<=", lambda b, f: f["metrics"]["max_errors_allowed"], False),
    ("e25", "sample_ratio_largest_n", None, "<=", lambda b, f: 0.6, False),
    ("e25", "sample_ratios", "600", "<=", lambda b, f: 1.5 * b["sample_ratios"]["600"], False),
    ("e27", "byte_identical", None, "==", lambda b, f: True, False),
    ("e27", "total_drift", None, "==", lambda b, f: 0, False),
    ("e27", "commits", None, "==", lambda b, f: f["metrics"]["shards"], False),
    ("e27", "restarts", None, ">=", lambda b, f: 1, False),
    ("e27", ("expiries", "duplicates"), None, ">=", lambda b, f: 1, False),
    ("e27", "wall_distributed_seconds", None, "<=", lambda b, f: 2 * b["wall_distributed_seconds"], True),
    ("e28", "worst_closeness_errors", None, "<=", lambda b, f: f["metrics"]["max_errors_allowed"], False),
    ("e28", "fewest_naive_far_accepts", None, ">=", lambda b, f: f["metrics"]["naive_blind_bound"], False),
    ("e28", "closeness_seconds_by_n", "2000", "<=", lambda b, f: 2 * b["closeness_seconds_by_n"]["2000"], True),
]
ROW_IDS = [
    f"{tag}-{m if isinstance(m, str) else '+'.join(m)}" for tag, m, *_ in ROWS
]


def row_name(metric, n) -> str:
    name = metric if isinstance(metric, str) else "+".join(metric)
    return f"{name}@n={n}" if n else name


def with_value(payload: dict, metric, n, value) -> dict:
    """``payload`` with ``metric`` (at ``n``) set to ``value``; a summed
    row puts all of ``value`` on its first metric and zero on the rest."""
    out = copy.deepcopy(payload)
    metrics = out["metrics"]
    if isinstance(metric, tuple):
        metrics.update({key: 0 for key in metric}, **{metric[0]: value})
    elif n is not None:
        metrics[metric][n] = value
    else:
        metrics[metric] = value
    return out


def past(bound, op):
    if op == "==":
        return (not bound) if isinstance(bound, bool) else bound + 1
    if isinstance(bound, int):
        return bound + 1 if op == "<=" else bound - 1
    return bound * 1.01 if op == "<=" else bound * 0.99


def failures(tag: str, payload: dict, factor: float = 2.0) -> list[str]:
    return [
        name for name, ok, _ in gate.evaluate(tag, payload, baseline(tag), factor)
        if not ok
    ]


def test_every_tag_has_rows_and_a_baseline():
    files = sorted(p.name for p in gate.BASELINES.glob("BENCH_*_baseline.json"))
    assert files == [f"BENCH_{tag}_baseline.json" for tag in TAGS]
    assert {tag for tag, *_ in ROWS} == set(TAGS)
    assert len(ROWS) == sum(len(rows) for rows in gate.TABLE.values())


@pytest.mark.parametrize("tag", TAGS)
def test_committed_baseline_passes_against_itself(tag):
    results = gate.evaluate(tag, baseline(tag), baseline(tag), 2.0)
    assert results and all(ok for _, ok, _ in results), results


@pytest.mark.parametrize("tag,metric,n,op,bound,scaled", ROWS, ids=ROW_IDS)
def test_row_passes_at_its_bound_and_fails_past_it(tag, metric, n, op, bound, scaled):
    base = baseline(tag)
    edge = bound(base["metrics"], base)
    assert failures(tag, with_value(base, metric, n, edge)) == []
    assert failures(tag, with_value(base, metric, n, past(edge, op))) == [row_name(metric, n)]


@pytest.mark.parametrize("tag,metric,n,op,bound,scaled", ROWS, ids=ROW_IDS)
def test_perf_factor_moves_scaled_rows_only(tag, metric, n, op, bound, scaled, monkeypatch):
    base = baseline(tag)
    payload = with_value(base, metric, n, past(bound(base["metrics"], base), op))
    monkeypatch.setenv("REPRO_PERF_FACTOR", "100")
    expected = [] if scaled else [row_name(metric, n)]
    assert failures(tag, payload, gate.perf_factor()) == expected


@pytest.mark.parametrize("tag,metric,n,op,bound,scaled", ROWS, ids=ROW_IDS)
@pytest.mark.parametrize("how", ["missing", "nan"])
def test_missing_or_nan_metric_fails_its_row(tag, metric, n, op, bound, scaled, how):
    for key in (metric,) if isinstance(metric, str) else metric:
        payload = copy.deepcopy(baseline(tag))
        if how == "missing":
            del payload["metrics"][key]
            expected = [row_name(metric, None)]
        elif n is not None:
            payload["metrics"][key][n] = math.nan
            expected = [row_name(metric, n)]
        else:
            payload["metrics"][key] = math.nan
            expected = [row_name(metric, None)]
        assert failures(tag, payload) == expected, key


def test_missing_param_bound_fails_its_row():
    payload = copy.deepcopy(baseline("e24"))
    del payload["params"]["fault_rate"]
    assert failures("e24", payload) == ["degraded_rate+evicted_rate"]


def test_per_n_row_with_no_shared_n_fails():
    payload = copy.deepcopy(baseline("e22"))
    payload["metrics"]["fast_seconds_by_n"] = {"4096": 1.0}
    results = gate.evaluate("e22", payload, baseline("e22"), 2.0)
    assert [(name, ok) for name, ok, _ in results if not ok] == [("fast_seconds_by_n", False)]
    assert "no n shared" in next(d for name, _, d in results if name == "fast_seconds_by_n")


def test_invalid_trace_file_fails_the_trace_row(tmp_path):
    (tmp_path / "TRACE_e23.jsonl").write_text('{"kind": "span"}\n')
    assert failures("e23", baseline("e23")) == ["trace_events"]


def write_payload(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def test_main_passes_and_fails_by_exit_code(tmp_path, capsys):
    base = baseline("e27")
    assert gate.main([write_payload(tmp_path / "ok.json", base)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")
    broken = with_value(base, "total_drift", None, 3)
    assert gate.main([write_payload(tmp_path / "bad.json", broken)]) == 1
    assert "FAIL: ['total_drift']" in capsys.readouterr().out


def test_unknown_tag_and_bad_input_exit_nonzero(tmp_path, monkeypatch):
    retired = dict(baseline("e22"), bench="e26")
    with pytest.raises(SystemExit, match="no gate rows"):
        gate.main([write_payload(tmp_path / "e26.json", retired)])
    with pytest.raises(SystemExit, match="not a BENCH"):
        gate.main([write_payload(tmp_path / "bare.json", {"metrics": {}})])
    with pytest.raises(SystemExit, match="usage"):
        gate.main([])
    for bad in ("0", "-1", "fast"):
        monkeypatch.setenv("REPRO_PERF_FACTOR", bad)
        with pytest.raises(SystemExit, match="REPRO_PERF_FACTOR"):
            gate.perf_factor()


def test_baseline_with_another_tag_exits_nonzero(tmp_path, monkeypatch):
    fresh = write_payload(tmp_path / "fresh.json", baseline("e24"))
    write_payload(
        tmp_path / "BENCH_e24_baseline.json", dict(baseline("e24"), bench="e27")
    )
    monkeypatch.setattr(gate, "BASELINES", tmp_path)
    with pytest.raises(SystemExit, match="bench mismatch"):
        gate.main([fresh])
