"""Tests of the benchmark itself; run with ``pytest bench/tests``."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Each workload at a size that finishes in seconds.
TINY = {
    "identity": dict(n=4096, rounds=1),
    "closeness": dict(n=4096, rounds=1, instances=1),
    "serve": dict(rounds=1, sessions=20),
    "project": dict(n=64, k=4, rounds=1),
    "sweep": dict(values=(1024, 2048), trials=2, bisection_steps=1, rounds=1),
}


def test_spec_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_kernel_ops_are_the_registered_ones():
    from repro.kernels.dispatch import registered_ops

    assert workloads.KERNEL_OPS == registered_ops()


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_exist_in_benchmark_json(tmp_path, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "project", "--seed", "2",
         "--seconds", "0", "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == declared
    printed = [line.split()[0] for line in lines[:-1] if line.startswith("  ")]
    assert set(printed) == declared
    assert all(NAME.fullmatch(name) for name in printed)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_of_each_workload_completes(tmp_path, name):
    w = workloads.WORKLOADS[name](5, tmp_path, **TINY[name])
    try:
        w.setup()
        timed, rounds = workloads.timed_run(w, 0.0)
        layered, _, recorder = workloads.traced_run(w, 0.0)
    finally:
        w.close()
    assert w.problems == []
    assert set(timed) | {"setup_s", "peak_rss_mb"} == END_TO_END
    assert all(value > 0 for value in timed.values())
    assert set(layered) <= PER_LAYER
    assert sum(r.attempted for r in rounds) >= 1
    assert sum(r.failed for r in rounds) == 0
    trace = recorder.spans
    assert trace and spans.structure_problems(trace) == []
    assert min(spans.self_times(trace).values()) >= -spans.EPS
    assert spans.render(trace)


def test_self_time_counts_overlapping_children_once():
    def span(span_id, parent, start, end):
        return {"span_id": span_id, "parent_id": parent, "name": f"s{span_id}",
                "request_id": None, "start": start, "end": end, "samples": 0, "attrs": {}}  # fmt: skip

    trace = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 5.0), span(2, 0, 3.0, 8.0)]
    own = spans.self_times(trace)
    assert own[0] == pytest.approx(3.0)  # 0-1 and 8-10 are uncovered
    assert own[1] == pytest.approx(4.0)
    assert spans.structure_problems(trace) == []
    trace.append(span(3, 1, 4.0, 6.0))  # escapes its parent
    assert spans.structure_problems(trace)


PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        ([v * 1.3 for v in PARENT], "higher", "gain"),
        ([v * 0.7 for v in PARENT], "lower", "gain"),
        (list(reversed(PARENT)), "higher", "same"),
        ([v * 0.8 for v in PARENT], "higher", "regression"),
        ([v * 1.2 for v in PARENT], "lower", "regression"),
        ([v * 1.01 for v in PARENT], "higher", "same"),
    ],
)
def test_compare_decisions(change, better, expected):
    assert compare.decide(PARENT, change, 0.1, better) == expected


def test_compare_reports_wide_spread_as_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.decide(noisy, list(reversed(noisy)), 0.1, "higher") == "unresolved"
    assert compare.decide(noisy[:5], [v + 100.0 for v in noisy[:5]], 0.1, "higher") == "better"


def test_gain_needs_ten_pairs():
    assert compare.decide(PARENT[:5], [v * 1.3 for v in PARENT[:5]], 0.1, "higher") == "better"


def test_fails_without_the_library(tmp_path):
    """A directory holding only the benchmark exits non-zero, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "identity", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
