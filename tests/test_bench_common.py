"""Tests for ``benchmarks/_common.checkpointed_loop`` on the results store.

Benchmark grids (E20, E25, E28) commit one row per grid point to a sqlite
results store, so a killed run resumes without recomputing finished
points, and a store of a different grid is refused.
"""

from __future__ import annotations

import os

import pytest

from repro.distributed import StoreError

POINTS = [1, 2, 3]
FINGERPRINT = {"grid": POINTS}


@pytest.fixture
def checkpointed_loop(monkeypatch):
    bench_dir = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
    monkeypatch.syspath_prepend(bench_dir)
    from _common import checkpointed_loop

    return checkpointed_loop


def row(point: int) -> dict:
    return {"point": point, "square": point * point}


def recording(calls: list, *, die_at: "int | None" = None):
    """A per-point compute that logs its calls and can simulate a kill."""

    def compute(point: int) -> dict:
        if point == die_at:
            raise KeyboardInterrupt
        calls.append(point)
        return row(point)

    return compute


def test_resume_computes_only_missing_points(checkpointed_loop, tmp_path, capsys):
    path = tmp_path / "grid.sqlite"
    calls: list = []
    with pytest.raises(KeyboardInterrupt):
        checkpointed_loop(
            POINTS, recording(calls, die_at=3), checkpoint=path, fingerprint=FINGERPRINT
        )
    assert calls == [1, 2]

    calls.clear()
    rows = checkpointed_loop(
        POINTS, recording(calls), checkpoint=path, fingerprint=FINGERPRINT
    )
    assert calls == [3]
    assert rows == [row(p) for p in POINTS]
    assert "(resumed 2/3 points" in capsys.readouterr().out


def test_mismatched_fingerprint_raises(checkpointed_loop, tmp_path):
    path = tmp_path / "grid.sqlite"
    checkpointed_loop(POINTS, recording([]), checkpoint=path, fingerprint=FINGERPRINT)
    with pytest.raises(StoreError, match="different sweep"):
        checkpointed_loop(
            POINTS, recording([]), checkpoint=path, fingerprint={"grid": [9]}
        )


def test_resume_false_recomputes_everything(checkpointed_loop, tmp_path):
    path = tmp_path / "grid.sqlite"
    checkpointed_loop(POINTS, recording([]), checkpoint=path, fingerprint=FINGERPRINT)
    calls: list = []
    rows = checkpointed_loop(
        POINTS, recording(calls), checkpoint=path, fingerprint=FINGERPRINT,
        resume=False,
    )
    assert calls == POINTS
    assert rows == [row(p) for p in POINTS]
