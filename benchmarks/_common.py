"""Shared scaffolding for the experiment benchmarks (E1–E20).

Each ``bench_eNN_*.py`` regenerates one table/figure from DESIGN.md's
experiment index and prints it through
:func:`repro.experiments.report.print_experiment`.  Absolute numbers are
machine-dependent; the *shape* assertions (who wins, monotonicity,
threshold locations) are encoded as soft checks that print WARN rather than
fail, since benchmarks are measurements, not tests.

Long-running benchmarks iterate their grid through
:func:`checkpointed_loop`, which commits every completed row to a sqlite
results store (:mod:`repro.distributed.store`) — a benchmark killed
mid-run (SIGINT, OOM) resumes from its completed points instead of
starting over.
"""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.backends import BACKENDS, DEFAULT_BACKEND
from repro.core.config import TesterConfig
from repro.distributed.store import Shard, open_store
from repro.util.atomicio import atomic_write_json

#: The default scale every benchmark runs at unless it sweeps the axis.
N = 4096
K = 5
EPS = 0.3
TRIALS = 12
CONFIG = TesterConfig.practical()


def bench_workers(default: int | None = None) -> int | None:
    """Worker count for benchmark trial loops, from ``REPRO_WORKERS``.

    Unset/empty → ``default`` (serial); ``0`` → one worker per CPU; ``N`` →
    N processes.  Results are bit-identical at any value (the engine's
    determinism contract), so benchmarks may be parallelised freely without
    changing their tables.
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise SystemExit(f"REPRO_WORKERS must be an integer, got {raw!r}") from exc
    if value < 0:
        raise SystemExit(f"REPRO_WORKERS must be non-negative, got {value}")
    return value


#: Resolved once so every benchmark honours the same setting.
WORKERS = bench_workers()


def bench_backend(default: str = DEFAULT_BACKEND) -> str:
    """Tester backend for benchmark runs, from ``REPRO_BACKEND``.

    Unset/empty → ``default``.  Unlike ``REPRO_WORKERS`` this knob *does*
    change the numbers (backends have different budgets and verdict paths),
    which is exactly the point: CI's backend-matrix job reruns the generic
    benchmarks under each backend by exporting this variable.  E25 ignores
    it — that benchmark always measures both backends head-to-head.
    """
    raw = os.environ.get("REPRO_BACKEND", "").strip()
    if not raw:
        return default
    if raw not in BACKENDS:
        raise SystemExit(
            f"REPRO_BACKEND must be one of {BACKENDS}, got {raw!r}"
        )
    return raw


#: Resolved once so every benchmark honours the same setting.
BACKEND = bench_backend()


def check(label: str, condition: bool) -> None:
    """Soft shape assertion: print PASS/WARN without failing the bench."""
    print(f"  shape[{label}]: {'PASS' if condition else 'WARN'}")


def write_bench_json(
    name: str,
    *,
    params: dict[str, Any],
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    metrics: dict[str, Any] | None = None,
    path: "str | os.PathLike | None" = None,
) -> Path:
    """Persist a benchmark's table as machine-readable ``BENCH_<name>.json``.

    The schema is deliberately small and stable — the regression gate
    (``benchmarks/gate.py``) compares these files with the committed
    baselines, so keys here are a compatibility surface:

    * ``bench``: the experiment tag ("e21", "e22", …);
    * ``params``: the grid/profile the run used;
    * ``columns`` + ``rows``: the printed table, verbatim;
    * ``metrics``: named scalars (slopes, speedups) for direct comparison;
    * ``host`` / ``created_unix``: provenance only, never compared.

    ``path`` defaults to ``BENCH_<name>.json`` in the working directory.
    """
    out = Path(path) if path is not None else Path(f"BENCH_{name}.json")
    payload = {
        "bench": name,
        "params": dict(params),
        "columns": list(columns),
        "rows": [list(row) for row in rows],
        "metrics": dict(metrics or {}),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "created_unix": time.time(),
    }
    # Durable atomic replace (tmp + fsync + rename + dir fsync): a crash
    # mid-write must never leave a torn BENCH_*.json for the regression
    # gates to choke on.
    atomic_write_json(out, payload, indent=2, sort_keys=True)
    print(f"  wrote {out}")
    return out


def checkpointed_loop(
    points: Sequence[Any],
    compute: Callable[[Any], Any],
    *,
    checkpoint: "str | os.PathLike | None" = None,
    fingerprint: dict[str, Any] | None = None,
    resume: bool = True,
) -> list[Any]:
    """Map ``compute`` over ``points``, checkpointing one row per point.

    Rows must be JSON-serialisable.  With a ``checkpoint`` path, the grid
    is a sqlite results store bound to ``fingerprint`` with one shard per
    point, and each completed row is committed as its shard's result; a
    rerun (``resume=True``) computes only the points not yet committed.
    A store of a mismatched fingerprint — different grid, profile, or
    trial count — raises :class:`~repro.distributed.store.StoreError`
    rather than splicing incompatible rows; ``resume=False`` starts over.
    """
    if checkpoint is None:
        return [compute(point) for point in points]
    shards = [
        Shard(shard_id=f"point-{index}", index=index, payload={"index": index})
        for index in range(len(points))
    ]
    fingerprint = fingerprint or {}
    store = open_store(checkpoint, fingerprint, fingerprint, shards, resume=resume)
    try:
        done = {row.index for row in store.results()}
        if done:
            print(f"  (resumed {len(done)}/{len(points)} points from {store.path})")
        for shard, point in zip(shards, points):
            if shard.index not in done:
                store.commit(
                    shard.shard_id,
                    "bench",
                    result={"row": compute(point)},
                    trace=(),
                    samples_total=0,
                    trials_total=0,
                )
        return [row.result["row"] for row in store.results()]
    finally:
        store.close()
