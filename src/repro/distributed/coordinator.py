"""The sweep coordinator: enqueue shards, babysit workers, assemble.

The coordinator owns three things and nothing else:

1. **Store setup** — bind the store to the sweep's fingerprint and enqueue
   one shard per point (idempotent, so re-running a crashed coordinator
   against the same store resumes instead of restarting).
2. **Worker supervision** — spawn ``repro worker`` subprocesses against the
   store, expire stale leases eagerly, and replace workers that die (each
   replacement gets a fresh worker id: restarted processes must not replay
   a dead sibling's chaos stream).  The coordinator holds no work state —
   killing *it* and re-running is also safe.
3. **Assembly** — once every shard is committed, read results in shard
   index order and rebuild the exact :class:`SweepResult` (and, span for
   span, the exact trace) the serial :func:`complexity_sweep` would have
   produced.  Byte-identity is the acceptance test, not a best effort.

The ``workers=`` path of the batch-first core is untouched: in-process
trial parallelism happens *inside* a shard, distributed execution happens
*across* shards, and :func:`run_local` is the degenerate one-process case
of the latter.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.distributed.chaos import ChaosSchedule
from repro.distributed.spec import SweepSpec
from repro.distributed.store import ResultsStore, StoreError
from repro.distributed.worker import Worker, WorkerOptions, WorkerSummary
from repro.experiments.sweeps import SweepResult, _point_from_json, fit_power_law
from repro.observability.trace import RecordingTracer, Tracer


def create_store(
    store_path: "str | os.PathLike",
    spec: SweepSpec,
    *,
    clock: Callable[[], float] = time.time,
    resume: bool = True,
) -> ResultsStore:
    """Open (or create) the store for ``spec`` and enqueue its shards.

    With ``resume=False`` an existing store file is removed first;
    otherwise an existing store must carry this sweep's fingerprint
    (committed shards are kept — that is the crash-recovery path).
    """
    path = Path(store_path)
    if not resume and path.exists():
        path.unlink()
        for suffix in ("-wal", "-shm"):
            sidecar = Path(str(path) + suffix)
            if sidecar.exists():
                sidecar.unlink()
    store = ResultsStore(path, clock=clock)
    store.initialise(spec.fingerprint(), spec.to_json(), spec.shards())
    return store


def spec_from_store(store: ResultsStore) -> SweepSpec:
    raw = store.spec()
    if raw is None:
        raise StoreError(f"store {store.path} holds no sweep spec")
    return SweepSpec.from_json(raw)


def assemble(store: ResultsStore, *, trace: "Tracer | None" = None) -> SweepResult:
    """Rebuild the serial sweep's exact result from a finished store.

    Points are read in shard index order — never completion order — and
    each shard's recorded sub-trace is absorbed into ``trace`` in that same
    order, which is precisely how the serial loop would have emitted them.
    Raises :class:`StoreError` while shards are still outstanding.
    """
    counts = store.counts()
    if counts["shards"] == 0:
        raise StoreError(f"store {store.path} has no shards enqueued")
    if counts["committed"] != counts["shards"]:
        raise StoreError(
            f"sweep incomplete: {counts['committed']}/{counts['shards']} shards "
            "committed — run workers to finish it"
        )
    spec = spec_from_store(store)
    rows = store.results()
    expected = list(range(len(spec.values)))
    if [row.index for row in rows] != expected:
        raise StoreError(
            f"store {store.path} results are not the contiguous shard range "
            f"{expected[0]}..{expected[-1]}"
        )
    points = [_point_from_json(row.result["point"]) for row in rows]
    if trace is not None:
        for row in rows:
            trace.absorb(list(row.trace))
    xs = [float(getattr(p, spec.axis)) for p in points]
    ys = [p.estimate.samples for p in points]
    exponent = fit_power_law(xs, ys) if len(points) >= 2 else math.nan
    return SweepResult(axis=spec.axis, points=points, exponent=exponent)


def run_local(
    store: ResultsStore,
    *,
    worker_id: str = "local",
    workers: "int | None" = None,
    lease_seconds: float = 300.0,
    chaos: "ChaosSchedule | None" = None,
) -> WorkerSummary:
    """Drain the store in-process: the thin local special case.

    A plain :class:`Worker` run against the store from this process — the
    exact code path subprocess workers take, minus the process boundary.
    """
    options = WorkerOptions(
        worker_id=worker_id,
        lease_seconds=lease_seconds,
        workers=workers,
        chaos=chaos,
    )
    return Worker(store, options).run()


# ---------------------------------------------------------------------------
# Subprocess supervision
# ---------------------------------------------------------------------------


def _worker_argv(
    store_path: "str | os.PathLike",
    worker_id: str,
    *,
    lease_seconds: float,
    chaos: "ChaosSchedule | None",
) -> list[str]:
    argv = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--store",
        str(store_path),
        "--worker-id",
        worker_id,
        "--lease-seconds",
        str(lease_seconds),
    ]
    if chaos is not None:
        argv += chaos.to_args()
    return argv


def _worker_env() -> dict[str, str]:
    """Subprocess env with this repro package importable (CI runs from a
    source tree; workers must resolve the same build the coordinator did)."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_root + (os.pathsep + existing if existing else "")
        )
    return env


@dataclass
class FleetReport:
    """What a supervised distributed run did, beyond the sweep itself."""

    workers_spawned: int = 0
    restarts: int = 0
    leases_expired: int = 0
    wall_seconds: float = 0.0
    exit_codes: dict = field(default_factory=dict)


def run_fleet(
    store: ResultsStore,
    *,
    processes: int = 2,
    lease_seconds: float = 15.0,
    chaos: "ChaosSchedule | None" = None,
    poll_seconds: float = 0.2,
    max_restarts: int = 20,
    timeout: float = 600.0,
) -> FleetReport:
    """Drive subprocess workers against ``store`` until the sweep finishes.

    Crash-tolerant by construction: a worker that dies (chaos kill, OOM,
    operator SIGKILL) is replaced with a fresh id — up to ``max_restarts``
    times fleet-wide — and its abandoned lease expires on schedule.  The
    loop also expires stale leases eagerly so stragglers re-dispatch without
    waiting for the next claim to trip over them.
    """
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    report = FleetReport()
    env = _worker_env()
    procs: dict[str, subprocess.Popen] = {}
    spawned = 0

    def _spawn() -> None:
        nonlocal spawned
        worker_id = f"w{spawned}"
        spawned += 1
        report.workers_spawned += 1
        procs[worker_id] = subprocess.Popen(
            _worker_argv(
                store.path,
                worker_id,
                lease_seconds=lease_seconds,
                chaos=chaos,
            ),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    start = time.monotonic()
    for _ in range(processes):
        _spawn()
    try:
        while not store.finished():
            if time.monotonic() - start > timeout:
                raise StoreError(
                    f"distributed sweep did not finish within {timeout:g}s "
                    f"({store.counts()})"
                )
            report.leases_expired += len(store.expire_leases())
            for worker_id, proc in list(procs.items()):
                code = proc.poll()
                if code is None:
                    continue
                report.exit_codes[worker_id] = code
                del procs[worker_id]
                if store.finished():
                    continue
                if code != 0 and report.restarts >= max_restarts:
                    raise StoreError(
                        f"worker {worker_id} exited with {code} and the "
                        f"restart budget ({max_restarts}) is spent"
                    )
                # Exit code 0 mid-sweep means the worker drained (operator
                # SIGTERM) or saw the sweep finished; only replace crashes.
                if code != 0:
                    report.restarts += 1
                    _spawn()
            time.sleep(poll_seconds)
    finally:
        # Graceful drain for survivors, escalating only if they ignore it.
        for proc in procs.values():
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 10.0
        for worker_id, proc in procs.items():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                report.exit_codes[worker_id] = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                report.exit_codes[worker_id] = proc.wait()
    report.wall_seconds = time.monotonic() - start
    return report


def distributed_sweep(
    spec: SweepSpec,
    store_path: "str | os.PathLike",
    *,
    processes: int = 2,
    lease_seconds: float = 15.0,
    chaos: "ChaosSchedule | None" = None,
    resume: bool = True,
    timeout: float = 600.0,
    trace: "Tracer | None" = None,
) -> tuple[SweepResult, FleetReport]:
    """End-to-end distributed sweep: create store, run fleet, assemble.

    The assembled :class:`SweepResult` (and absorbed trace) is byte-identical
    to ``complexity_sweep`` run serially with the same spec — under any
    worker count, any kill schedule, any interleaving of lease expiries and
    duplicate completions.  That is the module's contract, and the chaos
    matrix tests hold it to the byte.
    """
    store = create_store(store_path, spec, resume=resume)
    try:
        if processes == 1 and chaos is None:
            # One process and no faults to inject: skip the subprocess
            # machinery entirely (the thin local special case).
            start = time.monotonic()
            run_local(store, lease_seconds=max(lease_seconds, 300.0))
            report = FleetReport(workers_spawned=1)
            report.wall_seconds = time.monotonic() - start
        else:
            report = run_fleet(
                store,
                processes=processes,
                lease_seconds=lease_seconds,
                chaos=chaos,
                timeout=timeout,
            )
        result = assemble(store, trace=trace)
        return result, report
    finally:
        store.close()
