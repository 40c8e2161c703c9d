"""The sweep coordinator: enqueue shards, babysit workers, assemble.

The coordinator owns three things and nothing else:

1. **Store setup** — bind the store to the sweep's fingerprint and enqueue
   one shard per point (idempotent, so re-running a crashed coordinator
   against the same store resumes instead of restarting).
2. **Worker supervision** — fork worker processes against the store, wake
   on their exits, expire stale leases eagerly, and replace workers that
   die (each replacement gets a fresh worker id: restarted processes must
   not replay a dead sibling's chaos stream).  The coordinator holds no
   work state — killing *it* and re-running is also safe.
3. **Assembly** — once every shard is committed, read results in shard
   index order and rebuild the exact :class:`SweepResult` (and, span for
   span, the exact trace) the serial :func:`complexity_sweep` would have
   produced.  Byte-identity is the acceptance test, not a best effort.

A sweep has one parallel axis, and it is this one: each shard runs its
trials serially in whichever process claims it, shards run in parallel
across worker processes, and :func:`run_local` is the degenerate
one-process case.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.distributed.chaos import ChaosSchedule
from repro.distributed.spec import SweepSpec
from repro.distributed.store import ResultsStore, StoreError, open_store
from repro.distributed.worker import Worker, WorkerOptions, WorkerSummary, worker_main
from repro.experiments.sweeps import SweepResult, _point_from_json
from repro.observability.trace import Tracer


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
    return open_store(
        store_path,
        spec.fingerprint(),
        spec.to_json(),
        spec.shards(),
        resume=resume,
        clock=clock,
    )


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
    return SweepResult.fit(spec.axis, points)


def run_local(
    store: ResultsStore,
    *,
    worker_id: str = "local",
    lease_seconds: float = 300.0,
    chaos: "ChaosSchedule | None" = None,
) -> WorkerSummary:
    """Drain the store in-process: the thin local special case.

    A plain :class:`Worker` run against the store from this process — the
    exact code path fleet workers take, minus the process boundary.
    """
    options = WorkerOptions(
        worker_id=worker_id,
        lease_seconds=lease_seconds,
        chaos=chaos,
    )
    return Worker(store, options).run()


# ---------------------------------------------------------------------------
# Fleet supervision
# ---------------------------------------------------------------------------

#: Workers are forks of the coordinator, so they start with every module
#: already imported.  Spawn and forkserver starts re-import the caller's
#: ``__main__`` in each child (and raise on an unguarded one), which costs
#: more than a small shard's compute (DESIGN § Distributed execution).
_FORK = multiprocessing.get_context("fork")


def _require_single_thread() -> None:
    """Refuse to fork while other threads run: a forked child inherits
    their locks in whatever state they were, held by threads it lacks."""
    others = [t.name for t in threading.enumerate() if t is not threading.current_thread()]
    if others:
        raise RuntimeError(
            f"run_fleet forks its workers and cannot while other threads are "
            f"alive: {', '.join(others)}"
        )


def _discard(line: str) -> None:
    """Drop a forked worker's summary line: the coordinator's stdout
    carries the sweep's own output (``repro worker`` prints the line)."""


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
    """Drive forked workers against ``store`` until the sweep finishes.

    Crash-tolerant by construction: a worker that dies (chaos kill, OOM,
    operator SIGKILL) is replaced with a fresh id — up to ``max_restarts``
    times fleet-wide — and its abandoned lease expires on schedule.  A
    worker that exits 0 mid-sweep drained on request and is not replaced;
    once every worker has drained with shards outstanding, this raises
    :class:`StoreError` rather than idle until ``timeout``.

    The loop sleeps until a worker exits, or at most ``poll_seconds``, which
    is thus the longest gap between eager lease-expiry sweeps (stragglers
    re-dispatch without waiting for a claim to trip over them).

    Workers are ``fork()``s of this process, so it must have no other
    thread alive (:class:`RuntimeError` otherwise); the store's connection
    is closed before each fork and reopened on next use.
    """
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    report = FleetReport()
    procs: dict[str, multiprocessing.Process] = {}

    def _spawn() -> None:
        _require_single_thread()
        worker_id = f"w{report.workers_spawned}"
        options = WorkerOptions(
            worker_id=worker_id, lease_seconds=lease_seconds, chaos=chaos
        )
        store.close()
        proc = _FORK.Process(
            target=worker_main,
            args=(store.path, options),
            kwargs={"emit": _discard},
            name=worker_id,
        )
        proc.start()
        procs[worker_id] = proc
        report.workers_spawned += 1

    def _reap(worker_id: str, code: int) -> None:
        report.exit_codes[worker_id] = code
        procs.pop(worker_id).close()

    start = time.monotonic()
    try:
        if not store.finished():  # a finished store needs no workers
            for _ in range(processes):
                _spawn()
        while not store.finished():
            if time.monotonic() - start > timeout:
                raise StoreError(
                    f"distributed sweep did not finish within {timeout:g}s "
                    f"({store.counts()})"
                )
            report.leases_expired += len(store.expire_leases())
            for worker_id, proc in list(procs.items()):
                code = proc.exitcode
                if code is None:
                    continue
                _reap(worker_id, code)
                # Exit code 0 means the worker drained (operator SIGTERM)
                # or saw the sweep finished; only crashes are replaced.
                if code == 0 or store.finished():
                    continue
                if report.restarts >= max_restarts:
                    raise StoreError(
                        f"worker {worker_id} exited with {code} and the "
                        f"restart budget ({max_restarts}) is spent"
                    )
                report.restarts += 1
                _spawn()
            if not procs:
                if store.finished():
                    break
                drained = sorted(w for w, code in report.exit_codes.items() if code == 0)
                raise StoreError(
                    f"every worker has drained ({', '.join(drained)}) with the "
                    f"sweep unfinished ({store.counts()}); exit codes: "
                    f"{report.exit_codes}"
                )
            multiprocessing.connection.wait(
                [proc.sentinel for proc in procs.values()], timeout=poll_seconds
            )
    finally:
        # Graceful drain for survivors, escalating only if they ignore it.
        for proc in procs.values():
            if proc.exitcode is None:
                proc.terminate()
        deadline = time.monotonic() + 10.0
        for worker_id, proc in list(procs.items()):
            proc.join(max(0.1, deadline - time.monotonic()))
            if proc.exitcode is None:
                proc.kill()
                proc.join()
            _reap(worker_id, proc.exitcode)
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
        report = run_fleet(
            store,
            processes=processes,
            lease_seconds=lease_seconds,
            chaos=chaos,
            timeout=timeout,
        )
        return assemble(store, trace=trace), report
    finally:
        store.close()
