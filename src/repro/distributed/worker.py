"""The shard worker: claim → run → heartbeat → idempotently commit.

A worker is a plain process (``repro worker --store sweep.sqlite``) holding
no state the store doesn't also hold.  Its loop:

1. claim the lowest-index claimable shard (atomic lease with a deadline);
2. start a heartbeat thread extending the lease while the shard computes;
3. run the shard through the deterministic trial engine
   (:func:`repro.distributed.spec.run_shard`);
4. commit the result idempotently; a ``False`` commit means another worker
   beat us after our lease expired — the result is discarded, nothing is
   double-counted, and the loop moves on.

Every store call goes through the robustness substrate: a seeded-jitter
:class:`~repro.robustness.resilience.RetryPolicy` absorbs transient sqlite
lock contention (many workers share one write lock), and a per-worker
:class:`~repro.serve.breaker.CircuitBreaker` backs the whole loop off when
the store itself is persistently unhealthy rather than hammering it.

SIGTERM/SIGINT request a **graceful drain**: the in-flight shard finishes
and commits (work already paid for is not thrown away), no further shards
are claimed, and the worker exits with a reconciled
:class:`~repro.observability.ledger.SampleLedger` — one stage per committed
shard, integer-exact, proving the worker accounted for every sample it
drew.  SIGKILL needs no handling at all: the lease expires, the shard is
re-dispatched, and idempotent commit keeps the sweep byte-identical.

Chaos hooks (:mod:`repro.distributed.chaos`) inject faults at the loop's
edges — after compute/before commit (kill), past the lease deadline
(late-commit), and so on — under a deterministic schedule, which is how the
chaos matrix tests pin down exact failure interleavings.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.distributed.chaos import ChaosSchedule, ChaosState
from repro.distributed.spec import SweepSpec, run_shard
from repro.distributed.store import Lease, ResultsStore, StoreError
from repro.observability.ledger import SampleLedger
from repro.robustness.resilience import RetryPolicy, run_with_retry
from repro.serve.breaker import CircuitBreaker

#: sqlite's "database is locked" surfaces as OperationalError — the one
#: store failure that is expected under contention and safe to retry.
STORE_TRANSIENT = (sqlite3.OperationalError,)


def default_store_retry(worker_id: str) -> RetryPolicy:
    """The store-call retry policy: bounded, with per-worker seeded jitter
    so a fleet of workers hitting one locked store de-synchronises instead
    of re-colliding in lockstep."""
    import zlib

    return RetryPolicy(
        max_attempts=5,
        base_delay=0.02,
        multiplier=2.0,
        max_delay=0.5,
        retry_on=STORE_TRANSIENT,
        jitter=0.5,
        jitter_seed=zlib.crc32(worker_id.encode("utf-8")),
    )


class _Heartbeat(threading.Thread):
    """Extends one lease on an interval until stopped (or the lease is lost).

    Runs against the same :class:`ResultsStore` object — connections are
    per-thread, so the beat never interleaves with the main thread's
    transaction mid-statement.  A failed beat (lock contention) is skipped,
    not retried: the next interval tries again, and the lease is sized to
    survive several missed beats.
    """

    def __init__(
        self,
        store: ResultsStore,
        shard_id: str,
        worker_id: str,
        interval: float,
        lease_seconds: float,
    ) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{worker_id}")
        self._store = store
        self._shard_id = shard_id
        self._worker_id = worker_id
        self._interval = interval
        self._lease_seconds = lease_seconds
        self._stop_event = threading.Event()
        self.beats = 0
        self.lost = False

    def run(self) -> None:
        while not self._stop_event.wait(self._interval):
            try:
                alive = self._store.heartbeat(
                    self._shard_id, self._worker_id, self._lease_seconds
                )
            except STORE_TRANSIENT:
                continue
            if not alive:
                # Expired and possibly re-dispatched.  Keep computing: the
                # commit is idempotent, so finishing costs nothing and may
                # still win the race.
                self.lost = True
                return
            self.beats += 1

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=5.0)


@dataclass(frozen=True)
class WorkerOptions:
    """Everything a worker needs beyond the store path."""

    worker_id: str
    lease_seconds: float = 30.0
    #: Beat interval; default ``lease_seconds / 3`` (several beats per lease).
    heartbeat_interval: "float | None" = None
    poll_seconds: float = 0.2
    #: Stop after this many commits (``None`` = run until the sweep finishes).
    max_shards: "int | None" = None
    #: Intra-shard trial parallelism (the existing engine's ``workers=``).
    workers: "int | None" = None
    chaos: "ChaosSchedule | None" = None
    retry: "RetryPolicy | None" = None
    breaker_threshold: int = 3
    breaker_cooldown: int = 2

    def resolved_retry(self) -> RetryPolicy:
        return self.retry if self.retry is not None else default_store_retry(self.worker_id)

    def resolved_heartbeat_interval(self) -> float:
        if self.heartbeat_interval is not None:
            return self.heartbeat_interval
        return max(self.lease_seconds / 3.0, 0.01)


@dataclass
class WorkerSummary:
    """What one worker process did, for logs and reconciliation."""

    worker_id: str
    claimed: int = 0
    committed: int = 0
    duplicates: int = 0
    released: int = 0
    samples_total: int = 0
    drained: bool = False
    breaker_trips: int = 0
    chaos_injected: list = field(default_factory=list)
    ledger_stages: dict = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "claimed": self.claimed,
            "committed": self.committed,
            "duplicates": self.duplicates,
            "released": self.released,
            "samples_total": self.samples_total,
            "drained": self.drained,
            "breaker_trips": self.breaker_trips,
            "chaos_injected": [list(entry) for entry in self.chaos_injected],
            "ledger_stages": dict(self.ledger_stages),
        }


class Worker:
    """One worker process's claim/run/commit loop over a results store."""

    def __init__(
        self,
        store: "ResultsStore | str | os.PathLike",
        options: WorkerOptions,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.store = store if isinstance(store, ResultsStore) else ResultsStore(store)
        self.options = options
        self._sleep = sleep
        self._retry = options.resolved_retry()
        self._breaker = CircuitBreaker(
            failure_threshold=options.breaker_threshold,
            cooldown_rounds=options.breaker_cooldown,
        )
        self._chaos = ChaosState(options.chaos) if options.chaos else None
        self._drain_requested = False
        self._spec: "SweepSpec | None" = None

    # -- drain ---------------------------------------------------------------

    def request_drain(self) -> None:
        """Finish the in-flight shard, commit it, then exit the loop."""
        self._drain_requested = True

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main thread only)."""

        def _handler(signum: int, frame: object) -> None:
            self.request_drain()

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    # -- store calls under retry + breaker -----------------------------------

    def _guarded(self, label: str, op: Callable[[], Any]) -> Any:
        """One store call under the retry policy, feeding the breaker."""
        try:
            result, _attempts = run_with_retry(
                lambda attempt: op(), self._retry, sleep=self._sleep
            )
        except STORE_TRANSIENT:
            self._breaker.record_failure()
            raise
        self._breaker.record_success()
        return result

    # -- the loop ------------------------------------------------------------

    def _load_spec(self) -> SweepSpec:
        if self._spec is None:
            raw = self._guarded("spec", self.store.spec)
            if raw is None:
                raise StoreError(
                    f"store {self.store.path} holds no sweep spec — "
                    "initialise it with the coordinator first"
                )
            self._spec = SweepSpec.from_json(raw)
        return self._spec

    def run(self) -> WorkerSummary:
        """Run until the sweep finishes, ``max_shards`` commits land, or a
        drain is requested.  Returns the reconciled summary."""
        opts = self.options
        summary = WorkerSummary(worker_id=opts.worker_id)
        ledger = SampleLedger()
        claim_ordinal = 0
        while not self._drain_requested:
            self._breaker.tick()
            if not self._breaker.allow():
                self._sleep(opts.poll_seconds)
                continue
            try:
                if self._guarded("finished", self.store.finished):
                    break
                lease = self._guarded(
                    "claim",
                    lambda: self.store.claim(opts.worker_id, opts.lease_seconds),
                )
            except STORE_TRANSIENT:
                self._sleep(opts.poll_seconds)
                continue
            if lease is None:
                # Everything claimable is leased out; wait for commits or
                # expiries (a crashed holder's shard becomes claimable again).
                self._sleep(opts.poll_seconds)
                continue
            summary.claimed += 1
            action = self._chaos.draw(opts.worker_id, claim_ordinal) if self._chaos else None
            claim_ordinal += 1
            if action is not None:
                summary.chaos_injected.append((opts.worker_id, claim_ordinal - 1, action))
            self._run_one(lease, action, summary, ledger)
            if opts.max_shards is not None and summary.committed >= opts.max_shards:
                break
        summary.drained = self._drain_requested
        summary.breaker_trips = self._breaker.trips
        # Integer-exact reconciliation: the ledger recorded one stage per
        # committed shard; its total must equal the summed commit totals.
        summary.samples_total = ledger.reconcile(summary.samples_total)
        summary.ledger_stages = dict(ledger.stages)
        return summary

    def _run_one(
        self,
        lease: Lease,
        action: "str | None",
        summary: WorkerSummary,
        ledger: SampleLedger,
    ) -> None:
        opts = self.options
        spec = self._load_spec()
        shard = lease.shard
        beat: "_Heartbeat | None" = None
        if action != "skip-heartbeat":
            beat = _Heartbeat(
                self.store,
                shard.shard_id,
                opts.worker_id,
                opts.resolved_heartbeat_interval(),
                opts.lease_seconds,
            )
            beat.start()
        try:
            result = run_shard(spec, shard.index, workers=opts.workers)
        finally:
            if beat is not None:
                beat.stop()

        if action == "kill":
            # Crash at the worst point: work done, commit not yet attempted.
            # From the store's perspective this is indistinguishable from a
            # worker dying mid-shard — the lease expires and the shard is
            # re-dispatched.  os._exit as the no-SIGKILL fallback.
            if hasattr(signal, "SIGKILL"):
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(137)
        if action in ("late-commit", "skip-heartbeat"):
            # Outlive the lease, then commit anyway: either it lands (shard
            # not yet re-claimed) or it is a recorded duplicate.
            chaos = self._chaos.schedule if self._chaos else ChaosSchedule()
            stall = max(0.0, lease.deadline - time.time()) + chaos.stall_seconds
            self._sleep(stall)

        committed = self._guarded(
            "commit",
            lambda: self.store.commit(
                shard.shard_id,
                opts.worker_id,
                result={"index": result.index, "point": result.point},
                trace=result.trace,
                samples_total=result.samples_total,
                trials_total=result.trials_total,
            ),
        )
        if committed:
            summary.committed += 1
            summary.samples_total += result.samples_total
            ledger.record(f"shard-{shard.index}", result.samples_total)
        else:
            summary.duplicates += 1

        if action == "duplicate-commit":
            # A second completion of the same shard must always be a no-op.
            again = self._guarded(
                "commit",
                lambda: self.store.commit(
                    shard.shard_id,
                    opts.worker_id,
                    result={"index": result.index, "point": result.point},
                    trace=result.trace,
                    samples_total=result.samples_total,
                    trials_total=result.trials_total,
                ),
            )
            if again:
                raise StoreError(
                    f"shard {shard.shard_id} committed twice — idempotency broken"
                )
            summary.duplicates += 1


def worker_main(
    store_path: "str | os.PathLike",
    options: WorkerOptions,
    *,
    emit: Callable[[str], None] = print,
) -> WorkerSummary:
    """Entry point behind ``repro worker``: signals wired, summary printed
    as one JSON line (machine-tailable from the coordinator's logs)."""
    worker = Worker(store_path, options)
    worker.install_signal_handlers()
    summary = worker.run()
    emit(json.dumps({"worker_summary": summary.to_json()}, sort_keys=True))
    return summary
