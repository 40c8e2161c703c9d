"""The crash-consistent sqlite results store: queue, leases, results, audit.

One sqlite file is the *entire* coordination surface of a distributed
sweep: the coordinator enqueues shards into it, workers claim and commit
through it, and ``repro report`` reads the finished sweep back out of it.
There is no network protocol — any process that can open the file (same
host, NFS with proper locking, a synced scratch directory) is a worker.

Crash-consistency contract
--------------------------

* The database runs in WAL mode with ``synchronous=FULL``; every mutation
  (claim, heartbeat, commit, release, expiry) is one ``BEGIN IMMEDIATE``
  transaction, so a worker killed with SIGKILL mid-write leaves either the
  previous state or the new state — never a torn row.
* A shard is *committed* exactly once: results are keyed by the shard's
  parameter fingerprint (``shard_id``), and the commit transaction checks
  the shard's status before inserting.  A late duplicate completion — a
  worker whose lease expired finishing anyway — is recorded as a
  ``duplicate`` audit event and changes nothing.
* A lease is a row with a deadline.  Claiming is atomic (the transaction
  selects the costliest claimable shard — lowest index among equal or
  missing costs — and writes the lease in one step); a crashed or stalled
  worker's lease simply expires, after which
  the shard is claimable again.  Nothing is ever lost: work is re-run from
  its deterministic seed, and idempotent commit guarantees re-runs cannot
  double-count.

Every state transition appends to an ``events`` audit table inside the
same transaction, so the accounting identity

    claims − lease-resolving commits − expiries − releases == lease rows

holds at every point in time (a commit resolves a claim only when it
released a live lease; a straggler committing after its lease was swept
resolves nothing — the expiry already balanced that claim).  Property-
tested in ``tests/distributed/test_queue_properties.py``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

SCHEMA_VERSION = 1

#: Audit-event kinds (a compatibility surface for `repro report --events`).
EVENT_KINDS = (
    "enqueue",
    "claim",
    "heartbeat",
    "expire",
    "commit",
    "duplicate",
    "release",
)


class StoreError(RuntimeError):
    """The store file exists but cannot serve this sweep (wrong schema,
    mismatched fingerprint, or a consistency invariant broke)."""


@dataclass(frozen=True)
class Shard:
    """One unit of distributable work: a sweep point."""

    shard_id: str
    index: int
    payload: dict


@dataclass(frozen=True)
class Lease:
    """A claimed shard: the holder must heartbeat before ``deadline``."""

    shard: Shard
    worker_id: str
    deadline: float


@dataclass(frozen=True)
class CommittedResult:
    """One committed shard read back from the store."""

    shard_id: str
    index: int
    worker_id: str
    result: dict
    trace: tuple
    samples_total: int
    trials_total: int


def open_store(
    path: "str | os.PathLike",
    fingerprint: dict[str, Any],
    spec: dict[str, Any],
    shards: Sequence[Shard],
    *,
    resume: bool = True,
    clock: Callable[[], float] = time.time,
) -> "ResultsStore":
    """Open (or create) the store at ``path`` bound to ``fingerprint``,
    with ``shards`` enqueued.

    ``resume=False`` first deletes any existing store file and its WAL
    sidecars, so the run starts over.  Otherwise committed shards are kept,
    and a store bound to a different fingerprint raises :class:`StoreError`.
    """
    path = Path(path)
    if not resume:
        for stale in (path, Path(f"{path}-wal"), Path(f"{path}-shm")):
            stale.unlink(missing_ok=True)
    store = ResultsStore(path, clock=clock)
    try:
        store.initialise(fingerprint, spec, shards)
    except StoreError:
        store.close()
        raise
    return store


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS shards (
    shard_id TEXT PRIMARY KEY,
    idx      INTEGER NOT NULL UNIQUE,
    payload  TEXT NOT NULL,
    status   TEXT NOT NULL DEFAULT 'pending'
             CHECK (status IN ('pending', 'committed'))
);
CREATE TABLE IF NOT EXISTS leases (
    shard_id   TEXT PRIMARY KEY REFERENCES shards(shard_id),
    worker_id  TEXT NOT NULL,
    claimed_at REAL NOT NULL,
    deadline   REAL NOT NULL,
    heartbeats INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS results (
    shard_id      TEXT PRIMARY KEY REFERENCES shards(shard_id),
    idx           INTEGER NOT NULL UNIQUE,
    worker_id     TEXT NOT NULL,
    result        TEXT NOT NULL,
    trace         TEXT NOT NULL,
    samples_total INTEGER NOT NULL,
    trials_total  INTEGER NOT NULL,
    committed_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    seq       INTEGER PRIMARY KEY AUTOINCREMENT,
    at        REAL NOT NULL,
    kind      TEXT NOT NULL,
    shard_id  TEXT,
    worker_id TEXT,
    detail    TEXT
);
"""


class ResultsStore:
    """Durable shard queue + results index over one sqlite file.

    Safe for concurrent use from many processes (sqlite locking + immediate
    transactions) and from many threads of one process (one connection per
    thread).  ``clock`` is injectable so lease expiry is testable without
    sleeping; workers on different hosts only need clocks agreeing to
    within a lease duration.
    """

    def __init__(
        self,
        path: "str | os.PathLike",
        *,
        clock: Callable[[], float] = time.time,
        busy_timeout_s: float = 5.0,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._busy_timeout_s = busy_timeout_s
        self._local = threading.local()
        # executescript manages its own transaction (and would commit an
        # explicit one out from under us), so DDL runs outside _txn().
        self._conn().executescript(_SCHEMA)
        with self._txn() as cur:
            row = cur.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                cur.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            elif int(row[0]) != SCHEMA_VERSION:
                raise StoreError(
                    f"store {self.path} has schema version {row[0]}, "
                    f"this build speaks {SCHEMA_VERSION}"
                )

    # -- connection plumbing --------------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(
                self.path,
                timeout=self._busy_timeout_s,
                isolation_level=None,  # explicit BEGIN IMMEDIATE below
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=FULL")
            conn.execute(f"PRAGMA busy_timeout={int(self._busy_timeout_s * 1000)}")
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close this thread's connection (other threads' stay open).

        The next call on this thread reopens it.  Close before ``fork()``:
        SQLite forbids using a connection in a child it was inherited by.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    class _Txn:
        def __init__(self, conn: sqlite3.Connection) -> None:
            self._conn = conn

        def __enter__(self) -> sqlite3.Cursor:
            self._conn.execute("BEGIN IMMEDIATE")
            return self._conn.cursor()

        def __exit__(self, exc_type: object, *rest: object) -> bool:
            if exc_type is None:
                self._conn.execute("COMMIT")
            else:
                self._conn.execute("ROLLBACK")
            return False

    def _txn(self) -> "ResultsStore._Txn":
        """One write transaction; raises ``sqlite3.OperationalError`` when
        the write lock cannot be taken within the busy timeout (workers
        wrap calls in their seeded-jitter retry policy)."""
        return self._Txn(self._conn())

    def _event(
        self,
        cur: sqlite3.Cursor,
        kind: str,
        shard_id: "str | None",
        worker_id: "str | None",
        detail: str = "",
    ) -> None:
        assert kind in EVENT_KINDS, kind
        cur.execute(
            "INSERT INTO events (at, kind, shard_id, worker_id, detail) "
            "VALUES (?, ?, ?, ?, ?)",
            (self._clock(), kind, shard_id, worker_id, detail),
        )

    # -- sweep identity -------------------------------------------------------

    def initialise(
        self,
        fingerprint: dict[str, Any],
        spec: dict[str, Any],
        shards: Sequence[Shard],
    ) -> int:
        """Bind the store to a sweep and enqueue its shards (idempotent).

        A fresh store records the fingerprint and enqueues every shard; an
        existing store must carry the *same* fingerprint (resuming a
        different sweep through the same file would splice incompatible
        results together) and the enqueue is a no-op for shards already
        present.  Returns the number of newly enqueued shards.
        """
        canonical = json.dumps(fingerprint, sort_keys=True)
        with self._txn() as cur:
            row = cur.execute(
                "SELECT value FROM meta WHERE key = 'fingerprint'"
            ).fetchone()
            if row is None:
                cur.execute(
                    "INSERT INTO meta (key, value) VALUES ('fingerprint', ?)",
                    (canonical,),
                )
                cur.execute(
                    "INSERT INTO meta (key, value) VALUES ('spec', ?)",
                    (json.dumps(spec, sort_keys=True),),
                )
            elif row[0] != canonical:
                raise StoreError(
                    f"store {self.path} belongs to a different sweep "
                    "(fingerprint mismatch) — point the run at a fresh store "
                    "or delete this one deliberately"
                )
            new = 0
            for shard in shards:
                cur.execute(
                    "INSERT OR IGNORE INTO shards (shard_id, idx, payload) "
                    "VALUES (?, ?, ?)",
                    (shard.shard_id, shard.index, json.dumps(shard.payload)),
                )
                if cur.rowcount:
                    new += 1
                    self._event(cur, "enqueue", shard.shard_id, None)
            return new

    def fingerprint(self) -> "dict[str, Any] | None":
        row = (
            self._conn()
            .execute("SELECT value FROM meta WHERE key = 'fingerprint'")
            .fetchone()
        )
        return json.loads(row[0]) if row else None

    def spec(self) -> "dict[str, Any] | None":
        row = (
            self._conn()
            .execute("SELECT value FROM meta WHERE key = 'spec'")
            .fetchone()
        )
        return json.loads(row[0]) if row else None

    # -- the lease state machine ---------------------------------------------

    def claim(self, worker_id: str, lease_seconds: float) -> "Lease | None":
        """Atomically claim the costliest claimable shard.

        Shards are ranked by the ``cost`` in their payload, highest first,
        so the longest shard starts first and the fleet's makespan is not
        set by a large shard claimed last.  Ties go to the lowest index;
        payloads without a cost (a store enqueued before shards were
        priced) rank after every priced shard, in index order.

        Claimable = pending with no lease, or pending whose lease deadline
        has passed (the previous holder crashed or stalled; its expiry is
        recorded and the shard re-dispatched).  Returns ``None`` when
        nothing is claimable *right now* — the caller distinguishes "all
        work finished" from "all work leased out" via :meth:`finished`.
        """
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be positive, got {lease_seconds}")
        now = self._clock()
        with self._txn() as cur:
            row = cur.execute(
                """
                SELECT s.shard_id, s.idx, s.payload, l.worker_id, l.deadline
                FROM shards s LEFT JOIN leases l ON l.shard_id = s.shard_id
                WHERE s.status = 'pending'
                  AND (l.shard_id IS NULL OR l.deadline <= ?)
                ORDER BY json_extract(s.payload, '$.cost') DESC, s.idx
                LIMIT 1
                """,
                (now,),
            ).fetchone()
            if row is None:
                return None
            shard_id, idx, payload, old_worker, old_deadline = row
            if old_worker is not None:
                self._event(
                    cur,
                    "expire",
                    shard_id,
                    old_worker,
                    f"lease deadline {old_deadline:.3f} passed at {now:.3f}; "
                    f"re-dispatched to {worker_id}",
                )
                cur.execute("DELETE FROM leases WHERE shard_id = ?", (shard_id,))
            deadline = now + lease_seconds
            cur.execute(
                "INSERT INTO leases (shard_id, worker_id, claimed_at, deadline) "
                "VALUES (?, ?, ?, ?)",
                (shard_id, worker_id, now, deadline),
            )
            self._event(cur, "claim", shard_id, worker_id)
            shard = Shard(shard_id=shard_id, index=idx, payload=json.loads(payload))
            return Lease(shard=shard, worker_id=worker_id, deadline=deadline)

    def heartbeat(self, shard_id: str, worker_id: str, lease_seconds: float) -> bool:
        """Extend a held lease; ``False`` means the lease was lost.

        A lost lease (expired and re-dispatched, or the shard already
        committed by someone else) is *not* an error for the beating worker
        — it should finish and attempt its idempotent commit anyway; the
        store decides whose result counts.
        """
        now = self._clock()
        with self._txn() as cur:
            cur.execute(
                "UPDATE leases SET deadline = ?, heartbeats = heartbeats + 1 "
                "WHERE shard_id = ? AND worker_id = ? AND deadline > ?",
                (now + lease_seconds, shard_id, worker_id, now),
            )
            if not cur.rowcount:
                return False
            self._event(cur, "heartbeat", shard_id, worker_id)
            return True

    def expire_leases(self) -> list[str]:
        """Drop every lease past its deadline (pending shards only).

        Claim does this lazily one shard at a time; the coordinator calls
        this eagerly so `repro report` shows stragglers promptly.  Returns
        the affected shard ids.
        """
        now = self._clock()
        with self._txn() as cur:
            rows = cur.execute(
                """
                SELECT l.shard_id, l.worker_id, l.deadline
                FROM leases l JOIN shards s ON s.shard_id = l.shard_id
                WHERE l.deadline <= ? AND s.status = 'pending'
                ORDER BY s.idx
                """,
                (now,),
            ).fetchall()
            expired = []
            for shard_id, worker_id, deadline in rows:
                cur.execute("DELETE FROM leases WHERE shard_id = ?", (shard_id,))
                self._event(
                    cur,
                    "expire",
                    shard_id,
                    worker_id,
                    f"lease deadline {deadline:.3f} passed at {now:.3f}",
                )
                expired.append(shard_id)
            return expired

    def release(self, shard_id: str, worker_id: str) -> bool:
        """Voluntarily give a claimed shard back (graceful drain)."""
        with self._txn() as cur:
            cur.execute(
                "DELETE FROM leases WHERE shard_id = ? AND worker_id = ?",
                (shard_id, worker_id),
            )
            if not cur.rowcount:
                return False
            self._event(cur, "release", shard_id, worker_id)
            return True

    def commit(
        self,
        shard_id: str,
        worker_id: str,
        *,
        result: dict[str, Any],
        trace: Sequence[dict],
        samples_total: int,
        trials_total: int,
    ) -> bool:
        """Idempotently commit a shard's result; ``False`` = duplicate.

        The transaction checks the shard's status, inserts the result row,
        flips the status, and drops *any* lease on the shard (including a
        re-dispatched one — the racing worker's commit will be recorded as
        a duplicate).  First writer wins; results are deterministic in the
        shard's seed, so which writer wins never changes the sweep.
        """
        if isinstance(samples_total, bool) or samples_total != int(samples_total):
            raise StoreError(f"samples_total must be an integer, got {samples_total!r}")
        if samples_total < 0:
            raise StoreError(f"samples_total must be non-negative, got {samples_total}")
        with self._txn() as cur:
            row = cur.execute(
                "SELECT status FROM shards WHERE shard_id = ?", (shard_id,)
            ).fetchone()
            if row is None:
                raise StoreError(f"commit for unknown shard {shard_id!r}")
            if row[0] == "committed":
                self._event(
                    cur,
                    "duplicate",
                    shard_id,
                    worker_id,
                    "late completion after re-dispatch; result discarded",
                )
                return False
            idx = cur.execute(
                "SELECT idx FROM shards WHERE shard_id = ?", (shard_id,)
            ).fetchone()[0]
            holder = cur.execute(
                "SELECT worker_id FROM leases WHERE shard_id = ?", (shard_id,)
            ).fetchone()
            cur.execute(
                "INSERT INTO results (shard_id, idx, worker_id, result, trace, "
                "samples_total, trials_total, committed_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    shard_id,
                    idx,
                    worker_id,
                    json.dumps(result, sort_keys=True),
                    json.dumps(list(trace)),
                    int(samples_total),
                    int(trials_total),
                    self._clock(),
                ),
            )
            cur.execute(
                "UPDATE shards SET status = 'committed' WHERE shard_id = ?",
                (shard_id,),
            )
            cur.execute("DELETE FROM leases WHERE shard_id = ?", (shard_id,))
            # The audit identity needs to know whether this commit resolved
            # a claim: a commit with no live lease (the holder's lease was
            # already swept by expire_leases and nobody re-claimed) resolves
            # nothing — the expiry event already balanced that claim.
            detail = (
                f"lease-resolved holder={holder[0]}"
                if holder is not None
                else "lease-none (commit without a live lease)"
            )
            self._event(cur, "commit", shard_id, worker_id, detail)
            return True

    # -- introspection --------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Shard totals: ``{"shards", "committed", "pending", "leased"}``.

        ``leased`` counts *unexpired* leases on pending shards — the true
        in-flight number.
        """
        conn = self._conn()
        shards = conn.execute("SELECT COUNT(*) FROM shards").fetchone()[0]
        committed = conn.execute(
            "SELECT COUNT(*) FROM shards WHERE status = 'committed'"
        ).fetchone()[0]
        leased = conn.execute(
            "SELECT COUNT(*) FROM leases l JOIN shards s ON s.shard_id = l.shard_id "
            "WHERE s.status = 'pending' AND l.deadline > ?",
            (self._clock(),),
        ).fetchone()[0]
        return {
            "shards": shards,
            "committed": committed,
            "pending": shards - committed,
            "leased": leased,
        }

    def finished(self) -> bool:
        c = self.counts()
        return c["shards"] > 0 and c["committed"] == c["shards"]

    def results(self) -> list[CommittedResult]:
        """Committed results in shard-index order (the assembly order)."""
        rows = self._conn().execute(
            "SELECT shard_id, idx, worker_id, result, trace, samples_total, "
            "trials_total FROM results ORDER BY idx"
        ).fetchall()
        return [
            CommittedResult(
                shard_id=r[0],
                index=r[1],
                worker_id=r[2],
                result=json.loads(r[3]),
                trace=tuple(json.loads(r[4])),
                samples_total=r[5],
                trials_total=r[6],
            )
            for r in rows
        ]

    def shards(self) -> list[Shard]:
        rows = self._conn().execute(
            "SELECT shard_id, idx, payload FROM shards ORDER BY idx"
        ).fetchall()
        return [
            Shard(shard_id=r[0], index=r[1], payload=json.loads(r[2])) for r in rows
        ]

    def active_leases(self) -> list[Lease]:
        rows = self._conn().execute(
            "SELECT l.shard_id, s.idx, s.payload, l.worker_id, l.deadline "
            "FROM leases l JOIN shards s ON s.shard_id = l.shard_id "
            "WHERE s.status = 'pending' AND l.deadline > ? ORDER BY s.idx",
            (self._clock(),),
        ).fetchall()
        return [
            Lease(
                shard=Shard(shard_id=r[0], index=r[1], payload=json.loads(r[2])),
                worker_id=r[3],
                deadline=r[4],
            )
            for r in rows
        ]

    def events(self) -> Iterator[dict[str, Any]]:
        """The audit log, oldest first."""
        rows = self._conn().execute(
            "SELECT seq, at, kind, shard_id, worker_id, detail FROM events ORDER BY seq"
        ).fetchall()
        for seq, at, kind, shard_id, worker_id, detail in rows:
            yield {
                "seq": seq,
                "at": at,
                "kind": kind,
                "shard_id": shard_id,
                "worker_id": worker_id,
                "detail": detail,
            }

    def event_tally(self) -> dict[str, int]:
        tally = {kind: 0 for kind in EVENT_KINDS}
        for kind, count in self._conn().execute(
            "SELECT kind, COUNT(*) FROM events GROUP BY kind"
        ).fetchall():
            tally[kind] = count
        return tally

    def check_invariants(self) -> None:
        """Raise :class:`StoreError` if queue accounting is inconsistent.

        The audit identity — every claim is eventually resolved by exactly
        one of commit / expire / release, or is still in flight — plus
        structural checks (no committed shard holds a lease; results and
        committed statuses match one-to-one).
        """
        conn = self._conn()
        tally = self.event_tally()
        active = conn.execute("SELECT COUNT(*) FROM leases").fetchone()[0]
        # Only commits that released a live lease resolve a claim; a commit
        # landing after its lease was swept resolves nothing (the expiry
        # event already balanced that claim).
        resolving_commits = conn.execute(
            "SELECT COUNT(*) FROM events "
            "WHERE kind = 'commit' AND detail LIKE 'lease-resolved%'"
        ).fetchone()[0]
        balance = (
            tally["claim"] - resolving_commits - tally["expire"] - tally["release"]
        )
        if balance != active:
            raise StoreError(
                f"lease accounting broken: claims({tally['claim']}) − "
                f"lease-resolving commits({resolving_commits}) − "
                f"expiries({tally['expire']}) − releases({tally['release']}) "
                f"= {balance} ≠ lease rows {active}"
            )
        orphan = conn.execute(
            "SELECT COUNT(*) FROM leases l JOIN shards s ON s.shard_id = l.shard_id "
            "WHERE s.status = 'committed'"
        ).fetchone()[0]
        if orphan:
            raise StoreError(f"{orphan} lease(s) held on committed shards")
        committed = conn.execute(
            "SELECT COUNT(*) FROM shards WHERE status = 'committed'"
        ).fetchone()[0]
        results = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        if committed != results:
            raise StoreError(
                f"{committed} shards marked committed but {results} result rows"
            )
