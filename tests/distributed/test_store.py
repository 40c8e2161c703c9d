"""Unit tests for the crash-consistent results store (lease state machine,
idempotent commit, fingerprint binding, audit accounting)."""

from __future__ import annotations

import threading

import pytest

from repro.distributed.store import Lease, ResultsStore, Shard, StoreError


def make_shards(count: int) -> list[Shard]:
    return [
        Shard(shard_id=f"s{i:02d}", index=i, payload={"index": i, "value": float(i)})
        for i in range(count)
    ]


FP = {"axis": "n", "seed": 7}
SPEC = {"axis": "n", "values": [1.0, 2.0]}


class FakeClock:
    """An injectable, manually advanced clock."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def store(tmp_path, clock):
    s = ResultsStore(tmp_path / "store.sqlite", clock=clock)
    s.initialise(FP, SPEC, make_shards(3))
    yield s
    s.close()


class TestInitialise:
    def test_enqueue_counts_new_shards_once(self, tmp_path, clock):
        store = ResultsStore(tmp_path / "s.sqlite", clock=clock)
        assert store.initialise(FP, SPEC, make_shards(3)) == 3
        assert store.initialise(FP, SPEC, make_shards(3)) == 0  # idempotent

    def test_fingerprint_mismatch_rejected(self, store):
        with pytest.raises(StoreError, match="different sweep"):
            store.initialise({"axis": "k"}, SPEC, make_shards(1))

    def test_fingerprint_and_spec_round_trip(self, store):
        assert store.fingerprint() == FP
        assert store.spec() == SPEC

    def test_reopen_preserves_state(self, tmp_path, clock):
        path = tmp_path / "s.sqlite"
        first = ResultsStore(path, clock=clock)
        first.initialise(FP, SPEC, make_shards(2))
        first.claim("w0", 10.0)
        first.close()
        second = ResultsStore(path, clock=clock)
        assert second.counts() == {
            "shards": 2, "committed": 0, "pending": 2, "leased": 1,
        }


class TestLeaseLifecycle:
    def test_claim_returns_lowest_index(self, store):
        lease = store.claim("w0", 10.0)
        assert lease.shard.index == 0
        assert lease.worker_id == "w0"

    def test_priced_shards_claimed_costliest_first(self, tmp_path, clock):
        """Payload ``cost`` ranks claims, highest first; ties go to the
        lowest index."""
        costs = [1.0, 5.0, 3.0, 5.0]
        priced = ResultsStore(tmp_path / "priced.sqlite", clock=clock)
        priced.initialise(FP, SPEC, [
            Shard(shard_id=f"s{i:02d}", index=i, payload={"index": i, "cost": cost})
            for i, cost in enumerate(costs)
        ])
        order = [priced.claim("w0", 10.0).shard.index for _ in costs]
        assert order == [1, 3, 2, 0]
        priced.close()

    def test_claims_are_exclusive(self, store):
        store.claim("w0", 10.0)
        lease = store.claim("w1", 10.0)
        assert lease.shard.index == 1  # w0 holds shard 0

    def test_exhausted_queue_returns_none(self, store):
        for i in range(3):
            assert store.claim("w0", 10.0) is not None
        assert store.claim("w0", 10.0) is None

    def test_expired_lease_is_reclaimable(self, store, clock):
        store.claim("w0", 10.0)
        clock.advance(11.0)
        lease = store.claim("w1", 10.0)
        assert lease.shard.index == 0
        assert lease.worker_id == "w1"
        assert store.event_tally()["expire"] == 1

    def test_heartbeat_extends_deadline(self, store, clock):
        store.claim("w0", 10.0)
        clock.advance(8.0)
        assert store.heartbeat("s00", "w0", 10.0)
        clock.advance(8.0)  # past the original deadline, inside the extension
        assert store.claim("w1", 10.0).shard.index == 1

    def test_heartbeat_after_expiry_reports_lost(self, store, clock):
        store.claim("w0", 10.0)
        clock.advance(11.0)
        assert not store.heartbeat("s00", "w0", 10.0)

    def test_heartbeat_wrong_worker_reports_lost(self, store):
        store.claim("w0", 10.0)
        assert not store.heartbeat("s00", "w1", 10.0)

    def test_expire_leases_sweeps_all_stale(self, store, clock):
        store.claim("w0", 5.0)
        store.claim("w1", 50.0)
        clock.advance(6.0)
        assert store.expire_leases() == ["s00"]
        assert store.counts()["leased"] == 1

    def test_release_returns_shard_to_queue(self, store):
        store.claim("w0", 10.0)
        assert store.release("s00", "w0")
        assert store.claim("w1", 10.0).shard.index == 0

    def test_release_wrong_worker_is_noop(self, store):
        store.claim("w0", 10.0)
        assert not store.release("s00", "w1")

    def test_nonpositive_lease_rejected(self, store):
        with pytest.raises(ValueError):
            store.claim("w0", 0.0)


class TestIdempotentCommit:
    def commit(self, store, shard_id, worker, samples=100):
        return store.commit(
            shard_id,
            worker,
            result={"point": {"n": 1}},
            trace=[],
            samples_total=samples,
            trials_total=4,
        )

    def test_first_commit_wins(self, store):
        store.claim("w0", 10.0)
        assert self.commit(store, "s00", "w0")
        assert store.counts()["committed"] == 1

    def test_duplicate_commit_discarded_and_recorded(self, store):
        store.claim("w0", 10.0)
        assert self.commit(store, "s00", "w0", samples=100)
        assert not self.commit(store, "s00", "w1", samples=999)
        results = store.results()
        assert len(results) == 1
        assert results[0].worker_id == "w0"
        assert results[0].samples_total == 100  # the late writer changed nothing
        assert store.event_tally()["duplicate"] == 1

    def test_late_commit_after_redispatch(self, store, clock):
        """The full straggler story: w0's lease expires, w1 re-claims and
        commits, w0's late completion must be a duplicate no-op."""
        store.claim("w0", 10.0)
        clock.advance(11.0)
        assert store.claim("w1", 10.0).shard.index == 0
        assert self.commit(store, "s00", "w1")
        assert not self.commit(store, "s00", "w0")
        assert store.results()[0].worker_id == "w1"
        store.check_invariants()

    def test_commit_drops_any_lease(self, store, clock):
        """A commit by the expired original holder while the re-claimer is
        still computing releases the re-claimer's lease too (the shard is
        done; holding a lease on it would break accounting)."""
        store.claim("w0", 10.0)
        clock.advance(11.0)
        store.claim("w1", 10.0)
        assert self.commit(store, "s00", "w0")  # w0 finishes first after all
        assert store.counts()["leased"] == 0
        store.check_invariants()

    def test_commit_unknown_shard_raises(self, store):
        with pytest.raises(StoreError, match="unknown shard"):
            self.commit(store, "nope", "w0")

    def test_commit_rejects_non_integer_samples(self, store):
        store.claim("w0", 10.0)
        with pytest.raises(StoreError, match="integer"):
            store.commit(
                "s00", "w0", result={}, trace=[], samples_total=1.5, trials_total=1
            )

    def test_finished_only_when_all_committed(self, store):
        assert not store.finished()
        for i in range(3):
            store.claim("w0", 10.0)
            self.commit(store, f"s{i:02d}", "w0")
        assert store.finished()

    def test_results_in_index_order(self, store):
        # Commit out of order; read-back must be index order.
        for i in (2, 0, 1):
            store.claim("w0", 10.0)  # claims lowest available, so pre-claim all
        for i in (2, 0, 1):
            self.commit(store, f"s{i:02d}", "w0")
        assert [r.index for r in store.results()] == [0, 1, 2]


class TestDurability:
    def test_wal_mode_active(self, store):
        mode = store._conn().execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_schema_version_mismatch_refused(self, tmp_path, clock):
        path = tmp_path / "s.sqlite"
        store = ResultsStore(path, clock=clock)
        store._conn().execute(
            "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
        )
        store.close()
        with pytest.raises(StoreError, match="schema version"):
            ResultsStore(path, clock=clock)

    def test_thread_local_connections(self, store):
        """Concurrent threads get isolated connections (no cross-thread
        cursor reuse — sqlite objects are not shareable)."""
        errors = []

        def worker(wid):
            try:
                store.claim(wid, 10.0)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.counts()["leased"] == 3
        store.check_invariants()


class TestInvariants:
    def test_accounting_identity_holds_through_lifecycle(self, store, clock):
        store.check_invariants()
        store.claim("w0", 5.0)
        store.check_invariants()
        clock.advance(6.0)
        store.expire_leases()
        store.check_invariants()
        store.claim("w1", 10.0)
        store.commit(
            "s00", "w1", result={}, trace=[], samples_total=1, trials_total=1
        )
        store.check_invariants()
        store.claim("w1", 10.0)
        store.release("s01", "w1")
        store.check_invariants()
