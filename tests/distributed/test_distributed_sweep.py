"""Byte-identity and chaos-matrix tests for the distributed sweep.

The acceptance criterion of the whole subsystem: a sweep distributed over
any number of workers — under scripted kills, lease expiries, duplicate
completions, skipped heartbeats, and lock contention — assembles into a
:class:`SweepResult` and trace **byte-identical** to the serial
``complexity_sweep`` of the same spec, with per-shard ledgers reconciling
exactly (zero drift).
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.distributed import (
    ChaosSchedule,
    ResultsStore,
    Shard,
    StoreError,
    SweepSpec,
    Worker,
    WorkerOptions,
    assemble,
    create_store,
    run_fleet,
    run_local,
    run_shard,
    summarize,
)
from repro.distributed import coordinator
from repro.distributed.store import open_store
from repro.experiments.sweeps import complexity_sweep, sweep_fingerprint
from repro.observability.trace import RecordingTracer, canonical_jsonl

SPEC = SweepSpec(
    axis="n", values=(48.0, 64.0), n=64, k=3, eps=0.3,
    trials=2, bisection_steps=1, seed=7,
)
SPEC3 = SPEC.with_values((48.0, 56.0, 64.0))


@pytest.fixture(scope="module")
def serial():
    """The serial ground truth for SPEC: (result, canonical trace bytes)."""
    tracer = RecordingTracer()
    result = complexity_sweep(
        "n", list(SPEC.values), n=SPEC.n, k=SPEC.k, eps=SPEC.eps,
        trials=SPEC.trials, bisection_steps=SPEC.bisection_steps,
        rng=SPEC.seed, trace=tracer,
    )
    return result, canonical_jsonl(tracer.events)


@pytest.fixture(scope="module")
def serial3():
    tracer = RecordingTracer()
    result = complexity_sweep(
        "n", list(SPEC3.values), n=SPEC3.n, k=SPEC3.k, eps=SPEC3.eps,
        trials=SPEC3.trials, bisection_steps=SPEC3.bisection_steps,
        rng=SPEC3.seed, trace=tracer,
    )
    return result, canonical_jsonl(tracer.events)


def assert_matches_serial(store: ResultsStore, serial_pair) -> None:
    """Assembled result AND trace byte-identical; zero accounting drift."""
    serial_result, serial_trace = serial_pair
    tracer = RecordingTracer()
    result = assemble(store, trace=tracer)
    assert result.points == serial_result.points
    assert result.exponent == serial_result.exponent
    assert canonical_jsonl(tracer.events) == serial_trace
    report = summarize(store)  # also checks queue invariants
    assert report.total_drift == 0
    assert all(s.drift == 0 for s in report.shards)


class TestSpec:
    def test_fingerprint_matches_serial_checkpoint_fingerprint(self):
        fp = sweep_fingerprint(
            "n", list(SPEC.values), n=SPEC.n, k=SPEC.k, eps=SPEC.eps,
            trials=SPEC.trials, bisection_steps=SPEC.bisection_steps,
            config=SPEC.config, backend=SPEC.backend, seed=SPEC.seed,
        )
        assert SPEC.fingerprint() == fp

    def test_json_round_trip_preserves_identity(self):
        clone = SweepSpec.from_json(SPEC.to_json())
        assert clone.fingerprint() == SPEC.fingerprint()
        assert [clone.shard_id(i) for i in range(2)] == [
            SPEC.shard_id(i) for i in range(2)
        ]

    def test_shard_ids_are_content_derived_and_distinct(self):
        ids = [s.shard_id for s in SPEC.shards()]
        assert len(set(ids)) == len(ids)
        # A different seed is a different sweep → different shard ids.
        other = SweepSpec(
            axis="n", values=SPEC.values, n=SPEC.n, k=SPEC.k, eps=SPEC.eps,
            trials=SPEC.trials, bisection_steps=SPEC.bisection_steps, seed=8,
        )
        assert other.shard_id(0) != SPEC.shard_id(0)

    @pytest.mark.parametrize("backend", ["pods16", "cdkl22"])
    @pytest.mark.parametrize("task", ["identity", "closeness"])
    @pytest.mark.parametrize(
        "axis, values, direction",
        [
            ("n", (512.0, 2048.0, 8192.0, 65536.0), 1),
            ("k", (2.0, 4.0, 8.0, 16.0), 1),
            ("eps", (0.1, 0.2, 0.3, 0.4), -1),
        ],
    )
    def test_shard_costs_are_monotone_along_each_axis(
        self, task, backend, axis, values, direction
    ):
        """A shard's price is its point's budget: it grows with n and k and
        shrinks with ε, so the store claims the longest shard first."""
        spec = SweepSpec(
            axis=axis, values=values, n=4096, k=4, eps=0.3, trials=2,
            bisection_steps=1, seed=7, task=task, backend=backend,
        )
        costs = [shard.payload["cost"] for shard in spec.shards()]
        steps = [direction * (b - a) for a, b in zip(costs, costs[1:])]
        assert all(step > 0 for step in steps), costs

    def test_store_without_costs_resumes_lowest_index_first(self, tmp_path):
        """A store enqueued before shards were priced keeps its payloads on
        resume (enqueue is insert-or-ignore) and is drained in index order;
        a fresh store of the same sweep goes costliest first."""
        unpriced = [
            Shard(shard.shard_id, shard.index, {"index": shard.index, "value": shard.payload["value"]})
            for shard in SPEC3.shards()
        ]
        old = tmp_path / "old.sqlite"
        open_store(old, SPEC3.fingerprint(), SPEC3.to_json(), unpriced).close()
        resumed = create_store(old, SPEC3)
        fresh = create_store(tmp_path / "fresh.sqlite", SPEC3)
        for store, expected in ((resumed, [0, 1, 2]), (fresh, [2, 1, 0])):
            assert [store.claim("w0", 10.0).shard.index for _ in range(3)] == expected
            store.close()

    def test_malformed_spec_rejected(self):
        data = SPEC.to_json()
        data["extra"] = 1
        with pytest.raises(ValueError, match="unknown keys"):
            SweepSpec.from_json(data)

    def test_run_shard_is_deterministic(self):
        a = run_shard(SPEC, 0)
        b = run_shard(SPEC, 0)
        assert a.point == b.point
        assert a.samples_total == b.samples_total
        assert canonical_jsonl(list(a.trace)) == canonical_jsonl(list(b.trace))


class TestLocalDrain:
    def test_single_worker_matches_serial(self, tmp_path, serial):
        store = create_store(tmp_path / "s.sqlite", SPEC)
        summary = run_local(store)
        assert summary.committed == 2
        assert summary.samples_total == sum(
            r.samples_total for r in store.results()
        )
        assert_matches_serial(store, serial)

    def test_resume_after_partial_run(self, tmp_path, serial):
        """Crash-recovery: a second coordinator run against the same store
        keeps committed shards and finishes only the rest."""
        store = create_store(tmp_path / "s.sqlite", SPEC)
        first = Worker(
            store, WorkerOptions(worker_id="a", lease_seconds=60.0, max_shards=1)
        ).run()
        assert first.committed == 1
        store2 = create_store(tmp_path / "s.sqlite", SPEC)  # re-initialise
        second = run_local(store2, worker_id="b")
        assert second.committed == 1  # only the remaining shard
        assert_matches_serial(store2, serial)

    def test_mismatched_spec_refused(self, tmp_path):
        create_store(tmp_path / "s.sqlite", SPEC)
        other = SweepSpec(
            axis="n", values=SPEC.values, n=SPEC.n, k=SPEC.k, eps=SPEC.eps,
            trials=SPEC.trials, bisection_steps=SPEC.bisection_steps, seed=99,
        )
        from repro.distributed import StoreError

        with pytest.raises(StoreError, match="different sweep"):
            create_store(tmp_path / "s.sqlite", other)


def run_worker_thread(store, options):
    """Run a Worker in a thread; returns (thread, summary-slot)."""
    slot = {}

    def target():
        slot["summary"] = Worker(store, options).run()

    thread = threading.Thread(target=target)
    thread.start()
    return thread, slot


class TestChaosMatrix:
    """Scripted fault schedules, each pinning one failure edge.  Process
    kills live in test_fault_tolerance.py (they need real subprocesses);
    everything else is exercised in-process for speed and determinism."""

    def test_late_commit_with_no_contender_still_lands(self, tmp_path, serial):
        """A worker stalling past its own lease deadline — with nobody else
        around — must still commit (the work is not thrown away)."""
        store = create_store(tmp_path / "s.sqlite", SPEC)
        chaos = ChaosSchedule(
            script=(("w0", 0, "late-commit"),), stall_seconds=0.1
        )
        summary = run_local(store, worker_id="w0", lease_seconds=0.25, chaos=chaos)
        assert summary.committed == 2
        assert summary.duplicates == 0
        assert_matches_serial(store, serial)

    def test_lease_expiry_with_late_duplicate_completion(self, tmp_path, serial):
        """The headline interleaving: w0 stalls past its lease, w1 re-claims
        and commits the shard, w0's late completion is discarded as a
        duplicate — and the assembled sweep is still byte-identical."""
        store = create_store(tmp_path / "s.sqlite", SPEC)
        straggler = WorkerOptions(
            worker_id="w0",
            lease_seconds=0.3,
            poll_seconds=0.05,
            chaos=ChaosSchedule(script=(("w0", 0, "late-commit"),), stall_seconds=1.0),
        )
        thread, slot = run_worker_thread(store, straggler)
        # Only start the rescuer once w0 actually holds a lease — otherwise
        # the rescuer could finish the whole sweep before w0 even claims.
        deadline = time.monotonic() + 10.0
        while store.event_tally()["claim"] < 1:
            assert time.monotonic() < deadline, "straggler never claimed"
            time.sleep(0.01)
        rescuer = run_local(
            store, worker_id="w1", lease_seconds=0.3, chaos=None
        )
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        tally = store.event_tally()
        assert tally["expire"] >= 1, "w0's lease never expired"
        assert tally["duplicate"] >= 1, "w0's late completion was not recorded"
        assert slot["summary"].duplicates >= 1
        assert rescuer.committed >= 1
        assert_matches_serial(store, serial)

    def test_skipped_heartbeat_expires_lease_under_live_worker(
        self, tmp_path, serial
    ):
        """A stalled-but-alive worker (no heartbeats) loses its lease; its
        eventual commit is resolved idempotently either way."""
        store = create_store(tmp_path / "s.sqlite", SPEC)
        chaos = ChaosSchedule(
            script=(("w0", 0, "skip-heartbeat"),), stall_seconds=0.05
        )
        summary = run_local(store, worker_id="w0", lease_seconds=0.2, chaos=chaos)
        assert summary.committed + summary.duplicates >= 2
        assert_matches_serial(store, serial)

    def test_heartbeats_keep_slow_shard_alive(self, tmp_path):
        """With heartbeats flowing, a lease far shorter than the shard's
        compute time never expires.  Uses a deliberately heavy spec so each
        shard outlives several lease periods."""
        heavy = SweepSpec(
            axis="n", values=(128.0, 192.0), n=192, k=4, eps=0.25,
            trials=12, bisection_steps=6, seed=9,
        )
        store = create_store(tmp_path / "s.sqlite", heavy)
        options = WorkerOptions(
            worker_id="w0", lease_seconds=0.1, heartbeat_interval=0.02,
        )
        summary = Worker(store, options).run()
        assert summary.committed == 2
        tally = store.event_tally()
        assert tally["heartbeat"] >= 1
        assert tally["expire"] == 0
        tracer = RecordingTracer()
        serial_result = complexity_sweep(
            "n", list(heavy.values), n=heavy.n, k=heavy.k, eps=heavy.eps,
            trials=heavy.trials, bisection_steps=heavy.bisection_steps,
            rng=heavy.seed, trace=tracer,
        )
        assert_matches_serial(store, (serial_result, canonical_jsonl(tracer.events)))

    def test_three_workers_contending_on_one_store(self, tmp_path, serial3):
        """Store lock contention: three workers hammering one sqlite file
        (WAL + BEGIN IMMEDIATE + seeded-jitter retry) neither deadlock nor
        corrupt accounting, and assembly is byte-identical."""
        store = create_store(tmp_path / "s.sqlite", SPEC3)
        threads = []
        for i in range(3):
            options = WorkerOptions(
                worker_id=f"w{i}", lease_seconds=30.0, poll_seconds=0.02
            )
            threads.append(run_worker_thread(store, options)[0])
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        assert_matches_serial(store, serial3)
        assert store.event_tally()["commit"] == 3


class TestFleet:
    def test_finished_store_spawns_no_worker(self, tmp_path, serial3):
        store = create_store(tmp_path / "s.sqlite", SPEC3)
        assert run_local(store).committed == 3
        report = run_fleet(store, processes=2)
        assert report.workers_spawned == 0
        assert report.exit_codes == {}
        assert multiprocessing.active_children() == []
        assert_matches_serial(store, serial3)
        assert store.event_tally()["claim"] == 3
        store.close()

    def test_fleet_fails_fast_once_every_worker_has_drained(self, tmp_path, monkeypatch):
        """Workers exiting 0 mid-sweep drained on request and are not
        replaced; with none left the fleet raises at once, naming them,
        instead of idling until its timeout."""
        monkeypatch.setattr(coordinator, "worker_main", lambda path, options, emit: None)
        store = create_store(tmp_path / "s.sqlite", SPEC)
        start = time.monotonic()
        with pytest.raises(StoreError, match=r"every worker has drained \(w0, w1\)"):
            run_fleet(store, processes=2, timeout=60.0)
        assert time.monotonic() - start < 30.0
        assert store.counts()["pending"] == len(SPEC.values)
        store.close()

    def test_fork_refused_while_other_threads_run(self, tmp_path):
        store = create_store(tmp_path / "s.sqlite", SPEC)
        release = threading.Event()
        bystander = threading.Thread(target=release.wait, name="bystander")
        bystander.start()
        try:
            with pytest.raises(RuntimeError, match="bystander"):
                run_fleet(store, processes=2)
        finally:
            release.set()
            bystander.join(timeout=10.0)
        assert not bystander.is_alive()
        assert multiprocessing.active_children() == []
        assert store.event_tally()["claim"] == 0
        store.close()

    def test_request_drain_ends_an_idle_wait(self, tmp_path):
        """An idle worker (every shard leased elsewhere) leaves its wait as
        soon as a drain is requested, not when its poll interval ends."""
        store = create_store(tmp_path / "s.sqlite", SPEC)
        for _ in SPEC.values:
            store.claim("holder", 3600.0)
        waiting = threading.Event()
        woken = []

        class Probe(Worker):
            def pause(self, seconds):
                waiting.set()
                woken.append(super().pause(seconds))
                return woken[-1]

        worker = Probe(store, WorkerOptions(worker_id="idle", poll_seconds=3600.0))
        slot = {}
        thread = threading.Thread(
            target=lambda: slot.update(summary=worker.run()), daemon=True
        )
        thread.start()
        assert waiting.wait(timeout=30.0)
        worker.request_drain()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert woken == [True]
        assert slot["summary"].drained
        store.close()
