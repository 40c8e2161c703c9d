"""Process-level fault tolerance: real kills, real signals, real fleets.

These tests spawn actual ``repro worker`` subprocesses against a shared
store file and verify the crash-consistency story end to end — a worker
SIGKILLed after computing but before committing loses nothing, a SIGTERM
drains gracefully with an exact ledger, and a supervised fleet under a
seeded kill schedule still assembles the byte-identical sweep.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.distributed import (
    ChaosSchedule,
    ResultsStore,
    SweepSpec,
    assemble,
    create_store,
    run_fleet,
    run_local,
    summarize,
)
from repro.experiments.sweeps import complexity_sweep
from repro.observability.trace import RecordingTracer, canonical_jsonl

SPEC = SweepSpec(
    axis="n", values=(48.0, 64.0), n=64, k=3, eps=0.3,
    trials=2, bisection_steps=1, seed=7,
)
#: Heavy enough (~0.3-0.6s per shard) that an external signal reliably
#: lands while a shard is in flight.
HEAVY = SweepSpec(
    axis="n", values=(176.0, 192.0, 208.0, 224.0), n=224, k=4, eps=0.25,
    trials=12, bisection_steps=6, seed=9,
)


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


def serial_pair(spec: SweepSpec):
    tracer = RecordingTracer()
    result = complexity_sweep(
        spec.axis, list(spec.values), n=spec.n, k=spec.k, eps=spec.eps,
        trials=spec.trials, bisection_steps=spec.bisection_steps,
        rng=spec.seed, trace=tracer,
    )
    return result, canonical_jsonl(tracer.events)


def worker_argv(store_path, worker_id, *extra):
    return [
        sys.executable, "-m", "repro", "worker",
        "--store", str(store_path), "--worker-id", worker_id, *extra,
    ]


def spawn_worker(store_path, worker_id, *extra):
    return subprocess.Popen(
        worker_argv(store_path, worker_id, *extra),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_worker_env(),
        text=True,
    )


def wait_for_claim(store_path, *, timeout=30.0) -> None:
    """Block until some worker holds a lease on the store."""
    reader = ResultsStore(store_path)
    try:
        deadline = time.monotonic() + timeout
        while reader.event_tally()["claim"] < 1:
            assert time.monotonic() < deadline, "no worker ever claimed a shard"
            time.sleep(0.02)
    finally:
        reader.close()


class TestKillMidShard:
    def test_sigkilled_worker_loses_nothing(self, tmp_path):
        """Chaos 'kill' fires at the worst moment — shard computed, commit
        not yet attempted.  The lease expires, a later worker recomputes,
        and the assembled sweep is byte-identical with exact accounting."""
        store_path = tmp_path / "sweep.sqlite"
        store = create_store(store_path, SPEC)
        # Seed 5 deterministically draws 'kill' for ("w0", ordinal 0).
        proc = spawn_worker(
            store_path, "w0", "--lease-seconds", "0.8",
            "--chaos-seed", "5", "--chaos-rate", "0.9",
            "--chaos-actions", "kill", "--chaos-max-actions", "1",
        )
        proc.communicate(timeout=60)
        assert proc.returncode == -signal.SIGKILL
        counts = store.counts()
        assert counts["committed"] == 0  # died before its first commit
        assert counts["leased"] == 1  # the orphaned lease is still on the books

        rescue = run_local(store, worker_id="rescue")
        assert rescue.committed == 2
        tally = store.event_tally()
        assert tally["expire"] == 1
        serial_result, serial_trace = serial_pair(SPEC)
        tracer = RecordingTracer()
        result = assemble(store, trace=tracer)
        assert result.points == serial_result.points
        assert canonical_jsonl(tracer.events) == serial_trace
        report = summarize(store)
        assert report.total_drift == 0
        store.close()


class TestGracefulDrain:
    def test_sigterm_finishes_in_flight_shard_and_reconciles(self, tmp_path):
        """SIGTERM mid-sweep: the in-flight shard finishes and commits, no
        further shards are claimed, the exit is clean, and the summary's
        ledger matches the store exactly."""
        store_path = tmp_path / "sweep.sqlite"
        store = create_store(store_path, HEAVY)
        proc = spawn_worker(
            store_path, "w0", "--lease-seconds", "30", "--poll-seconds", "0.05"
        )
        try:
            wait_for_claim(store_path)
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, stderr
        summary = json.loads(stdout.strip().splitlines()[-1])["worker_summary"]
        assert summary["drained"] is True
        assert 1 <= summary["committed"] < len(HEAVY.values)
        counts = store.counts()
        assert counts["committed"] == summary["committed"]  # nothing lost
        assert counts["leased"] == 0  # nothing left dangling
        # The drained worker's per-shard ledger matches what it committed.
        assert len(summary["ledger_stages"]) == summary["committed"]
        assert sum(summary["ledger_stages"].values()) == summary["samples_total"]

        # A fresh worker finishes the remainder; accounting stays exact.
        rescue = run_local(store, worker_id="rescue")
        assert rescue.committed == len(HEAVY.values) - summary["committed"]
        assert store.finished()
        report = summarize(store)
        assert report.total_drift == 0
        workers = {r.worker_id for r in store.results()}
        assert workers == {"w0", "rescue"}
        store.close()


class TestFleetUnderChaos:
    def test_supervised_fleet_with_seeded_kills_is_byte_identical(self, tmp_path):
        """Two supervised subprocess workers under a seeded chaos schedule
        (worker kills, late commits, duplicate completions); the
        coordinator restarts casualties and the final assembly is
        byte-identical to serial."""
        spec = SweepSpec(
            axis="n", values=(32.0, 48.0, 64.0, 80.0), n=80, k=3, eps=0.3,
            trials=2, bisection_steps=1, seed=7,
        )
        store = create_store(tmp_path / "sweep.sqlite", spec)
        # Seed 5 at rate 0.6: w0 draws 'kill' on its first shard; w1 draws
        # late-commit then duplicate-commit (max_actions caps further draws).
        chaos = ChaosSchedule(seed=5, rate=0.6, max_actions=2, stall_seconds=0.1)
        fleet = run_fleet(
            store, processes=2, lease_seconds=1.0, chaos=chaos, timeout=120
        )
        assert fleet.restarts >= 1, f"no worker was ever killed: {fleet}"
        assert store.finished()
        serial_result, serial_trace = serial_pair(spec)
        tracer = RecordingTracer()
        result = assemble(store, trace=tracer)
        assert result.points == serial_result.points
        assert result.exponent == serial_result.exponent
        assert canonical_jsonl(tracer.events) == serial_trace
        report = summarize(store)
        assert report.total_drift == 0
        store.close()
