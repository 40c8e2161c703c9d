"""Determinism regression tests: serial ≡ parallel.

Two parallel executors share one contract.  Acceptance estimates fan their
trials out over the engine's worker processes: per-trial
``SeedSequence.spawn`` sub-streams are derived before any work is scheduled
and outcomes are aggregated in trial order, so an estimate is byte-identical
at any worker count.  Sweeps run their trials serially and fan their
*points* out over a worker fleet: each point's stream is spawned from the
sweep seed, so a fleet-drained sweep, its trace and its store are
byte-identical to the serial loop, including a checkpoint/resume that
straddles a crash and an executor change.
"""

import json
from dataclasses import asdict

import pytest

from repro.core.config import TesterConfig
from repro.experiments.runner import (
    acceptance_probability,
    robust_acceptance_probability,
)
from repro.experiments.sweeps import (
    HistogramTester,
    StaircaseWorkload,
    _default_workloads,
    _point_to_json,
    complexity_sweep,
)
from repro.distributed import ResultsStore, SweepSpec, distributed_sweep
from repro.observability.trace import RecordingTracer, canonical_jsonl

CONFIG = TesterConfig.practical()
WORKER_COUNTS = (None, 2, 4)


def estimate_json(estimate) -> str:
    return json.dumps(asdict(estimate), sort_keys=True)


def committed_rows(path) -> list:
    """The committed rows of a sweep checkpoint store, in point order."""
    store = ResultsStore(path)
    try:
        return store.results()
    finally:
        store.close()


def sweep_json(result) -> str:
    return json.dumps(
        {
            "axis": result.axis,
            "points": [_point_to_json(p) for p in result.points],
            "exponent": result.exponent,
        },
        sort_keys=True,
    )


class TestAcceptanceDeterminism:
    WORKLOAD = StaircaseWorkload(600, 3)
    TESTER = HistogramTester(3, 0.35, CONFIG)

    def test_acceptance_probability_byte_identical(self):
        payloads = {
            workers: estimate_json(
                acceptance_probability(
                    self.WORKLOAD, self.TESTER, trials=8, rng=11, workers=workers
                )
            )
            for workers in WORKER_COUNTS
        }
        assert len(set(payloads.values())) == 1, payloads

    def test_robust_acceptance_probability_byte_identical(self):
        payloads = {
            workers: estimate_json(
                robust_acceptance_probability(
                    self.WORKLOAD, self.TESTER, trials=8, rng=11, workers=workers
                )
            )
            for workers in WORKER_COUNTS
        }
        assert len(set(payloads.values())) == 1, payloads


class TestSweepDeterminism:
    """The worker fleet is a sweep's only parallel axis: a sweep drained by
    forked worker processes, or resumed across executors, reproduces the
    serial loop byte for byte."""

    VALUES = [400, 800]
    KWARGS = dict(k=3, eps=0.35, config=CONFIG, trials=3, bisection_steps=2)

    @staticmethod
    def spec(values) -> SweepSpec:
        """The stored form of ``complexity_sweep("n", values, rng=3, **KWARGS)``
        (``n=4000`` is that function's default, and part of the fingerprint)."""
        return SweepSpec(
            axis="n", values=tuple(values), n=4000, k=3, eps=0.35, trials=3,
            bisection_steps=2, seed=3, config=CONFIG,
        )

    def test_complexity_sweep_byte_identical(self, tmp_path):
        """Serial loop and a 2-process fleet: same points, same trace."""
        serial_trace, fleet_trace = RecordingTracer(), RecordingTracer()
        serial = complexity_sweep(
            "n", self.VALUES, rng=3, trace=serial_trace, **self.KWARGS
        )
        fleet, _ = distributed_sweep(
            self.spec(self.VALUES), tmp_path / "fleet.sqlite", processes=2,
            trace=fleet_trace,
        )
        assert sweep_json(fleet) == sweep_json(serial)
        assert canonical_jsonl(fleet_trace.events) == canonical_jsonl(
            serial_trace.events
        )

    def test_labelled_sweep_byte_identical_across_workers(self, tmp_path):
        """Ground-truth labelling (its own seed streams) moves no point, and
        a sweep resumed from a fleet-written store labels exactly as the
        plain loop does."""
        path = tmp_path / "sweep.sqlite"
        distributed_sweep(self.spec(self.VALUES), path, processes=2)
        results = [
            complexity_sweep(
                "n", self.VALUES, rng=3, checkpoint=checkpoint,
                label_ground_truth=True, **self.KWARGS,
            )
            for checkpoint in (None, path)
        ]
        plain = complexity_sweep("n", self.VALUES, rng=3, **self.KWARGS)
        assert {sweep_json(r) for r in results} == {sweep_json(plain)}
        assert results[0].ground_truth == results[1].ground_truth

    def test_checkpoint_resume_mid_sweep_across_worker_counts(self, tmp_path):
        """A sweep interrupted in-process resumes under a 2-process fleet to
        the exact uninterrupted serial result, byte for byte."""
        values = [400, 600, 800]
        path = tmp_path / "sweep.sqlite"
        uninterrupted = complexity_sweep("n", values, rng=3, **self.KWARGS)

        calls = []

        def dying_workloads(n, k, eps):
            calls.append(n)
            if len(calls) == 3:
                raise KeyboardInterrupt  # killed mid-sweep, after two points
            return _default_workloads(n, k, eps)

        with pytest.raises(KeyboardInterrupt):
            complexity_sweep(
                "n", values, rng=3, checkpoint=path,
                workloads=dying_workloads, **self.KWARGS,
            )
        assert len(committed_rows(path)) == 2

        resumed, _ = distributed_sweep(self.spec(values), path, processes=2)
        assert sweep_json(resumed) == sweep_json(uninterrupted)
        writers = [row.worker_id for row in committed_rows(path)]
        assert writers[:2] == ["serial", "serial"] and writers[2] != "serial"

    def test_checkpoint_fingerprint_excludes_workers(self, tmp_path):
        """The fingerprint carries no worker count: a store a 2-process
        fleet finished binds the in-process checkpoint of the same sweep,
        whose resume recomputes nothing and reads the same bytes."""
        path = tmp_path / "sweep.sqlite"
        distributed_sweep(self.spec(self.VALUES), path, processes=2)

        def no_workloads(n, k, eps):
            raise AssertionError(f"point n={n} recomputed on resume")

        resumed = complexity_sweep(
            "n", self.VALUES, rng=3, checkpoint=path, workloads=no_workloads,
            **self.KWARGS,
        )
        assert sweep_json(resumed) == sweep_json(
            complexity_sweep("n", self.VALUES, rng=3, **self.KWARGS)
        )
