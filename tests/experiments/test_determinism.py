"""Determinism regression tests: serial ≡ parallel at any worker count.

The engine's contract is that worker processes are a pure throughput knob:
per-trial ``SeedSequence.spawn`` sub-streams are derived before any work is
scheduled and outcomes are aggregated in trial order, so every derived
artefact — estimates, sweep points, checkpoints — is byte-identical across
worker counts, including a checkpoint/resume that straddles a crash.
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
from repro.distributed import ResultsStore

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

    def test_config_workers_is_execution_only(self):
        serial = acceptance_probability(
            self.WORKLOAD, HistogramTester(3, 0.35, CONFIG), trials=6, rng=2
        )
        threaded = acceptance_probability(
            self.WORKLOAD,
            HistogramTester(3, 0.35, CONFIG.with_workers(2)),
            trials=6,
            rng=2,
            workers=2,
        )
        assert estimate_json(serial) == estimate_json(threaded)


class TestSweepDeterminism:
    VALUES = [400, 800]
    KWARGS = dict(k=3, eps=0.35, config=CONFIG, trials=3, bisection_steps=2)

    def test_complexity_sweep_byte_identical(self):
        payloads = {
            workers: sweep_json(
                complexity_sweep("n", self.VALUES, rng=3, workers=workers, **self.KWARGS)
            )
            for workers in WORKER_COUNTS
        }
        assert len(set(payloads.values())) == 1, payloads

    def test_labelled_sweep_byte_identical_across_workers(self):
        """Ground-truth labelling (memoized projection cache + its own seed
        streams) must not break the worker-count determinism contract."""
        results = [
            complexity_sweep(
                "n", self.VALUES, rng=3, workers=workers,
                label_ground_truth=True, **self.KWARGS,
            )
            for workers in (None, 2)
        ]
        assert len({sweep_json(r) for r in results}) == 1
        assert results[0].ground_truth == results[1].ground_truth
        # Labelled and unlabelled runs agree point for point.
        plain = complexity_sweep("n", self.VALUES, rng=3, **self.KWARGS)
        assert sweep_json(plain) == sweep_json(results[0])

    def test_checkpoint_resume_mid_sweep_across_worker_counts(self, tmp_path):
        """A sweep interrupted under one worker count resumes under another
        to the exact uninterrupted serial result, byte for byte."""
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
                "n", values, rng=3, checkpoint=path, workers=2,
                workloads=dying_workloads, **self.KWARGS,
            )
        assert len(committed_rows(path)) == 2

        resumed = complexity_sweep(
            "n", values, rng=3, checkpoint=path, workers=4, **self.KWARGS
        )
        assert sweep_json(resumed) == sweep_json(uninterrupted)

    def test_checkpoint_fingerprint_excludes_workers(self, tmp_path):
        """A checkpoint written at one worker count must match (and resume
        under) a config carrying a different workers default."""
        path = tmp_path / "sweep.sqlite"
        complexity_sweep("n", self.VALUES, rng=3, checkpoint=path, workers=2,
                         **self.KWARGS)
        kwargs = dict(self.KWARGS)
        kwargs["config"] = CONFIG.with_workers(4)
        resumed = complexity_sweep("n", self.VALUES, rng=3, checkpoint=path, **kwargs)
        assert sweep_json(resumed) == sweep_json(
            complexity_sweep("n", self.VALUES, rng=3, **self.KWARGS)
        )
