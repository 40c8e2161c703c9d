"""Closeness through the experiments stack: determinism + task identity.

The worker-count contract extends unchanged to paired trials — a closeness
acceptance estimate or sweep is byte-identical serial vs 2 vs 4 workers —
and ``task`` is a fingerprint-*bearing* knob: identity and closeness sweeps
never share checkpoints or shard ids, while a distributed closeness shard
reproduces the serial sweep point exactly.
"""

import json
from dataclasses import asdict

import pytest

from repro.core.config import TesterConfig
from repro.distributed import ResultsStore, StoreError
from repro.distributed.spec import SweepSpec, run_shard
from repro.experiments.runner import (
    acceptance_probability,
    robust_acceptance_probability,
)
from repro.experiments.sweeps import (
    PairedClosenessTester,
    _point_to_json,
    complexity_sweep,
    sweep_fingerprint,
)
from repro.experiments.workloads import BoundPairedWorkload

CONFIG = TesterConfig.practical()
WORKER_COUNTS = (None, 2, 4)

#: A small degenerate-regime grid: every point runs the paired plug-in, so
#: the whole matrix stays cheap while still crossing process boundaries.
VALUES = [200, 400]
SWEEP_KWARGS = dict(
    k=4, eps=0.3, config=CONFIG, trials=3, bisection_steps=2, task="closeness"
)


def estimate_json(estimate) -> str:
    return json.dumps(asdict(estimate), sort_keys=True)


def sweep_json(result) -> str:
    return json.dumps(
        {
            "axis": result.axis,
            "points": [_point_to_json(p) for p in result.points],
            "exponent": result.exponent,
        },
        sort_keys=True,
    )


class TestClosenessAcceptanceDeterminism:
    WORKLOAD = BoundPairedWorkload("identical-staircase", 400, 4, 0.3)
    TESTER = PairedClosenessTester(4, 0.3, CONFIG)

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


class TestClosenessSweepDeterminism:
    def test_complexity_sweep_byte_identical(self):
        payloads = {
            workers: sweep_json(
                complexity_sweep(
                    "n", VALUES, rng=3, workers=workers, **SWEEP_KWARGS
                )
            )
            for workers in WORKER_COUNTS
        }
        assert len(set(payloads.values())) == 1, payloads

    def test_checkpoint_resume_reproduces(self, tmp_path):
        path = tmp_path / "closeness.sqlite"
        first = complexity_sweep(
            "n", VALUES, rng=3, checkpoint=path, workers=2, **SWEEP_KWARGS
        )
        resumed = complexity_sweep(
            "n", VALUES, rng=3, checkpoint=path, workers=4, **SWEEP_KWARGS
        )
        assert sweep_json(first) == sweep_json(resumed)

    def test_ground_truth_labels_are_exact_for_pairs(self):
        """Paired labelling uses the analytic pair distance: identical
        pairs label 0, constructed-far pairs label ≥ eps."""
        result = complexity_sweep(
            "n", VALUES, rng=3, label_ground_truth=True, **SWEEP_KWARGS
        )
        assert result.ground_truth is not None
        for labels in result.ground_truth:
            assert labels["complete"]["upper"] == pytest.approx(0.0, abs=1e-12)
            assert labels["far"]["lower"] >= SWEEP_KWARGS["eps"] - 1e-9


class TestTaskIsFingerprintBearing:
    def test_task_changes_the_fingerprint(self):
        common = dict(
            n=400, k=4, eps=0.3, trials=3, bisection_steps=2,
            config=CONFIG, backend="pods16", seed=3,
        )
        identity = sweep_fingerprint("n", VALUES, task="identity", **common)
        closeness = sweep_fingerprint("n", VALUES, task="closeness", **common)
        assert identity["task"] == "identity"
        assert closeness["task"] == "closeness"
        assert {k: v for k, v in identity.items() if k != "task"} == {
            k: v for k, v in closeness.items() if k != "task"
        }

    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError, match="task"):
            sweep_fingerprint(
                "n", VALUES, n=400, k=4, eps=0.3, trials=3,
                bisection_steps=2, config=CONFIG, backend="pods16",
                seed=3, task="equivalence",
            )

    def test_identity_checkpoint_never_resumes_a_closeness_sweep(self, tmp_path):
        """A checkpoint written under one task is a different experiment:
        the fingerprint mismatch refuses a cross-resume, and only
        ``resume=False`` starts the closeness sweep over."""
        path = tmp_path / "sweep.sqlite"
        kwargs = dict(SWEEP_KWARGS)
        del kwargs["task"]
        complexity_sweep(
            "n", VALUES, rng=3, checkpoint=path, task="identity", **kwargs
        )
        with pytest.raises(StoreError, match="different sweep"):
            complexity_sweep(
                "n", VALUES, rng=3, checkpoint=path, task="closeness", **kwargs
            )

        restarted = complexity_sweep(
            "n", VALUES, rng=3, checkpoint=path, resume=False,
            task="closeness", **kwargs,
        )
        fresh = complexity_sweep("n", VALUES, rng=3, **SWEEP_KWARGS)
        assert sweep_json(restarted) == sweep_json(fresh)
        store = ResultsStore(path)
        try:
            assert store.fingerprint()["task"] == "closeness"
        finally:
            store.close()


class TestClosenessShards:
    def _spec(self):
        return SweepSpec(
            axis="n", values=tuple(VALUES), n=400, k=4, eps=0.3,
            trials=3, bisection_steps=2, seed=3, task="closeness",
            config=CONFIG,
        )

    def test_spec_round_trips_task(self):
        spec = self._spec()
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_task_changes_shard_ids(self):
        closeness = self._spec()
        identity = SweepSpec.from_json(
            {**closeness.to_json(), "task": "identity"}
        )
        assert closeness.shard_id(0) != identity.shard_id(0)

    def test_shard_matches_serial_sweep_point(self):
        spec = self._spec()
        serial = complexity_sweep(
            "n", VALUES, rng=3, **SWEEP_KWARGS
        )
        for index in range(len(VALUES)):
            shard = run_shard(spec, index)
            assert shard.point == _point_to_json(serial.points[index])
            assert shard.samples_total > 0
            assert shard.trials_total > 0
