"""Tests for the complexity sweep driver."""

import json
import math

import pytest

from repro.core.config import TesterConfig
from repro.experiments.estimate import ComplexityEstimate
from repro.experiments.sweeps import (
    SweepPoint,
    _default_workloads,
    _point_from_json,
    _point_to_json,
    complexity_sweep,
    fit_power_law,
)
from repro.distributed import ResultsStore, StoreError
from repro.observability.trace import RecordingTracer, canonical_jsonl

from .test_determinism import committed_rows


def row_bytes(path) -> list:
    """A checkpoint store's committed rows, wall clock stripped."""
    return [
        (row.index, row.result, row.samples_total, row.trials_total,
         canonical_jsonl(list(row.trace)))
        for row in committed_rows(path)
    ]


def dying_after(points: int):
    """Workload factories that simulate a kill once ``points`` are done."""
    calls = []

    def workloads(n, k, eps):
        calls.append(n)
        if len(calls) == points + 1:
            raise KeyboardInterrupt  # simulate a kill mid-sweep
        return _default_workloads(n, k, eps)

    return workloads


class TestFitPowerLaw:
    def test_exact_power(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        ys = [3.0 * x**0.5 for x in xs]
        assert fit_power_law(xs, ys) == pytest.approx(0.5)

    def test_flat(self):
        assert fit_power_law([1, 2, 4], [5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [2.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [2.0])


class TestComplexitySweep:
    CFG = TesterConfig.practical()

    def test_n_sweep_shape(self):
        sweep = complexity_sweep(
            "n", [800, 3200], k=3, eps=0.35, config=self.CFG,
            trials=5, bisection_steps=3, rng=0,
        )
        assert sweep.axis == "n"
        assert [p.n for p in sweep.points] == [800, 3200]
        assert all(p.estimate.samples > 0 for p in sweep.points)
        assert not math.isnan(sweep.exponent)
        # sublinear in n
        assert sweep.exponent < 1.0

    def test_eps_sweep_negative_exponent(self):
        sweep = complexity_sweep(
            "eps", [0.4, 0.2], n=1500, k=3, config=self.CFG,
            trials=5, bisection_steps=3, rng=1,
        )
        assert sweep.exponent < 0  # harder as eps shrinks
        assert sweep.axis_values() == [0.4, 0.2]
        assert len(sweep.samples()) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            complexity_sweep("m", [1, 2])
        with pytest.raises(ValueError):
            complexity_sweep("n", [])


class TestGroundTruthLabels:
    KWARGS = dict(k=3, eps=0.35, config=TesterConfig.practical(),
                  trials=3, bisection_steps=2)

    def test_labels_attached_per_point(self):
        sweep = complexity_sweep(
            "n", [400, 800], rng=5, label_ground_truth=True, **self.KWARGS
        )
        assert sweep.ground_truth is not None
        assert len(sweep.ground_truth) == len(sweep.points)
        for entry in sweep.ground_truth:
            assert set(entry) == {"complete", "far"}
            # Staircase instances are genuine 3-histograms; sawtooth
            # instances are certified eps-far.
            assert entry["complete"]["upper"] <= 1e-9
            assert entry["far"]["lower"] >= 0.35 - 1e-9

    def test_labelling_never_perturbs_points(self):
        plain = complexity_sweep("n", [400, 800], rng=5, **self.KWARGS)
        labelled = complexity_sweep(
            "n", [400, 800], rng=5, label_ground_truth=True, **self.KWARGS
        )
        assert plain.ground_truth is None
        assert plain.points == labelled.points
        assert plain.exponent == labelled.exponent

    def test_labelling_never_perturbs_checkpoints(self, tmp_path):
        path_a, path_b = tmp_path / "a.sqlite", tmp_path / "b.sqlite"
        complexity_sweep("n", [400], rng=5, checkpoint=path_a, **self.KWARGS)
        complexity_sweep(
            "n", [400], rng=5, checkpoint=path_b, label_ground_truth=True,
            **self.KWARGS,
        )
        assert row_bytes(path_a) == row_bytes(path_b)

    def test_resumed_sweep_is_labelled(self, tmp_path):
        path = tmp_path / "sweep.sqlite"
        complexity_sweep("n", [400, 800], rng=5, checkpoint=path, **self.KWARGS)
        resumed = complexity_sweep(
            "n", [400, 800], rng=5, checkpoint=path, label_ground_truth=True,
            **self.KWARGS,
        )
        # Labels are recomputed on resume (memoized, never checkpointed) —
        # every point gets one even if its trials came from the checkpoint.
        assert resumed.ground_truth is not None
        assert len(resumed.ground_truth) == 2


class TestPointJsonRoundTrip:
    POINT = SweepPoint(
        n=1200,
        k=5,
        eps=0.25,
        estimate=ComplexityEstimate(
            samples=431.5, scale=0.75, scale_low=0.5, evaluations=6, target_rate=0.9
        ),
    )

    def test_round_trip_is_identity(self):
        assert _point_from_json(_point_to_json(self.POINT)) == self.POINT

    def test_round_trip_survives_json_text(self):
        # Through an actual JSON encode/decode, as the checkpoint store does.
        data = json.loads(json.dumps(_point_to_json(self.POINT)))
        assert _point_from_json(data) == self.POINT

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="must be an object"):
            _point_from_json([1, 2, 3])

    def test_rejects_unknown_point_key(self):
        data = _point_to_json(self.POINT)
        data["workers"] = 4
        with pytest.raises(ValueError, match="unknown keys.*workers"):
            _point_from_json(data)

    def test_rejects_missing_point_key(self):
        data = _point_to_json(self.POINT)
        del data["eps"]
        with pytest.raises(ValueError, match="missing keys.*eps"):
            _point_from_json(data)

    def test_rejects_malformed_estimate(self):
        data = _point_to_json(self.POINT)
        data["estimate"] = 17.0
        with pytest.raises(ValueError, match="'estimate' must be an object"):
            _point_from_json(data)
        data["estimate"] = dict(_point_to_json(self.POINT)["estimate"], bogus=1)
        with pytest.raises(ValueError, match="unknown keys.*bogus"):
            _point_from_json(data)
        data["estimate"] = {"samples": 1.0}
        with pytest.raises(ValueError, match="missing keys"):
            _point_from_json(data)


class TestCheckpointResume:
    VALUES = [800, 1600, 3200]
    KWARGS = dict(k=3, eps=0.35, config=TesterConfig.practical(),
                  trials=3, bisection_steps=2)

    def test_interrupted_sweep_resumes_to_identical_result(self, tmp_path):
        path = tmp_path / "sweep.sqlite"
        full = complexity_sweep("n", self.VALUES, rng=3, **self.KWARGS)

        with pytest.raises(KeyboardInterrupt):
            complexity_sweep(
                "n", self.VALUES, rng=3, checkpoint=path,
                workloads=dying_after(2), **self.KWARGS,
            )
        # Two completed points survived the crash.
        assert [row.index for row in committed_rows(path)] == [0, 1]

        resumed = complexity_sweep(
            "n", self.VALUES, rng=3, checkpoint=path, **self.KWARGS
        )
        assert resumed == full

    def test_resumed_sweep_trace_is_complete(self, tmp_path):
        """Every committed point replays its stored sub-trace, so a resumed
        sweep's trace equals the uninterrupted sweep's, byte for byte."""
        path = tmp_path / "sweep.sqlite"
        full = RecordingTracer()
        complexity_sweep("n", self.VALUES, rng=3, trace=full, **self.KWARGS)

        with pytest.raises(KeyboardInterrupt):
            complexity_sweep(
                "n", self.VALUES, rng=3, checkpoint=path,
                workloads=dying_after(2), **self.KWARGS,
            )
        resumed = RecordingTracer()
        complexity_sweep(
            "n", self.VALUES, rng=3, checkpoint=path, trace=resumed, **self.KWARGS
        )
        assert canonical_jsonl(resumed.events) == canonical_jsonl(full.events)

    def test_mismatched_fingerprint_restarts(self, tmp_path):
        """A store of a different sweep is refused on resume; only
        ``resume=False`` restarts it."""
        path = tmp_path / "sweep.sqlite"
        complexity_sweep("n", self.VALUES[:2], rng=3, checkpoint=path, **self.KWARGS)
        with pytest.raises(StoreError, match="different sweep"):
            complexity_sweep(
                "n", self.VALUES[:2], rng=4, checkpoint=path, **self.KWARGS
            )
        sweep = complexity_sweep(
            "n", self.VALUES[:2], rng=4, checkpoint=path, resume=False, **self.KWARGS
        )
        assert sweep == complexity_sweep("n", self.VALUES[:2], rng=4, **self.KWARGS)

    def test_resume_false_discards_checkpoint(self, tmp_path):
        path = tmp_path / "sweep.sqlite"
        complexity_sweep("n", self.VALUES[:1], rng=4, checkpoint=path, **self.KWARGS)
        complexity_sweep(
            "n", self.VALUES[:2], rng=3, checkpoint=path, resume=False, **self.KWARGS
        )
        # The other sweep's store was deleted and replaced by this one.
        store = ResultsStore(path)
        try:
            assert store.fingerprint()["seed"] == 3
            assert store.counts()["committed"] == 2
        finally:
            store.close()

    def test_checkpoint_requires_int_seed(self, tmp_path):
        with pytest.raises(ValueError, match="integer seed"):
            complexity_sweep(
                "n", self.VALUES[:2], rng=None,
                checkpoint=tmp_path / "s.sqlite", **self.KWARGS,
            )
