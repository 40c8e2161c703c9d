"""Backend determinism regressions: cdkl22 honours every replay contract.

The cdkl22 backend adds an *adaptive* wrinkle the pods16 path never had —
the final test may escalate to a second, larger draw when the stage-0
statistic lands inside the guard band — so these tests pin the contracts
that adaptivity is most likely to break: byte-identical artefacts (sweep
points *and* traces) across worker counts, checkpoint/resume straddling a
mid-sweep crash, and the fingerprint rule that ``backend`` is an identity
field (a pods16 checkpoint is refused by a cdkl22 sweep, never spliced)
while ``workers`` stays execution-only.
"""

import pytest

from repro.core.config import TesterConfig
from repro.experiments.runner import acceptance_probability
from repro.experiments.sweeps import (
    HistogramTester,
    StaircaseWorkload,
    _default_workloads,
    complexity_sweep,
)
from repro.distributed import ResultsStore, StoreError
from repro.observability.trace import RecordingTracer, canonical_jsonl

from .test_determinism import committed_rows, sweep_json

CONFIG = TesterConfig.practical()
WORKER_COUNTS = (None, 2, 4)
VALUES = [400, 800]
KWARGS = dict(k=3, eps=0.35, config=CONFIG, trials=3, bisection_steps=2)


class TestWorkerByteIdentity:
    def test_cdkl22_sweep_byte_identical_across_workers(self):
        payloads = {
            workers: sweep_json(
                complexity_sweep(
                    "n", VALUES, rng=3, workers=workers, backend="cdkl22", **KWARGS
                )
            )
            for workers in WORKER_COUNTS
        }
        assert len(set(payloads.values())) == 1, payloads

    def test_cdkl22_traces_byte_identical_across_workers(self):
        payloads = {}
        for workers in WORKER_COUNTS:
            tracer = RecordingTracer()
            acceptance_probability(
                StaircaseWorkload(600, 3),
                HistogramTester(3, 0.35, CONFIG, "cdkl22"),
                trials=6,
                rng=11,
                workers=workers,
                trace=tracer,
            )
            payloads[workers] = canonical_jsonl(tracer.export())
        assert len(set(payloads.values())) == 1

    def test_backends_diverge_on_the_same_seed(self):
        """Sanity check that the knob is live: the two backends draw
        different budgets, so their sweep artefacts must differ."""
        runs = {
            backend: sweep_json(
                complexity_sweep("n", VALUES, rng=3, backend=backend, **KWARGS)
            )
            for backend in ("pods16", "cdkl22")
        }
        assert runs["pods16"] != runs["cdkl22"]


class TestCheckpointResume:
    def test_checkpoint_resume_mid_sweep_cdkl22(self, tmp_path):
        """A cdkl22 sweep killed after two points resumes under a different
        worker count to the exact uninterrupted result, byte for byte."""
        values = [400, 600, 800]
        path = tmp_path / "sweep.sqlite"
        uninterrupted = complexity_sweep(
            "n", values, rng=3, backend="cdkl22", **KWARGS
        )

        calls = []

        def dying_workloads(n, k, eps):
            calls.append(n)
            if len(calls) == 3:
                raise KeyboardInterrupt  # killed mid-sweep, after two points
            return _default_workloads(n, k, eps)

        with pytest.raises(KeyboardInterrupt):
            complexity_sweep(
                "n", values, rng=3, checkpoint=path, workers=2,
                backend="cdkl22", workloads=dying_workloads, **KWARGS,
            )
        assert len(committed_rows(path)) == 2

        resumed = complexity_sweep(
            "n", values, rng=3, checkpoint=path, workers=4,
            backend="cdkl22", **KWARGS,
        )
        assert sweep_json(resumed) == sweep_json(uninterrupted)

    def test_fingerprint_includes_backend(self, tmp_path):
        """A checkpoint written under pods16 must be *refused*, not
        resumed, by a cdkl22 sweep over the same grid — backend changes the
        verdicts, so splicing rows across backends would corrupt results."""
        path = tmp_path / "sweep.sqlite"
        complexity_sweep("n", VALUES, rng=3, checkpoint=path, **KWARGS)
        with pytest.raises(StoreError, match="different sweep"):
            complexity_sweep(
                "n", VALUES, rng=3, checkpoint=path, backend="cdkl22", **KWARGS
            )

        restarted = complexity_sweep(
            "n", VALUES, rng=3, checkpoint=path, resume=False,
            backend="cdkl22", **KWARGS,
        )
        fresh = complexity_sweep("n", VALUES, rng=3, backend="cdkl22", **KWARGS)
        assert sweep_json(restarted) == sweep_json(fresh)
        store = ResultsStore(path)
        try:
            assert store.fingerprint()["backend"] == "cdkl22"
        finally:
            store.close()

    def test_fingerprint_still_excludes_workers(self, tmp_path):
        """The PR-3 rule survives the new field: worker count changes must
        not invalidate a cdkl22 checkpoint."""
        path = tmp_path / "sweep.sqlite"
        complexity_sweep(
            "n", VALUES, rng=3, checkpoint=path, workers=2,
            backend="cdkl22", **KWARGS,
        )
        resumed = complexity_sweep(
            "n", VALUES, rng=3, checkpoint=path, workers=4,
            backend="cdkl22", **KWARGS,
        )
        assert sweep_json(resumed) == sweep_json(
            complexity_sweep("n", VALUES, rng=3, backend="cdkl22", **KWARGS)
        )
