"""Every driver reaches the pipeline steps through their class attributes.

The repo benchmark (``bench/workloads.py``) times each layer by wrapping
``run_partition`` / ``run_learn`` / ``run_sieve`` / ``run_check`` /
``draw_final_counts`` on both pipeline classes, and the single-call final
statistic as the module globals ``repro.core.tester.median_interval_statistics``
and ``repro.core.closeness.median_paired_interval_statistics``.  That only
works while the drivers look those names up at call time.  These tests wrap
the same attributes with counters and check that every step fires and that
the draws made inside wrapped steps add up to the verdict's samples — so a
step the drivers stop calling, or a sample drawn outside any step, fails
here rather than silently vanishing from the benchmark's spans.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core import closeness as closeness_module
from repro.core import tester as tester_module
from repro.core.closeness import ClosenessPipeline, test_closeness
from repro.core.config import TesterConfig
from repro.core.tester import TesterPipeline, test_histogram
from repro.distributions.discrete import DiscreteDistribution
from repro.experiments.workloads import make, make_pair
from repro.serve import ServiceConfig, TesterService
from repro.serve.session import SessionState, StreamRequest

N, K, EPS = 3000, 4, 0.3
STEPS = ("run_partition", "run_learn", "run_sieve", "run_check", "draw_final_counts")
STATISTICS = (
    (tester_module, "median_interval_statistics"),
    (closeness_module, "median_paired_interval_statistics"),
)


class StepRecorder:
    """Counts step and statistic calls and the draws made inside steps."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.drawn = 0


@pytest.fixture
def recorder(monkeypatch):
    rec = StepRecorder()
    pipelines = (
        (TesterPipeline, lambda p: p.source.samples_drawn),
        (ClosenessPipeline, lambda p: p.pair.samples_drawn),
    )
    for cls, drawn in pipelines:
        for step in STEPS:
            monkeypatch.setattr(cls, step, _counting_step(rec, cls, step, drawn))
    for module, name in STATISTICS:
        monkeypatch.setattr(module, name, _counting_call(rec, getattr(module, name), name))
    return rec


def _counting_step(rec: StepRecorder, cls, step: str, drawn):
    fn = getattr(cls, step)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        rec.calls[f"{cls.__name__}.{step}"] += 1
        before = drawn(self)
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.drawn += drawn(self) - before

    return wrapper


def _counting_call(rec: StepRecorder, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _assert_all_steps(rec: StepRecorder, cls, final_draws: int = 1) -> None:
    for step in STEPS[:-1]:
        assert rec.calls[f"{cls.__name__}.{step}"] == 1, step
    assert rec.calls[f"{cls.__name__}.draw_final_counts"] == final_draws


def _staircase():
    return make("staircase", N, K, EPS, rng=np.random.default_rng(0))


@pytest.mark.parametrize("backend", ["pods16", "cdkl22"])
def test_identity_steps_are_intercepted(recorder, backend):
    verdict = test_histogram(_staircase(), K, EPS, rng=1, backend=backend)
    assert verdict.stage == "chi2"
    _assert_all_steps(recorder, TesterPipeline)
    assert recorder.calls["median_interval_statistics"] == 1
    assert recorder.drawn == verdict.samples_used


def test_escalated_identity_steps_are_intercepted(recorder):
    config = replace(TesterConfig.practical(), cdkl22_guard_sigmas=1e9)
    verdict = test_histogram(_staircase(), K, EPS, config=config, rng=1, backend="cdkl22")
    assert "after escalation" in verdict.reason
    _assert_all_steps(recorder, TesterPipeline, final_draws=2)
    assert recorder.calls["median_interval_statistics"] == 2
    assert recorder.drawn == verdict.samples_used


def test_closeness_steps_are_intercepted(recorder):
    p, q = make_pair("identical-staircase", N, K, EPS, rng=np.random.default_rng(0))
    verdict = test_closeness(p, q, K, EPS, rng=1)
    assert verdict.stage == "chi2"
    _assert_all_steps(recorder, ClosenessPipeline)
    assert recorder.calls["median_paired_interval_statistics"] == 1
    assert recorder.drawn == verdict.samples_used == verdict.samples_p + verdict.samples_q


def test_serve_session_steps_are_intercepted(recorder):
    service = TesterService(ServiceConfig())
    service.submit(
        StreamRequest(
            request_id="req-0", dist=DiscreteDistribution.uniform(512), k=K, eps=EPS, seed=11
        )
    )
    (outcome,) = service.run().outcomes
    assert outcome.state == SessionState.VERDICT and outcome.stage == "chi2"
    _assert_all_steps(recorder, TesterPipeline)
    assert recorder.drawn == outcome.samples_total
