"""Tests for the dataset-backed ReplaySource."""

import numpy as np
import pytest

from repro.distributions.replay import InsufficientSamples, ReplaySource


def dataset(size=1000, n=10, seed=0):
    return np.random.default_rng(seed).integers(0, n, size=size)


class TestConstruction:
    def test_infers_domain(self):
        src = ReplaySource(np.array([0, 3, 7]), shuffle=False)
        assert src.n == 8

    def test_explicit_domain(self):
        src = ReplaySource(np.array([0, 1]), n=100)
        assert src.n == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplaySource(np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            ReplaySource(np.array([-1, 2]))
        with pytest.raises(ValueError):
            ReplaySource(np.array([5]), n=3)


class TestDrawing:
    def test_serves_exact_multiset(self):
        data = dataset(500)
        src = ReplaySource(data, rng=0)
        served = src.draw(500)
        assert np.array_equal(np.sort(served), np.sort(data))

    def test_no_shuffle_preserves_order(self):
        data = np.array([3, 1, 4, 1, 5])
        src = ReplaySource(data, shuffle=False)
        assert np.array_equal(src.draw(3), [3, 1, 4])
        assert np.array_equal(src.draw(2), [1, 5])

    def test_counts(self):
        src = ReplaySource(np.array([0, 0, 1, 2]), shuffle=False)
        assert src.draw_counts(4).tolist() == [2, 1, 1]

    def test_exhaustion_raises(self):
        src = ReplaySource(dataset(100), rng=1)
        src.draw(90)
        with pytest.raises(InsufficientSamples) as excinfo:
            src.draw(20)
        assert excinfo.value.remaining == 10
        # The failed draw consumed nothing.
        assert src.remaining == 10

    def test_poissonized_consumes_realised(self):
        src = ReplaySource(dataset(10_000), rng=2)
        counts = src.draw_counts_poissonized(100.0)
        assert counts.sum() == 10_000 - src.remaining
        assert src.samples_drawn == pytest.approx(100.0)

    def test_budget_tracking(self):
        src = ReplaySource(dataset(200), rng=3)
        src.draw(50)
        src.draw_counts(30)
        assert src.samples_drawn == 80.0

    def test_negative_draws(self):
        src = ReplaySource(dataset(10), rng=5)
        with pytest.raises(ValueError):
            src.draw(-1)
        with pytest.raises(ValueError):
            src.draw_counts_poissonized(-1.0)


class TestEndToEnd:
    def test_tester_runs_on_dataset(self):
        from repro.core.budget import algorithm1_budget
        from repro.core.config import TesterConfig
        from repro.core.tester import test_histogram
        from repro.distributions import families

        # Small domain keeps the dataset around 100 MB at the full budget.
        cfg = TesterConfig.practical()
        dist = families.staircase(300, 3).to_distribution()
        size = int(algorithm1_budget(300, 3, 0.35, cfg)) + 1000
        data = dist.sample(size, rng=0)
        verdict = test_histogram(ReplaySource(data, n=300, rng=1), 3, 0.35, config=cfg)
        assert verdict.accept
