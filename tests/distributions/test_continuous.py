"""Tests for the continuous-domain gridding adapter."""

import numpy as np
import pytest

from repro.core.config import TesterConfig
from repro.core.tester import test_histogram
from repro.distributions.continuous import GriddedSource
from repro.distributions.sampling import SampleSource


def uniform_sampler(gen, m):
    return gen.random(m)


def step_sampler(gen, m):
    """Piecewise-constant density: 3x weight on [0, 0.25)."""
    u = gen.random(m)
    lo = gen.random(m) * 0.25
    hi = 0.25 + gen.random(m) * 0.75
    return np.where(u < 0.5, lo, hi)


def comb_sampler(gen, m):
    """Fine alternation: heavy on [2j/n', (2j+1)/n') cells at n'=512 scale."""
    base = gen.integers(0, 256, size=m) * 2
    jitter = gen.random(m)
    odd = gen.random(m) < 0.2
    cell = base + odd.astype(int)
    return (cell + jitter) / 512.0


class TestGriddedSource:
    def test_is_sample_source(self):
        src = GriddedSource(uniform_sampler, 64, rng=0)
        assert isinstance(src, SampleSource)
        assert src.n == 64

    def test_draw_in_range(self):
        src = GriddedSource(uniform_sampler, 100, rng=1)
        s = src.draw(5000)
        assert s.min() >= 0 and s.max() < 100

    def test_out_of_range_clipped(self):
        src = GriddedSource(lambda g, m: np.full(m, 5.0), 10, rng=2)
        assert np.all(src.draw(20) == 9)

    def test_budget_accounting(self):
        src = GriddedSource(uniform_sampler, 32, rng=3)
        src.draw(100)
        src.draw_counts(50)
        src.draw_counts_poissonized(25.0)
        assert src.samples_drawn == pytest.approx(175.0)

    def test_poissonized_counts_independent_poisson(self):
        src = GriddedSource(uniform_sampler, 16, rng=4)
        counts = src.draw_counts_poissonized(1600.0)
        assert counts.shape == (16,)
        assert counts.sum() > 0

    def test_custom_range(self):
        src = GriddedSource(lambda g, m: g.uniform(-1, 1, m), 10, low=-1, high=1, rng=5)
        counts = src.draw_counts(5000)
        assert counts.sum() == 5000
        assert np.all(counts > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GriddedSource(uniform_sampler, 0)
        with pytest.raises(ValueError):
            GriddedSource(uniform_sampler, 10, low=1.0, high=0.0)
        src = GriddedSource(uniform_sampler, 8, rng=8)
        with pytest.raises(ValueError):
            src.draw(-1)
        with pytest.raises(ValueError):
            src.draw_counts_poissonized(-1.0)


class TestEndToEndGridding:
    """The Section 2 claim: the testers work on gridded continuous data."""

    CFG = TesterConfig.practical()

    def test_uniform_density_accepted(self):
        src = GriddedSource(uniform_sampler, 1000, rng=0)
        assert test_histogram(src, 1, 0.3, config=self.CFG).accept

    def test_step_density_accepted_at_k2(self):
        hits = 0
        for seed in range(6):
            src = GriddedSource(step_sampler, 1000, rng=seed)
            hits += test_histogram(src, 2, 0.3, config=self.CFG).accept
        assert hits >= 4

    def test_comb_density_rejected_at_small_k(self):
        hits = 0
        for seed in range(6):
            src = GriddedSource(comb_sampler, 512, rng=seed)
            hits += not test_histogram(src, 4, 0.25, config=self.CFG).accept
        assert hits >= 4
