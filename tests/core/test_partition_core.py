"""Tests for APPROXPART (Proposition 3.4)."""

import numpy as np
import pytest

from repro.core.partition import approx_partition, partition_diagnostics
from repro.distributions import families
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.sampling import SampleSource


def run_partition(dist, b, factor=16.0, rng=0):
    m = int(factor * b * np.log(b + np.e))
    return approx_partition(SampleSource(dist, rng), b, m)


class TestApproxPartition:
    def test_validation(self):
        src = SampleSource(DiscreteDistribution.uniform(10), rng=0)
        with pytest.raises(ValueError):
            approx_partition(src, 0.5, 10)
        with pytest.raises(ValueError):
            approx_partition(src, 4.0, 0)

    def test_covers_domain(self):
        p = run_partition(families.uniform(500), b=20)
        assert p.n == 500

    def test_uniform_interval_weights(self):
        n, b = 2000, 25
        dist = families.uniform(n)
        p = run_partition(dist, b)
        diag = partition_diagnostics(p, dist.pmf, b)
        assert diag["heavy_not_singleton"] == 0
        assert diag["overweight_non_singletons"] == 0
        assert diag["max_non_singleton_mass"] <= 2.0 / b

    def test_heavy_points_become_singletons(self):
        # Distribution with explicit heavy atoms.
        n, b = 400, 20
        pmf = np.full(n, 0.5 / n)
        pmf[[10, 100, 333]] += (0.5 - 0.5 * 3 / n) / 3  # three ~1/6 atoms
        pmf /= pmf.sum()
        dist = DiscreteDistribution(pmf)
        # Flake: Chernoff at m = 16 b log b puts per-clause failure << 1e-3.
        p = run_partition(dist, b, rng=1)
        diag = partition_diagnostics(p, pmf, b)
        assert diag["heavy_points"] == 3
        assert diag["heavy_not_singleton"] == 0

    def test_interval_count_order_b(self):
        n, b = 3000, 30
        p = run_partition(families.uniform(n), b, rng=2)
        # Greedy construction bound: K = O(b) (paper: 2b+2; ours <= ~4b+2).
        assert len(p) <= 4 * b + 2

    def test_zipf_head_singletons(self):
        n, b = 1000, 12
        dist = families.zipf(n, 1.0)
        p = run_partition(dist, b, rng=3)
        diag = partition_diagnostics(p, dist.pmf, b)
        assert diag["heavy_not_singleton"] == 0
        # The Zipf head (mass >= 1/12) must be singletons.
        assert p[0].is_singleton

    def test_diagnostics_validation(self):
        p = run_partition(families.uniform(100), 10)
        with pytest.raises(ValueError):
            partition_diagnostics(p, np.ones(50) / 50, 10)

    def test_reproducible(self):
        dist = families.zipf(300, 1.0)
        a = run_partition(dist, 10, rng=7)
        b = run_partition(dist, 10, rng=7)
        assert a == b

    def test_light_intervals_bounded_by_singletons(self):
        # Our documented deviation from the two-light clause: light
        # intervals <= singletons + 1.
        n, b = 1500, 15
        dist = families.zipf(n, 1.2)
        p = run_partition(dist, b, rng=4)
        diag = partition_diagnostics(p, dist.pmf, b)
        singletons = sum(1 for iv in p if iv.is_singleton)
        assert diag["light_intervals"] <= singletons + 1


def per_point_boundaries(counts: np.ndarray, b: float, num_samples: int) -> np.ndarray:
    """The APPROXPART scan visiting every point, zero weights included."""
    weights = counts / num_samples
    singleton_cut = 3.0 / (4.0 * b)
    close_cut = 1.0 / b
    boundaries = [0]
    acc = 0.0
    for i in range(len(weights)):
        w = float(weights[i])
        if w >= singleton_cut:
            if boundaries[-1] != i:
                boundaries.append(i)
            boundaries.append(i + 1)
            acc = 0.0
            continue
        acc += w
        if acc >= close_cut:
            boundaries.append(i + 1)
            acc = 0.0
    if boundaries[-1] != len(weights):
        boundaries.append(len(weights))
    return np.unique(np.asarray(boundaries, dtype=np.int64))


class FixedCounts:
    """A sample source whose every draw returns the same count vector."""

    def __init__(self, counts: np.ndarray) -> None:
        self.counts = np.asarray(counts, dtype=np.int64)
        self.n = len(self.counts)

    def draw_counts(self, num_samples: int) -> np.ndarray:
        assert int(self.counts.sum()) == num_samples
        return self.counts.copy()


def sparse_counts(gen: np.random.Generator, n: int, num_samples: int, heavy: int) -> np.ndarray:
    """Counts with long zero runs, plus ``heavy`` points holding most mass."""
    probs = np.zeros(n)
    support = gen.choice(n, size=max(1, n // 50), replace=False)
    probs[support] = gen.random(len(support))
    probs[gen.choice(n, size=min(heavy, n), replace=False)] += 5.0
    return gen.multinomial(num_samples, probs / probs.sum())


class TestScanMatchesPerPointReference:
    """Skipping zero weights must leave every boundary where the per-point
    scan puts it, bit for bit."""

    @pytest.mark.parametrize(
        "n, b, num_samples, heavy",
        [
            (1, 2.0, 1, 0),
            (1, 1.0 + 1e-12, 7, 1),
            (5, 1.0 + 1e-9, 3, 0),
            (400, 1.0 + 1e-9, 1000, 0),
            (2000, 20.0, 5000, 4),
            (20000, 50.0, 3000, 0),
            (20000, 64.0, 200000, 12),
        ],
    )
    def test_sparse_and_heavy(self, n, b, num_samples, heavy):
        gen = np.random.default_rng([n, num_samples, heavy])
        counts = sparse_counts(gen, n, num_samples, heavy)
        got = approx_partition(FixedCounts(counts), b, num_samples)
        assert np.array_equal(got.boundaries, per_point_boundaries(counts, b, num_samples))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_dense_counts(self, seed):
        gen = np.random.default_rng([21, seed])
        n = int(gen.integers(1, 3000))
        b = float(gen.choice([1.0 + 1e-9, 1.5, 4.0, float(gen.uniform(1.0, 200.0)) + 1e-6]))
        num_samples = int(gen.integers(1, 4 * n + 2))
        counts = gen.multinomial(num_samples, gen.dirichlet(np.full(n, 0.3)))
        got = approx_partition(FixedCounts(counts), b, num_samples)
        assert np.array_equal(got.boundaries, per_point_boundaries(counts, b, num_samples))

    def test_all_mass_on_one_point(self):
        counts = np.zeros(1000, dtype=np.int64)
        counts[617] = 9
        got = approx_partition(FixedCounts(counts), 3.0, 9)
        assert np.array_equal(got.boundaries, per_point_boundaries(counts, 3.0, 9))
        assert list(got.boundaries) == [0, 617, 618, 1000]
