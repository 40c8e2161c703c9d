"""Tests for the histogram representation and the class H_k."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.histogram import (
    Histogram,
    breakpoint_intervals,
    breakpoints,
    flatten_outside,
    is_k_histogram,
    num_pieces,
)
from repro.util.intervals import Partition


def staircase_pmf(n: int = 12) -> np.ndarray:
    pmf = np.zeros(n)
    pmf[: n // 3] = 2.0
    pmf[n // 3 : n // 2] = 0.5
    pmf[n // 2 :] = 1.0
    return pmf / pmf.sum()


class TestHistogramBasics:
    def test_construction(self):
        h = Histogram(Partition([0, 2, 4]), np.array([0.3, 0.2]))
        assert h.n == 4 and h.num_pieces == 2
        assert h.piece_masses().tolist() == pytest.approx([0.6, 0.4])

    def test_mass_validation(self):
        with pytest.raises(ValueError, match="mass"):
            Histogram(Partition([0, 2, 4]), np.array([0.3, 0.3]))

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            Histogram(Partition([0, 2, 4]), np.array([0.6, -0.1]))

    def test_value_count_mismatch(self):
        with pytest.raises(ValueError):
            Histogram(Partition([0, 2, 4]), np.array([0.5]))

    def test_from_masses(self):
        h = Histogram.from_masses(Partition([0, 1, 4]), np.array([0.4, 0.6]))
        assert h.values.tolist() == pytest.approx([0.4, 0.2])

    def test_to_pmf_roundtrip(self):
        pmf = staircase_pmf()
        h = Histogram.from_pmf(pmf)
        assert np.allclose(h.to_pmf(), pmf)
        assert h.num_pieces == 3

    def test_to_distribution_samples(self):
        h = Histogram.from_pmf(staircase_pmf())
        d = h.to_distribution()
        assert isinstance(d, DiscreteDistribution)
        assert d.n == 12

    def test_minimal_merges_equal_pieces(self):
        h = Histogram(Partition([0, 2, 4]), np.array([0.25, 0.25]))
        assert h.num_pieces == 2
        assert h.minimal().num_pieces == 1

    def test_flattening(self):
        d = DiscreteDistribution(np.array([0.1, 0.3, 0.2, 0.4]))
        part = Partition([0, 2, 4])
        h = Histogram.flattening(d, part)
        assert h.values.tolist() == pytest.approx([0.2, 0.3])
        assert h.piece_masses().tolist() == pytest.approx([0.4, 0.6])

    def test_flattening_domain_mismatch(self):
        with pytest.raises(ValueError):
            Histogram.flattening(DiscreteDistribution.uniform(4), Partition([0, 3]))


class TestBreakpoints:
    def test_uniform_no_breakpoints(self):
        assert len(breakpoints(np.full(10, 0.1))) == 0
        assert num_pieces(np.full(10, 0.1)) == 1

    def test_staircase_breakpoints(self):
        pmf = staircase_pmf(12)
        bps = breakpoints(pmf)
        assert bps.tolist() == [3, 5]
        assert num_pieces(pmf) == 3

    def test_is_k_histogram(self):
        pmf = staircase_pmf()
        assert is_k_histogram(pmf, 3)
        assert is_k_histogram(pmf, 5)
        assert not is_k_histogram(pmf, 2)
        assert is_k_histogram(DiscreteDistribution(pmf), 3)

    def test_is_k_histogram_k_geq_n(self):
        gen = np.random.default_rng(0)
        pmf = gen.dirichlet(np.ones(6))
        assert is_k_histogram(pmf, 6)

    def test_is_k_histogram_validation(self):
        with pytest.raises(ValueError):
            is_k_histogram(staircase_pmf(), 0)

    def test_breakpoint_intervals_interior_only(self):
        pmf = staircase_pmf(12)  # jumps at 2->3 boundary index 2/3 and 5/6
        # Partition aligned with the jumps: no interior breakpoints.
        aligned = Partition([0, 4, 6, 12])
        assert breakpoint_intervals(pmf, aligned) == []
        # Partition straddling both jumps in its first interval.
        straddle = Partition([0, 7, 12])
        assert breakpoint_intervals(pmf, straddle) == [0]

    def test_breakpoint_intervals_count_bound(self):
        # A k-histogram has at most k-1 breakpoint intervals in any partition.
        gen = np.random.default_rng(1)
        for _ in range(10):
            from repro.distributions.families import random_histogram

            h = random_histogram(60, 5, gen)
            part = Partition.equal_width(60, 9)
            assert len(breakpoint_intervals(h.to_pmf(), part)) <= 4

    @given(
        st.lists(st.integers(0, 3), min_size=2, max_size=40),
        st.lists(st.integers(1, 39), max_size=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_breakpoint_intervals_matches_per_breakpoint_reference(self, levels, cuts):
        pmf = np.asarray(levels, dtype=np.float64) + 1.0
        n = len(pmf)
        part = Partition([0, *sorted({c for c in cuts if c < n}), n])
        hits = set()
        for bp in breakpoints(pmf):
            j = part.locate(int(bp))
            if int(bp) + 1 < part[j].stop:
                hits.add(j)
        assert breakpoint_intervals(pmf, part) == sorted(hits)


class TestFlattenOutside:
    def test_keeps_exact_on_selected(self):
        pmf = staircase_pmf(12)
        d = DiscreteDistribution(pmf)
        part = Partition([0, 4, 8, 12])
        result = flatten_outside(d, part, keep_exact=[1])
        # Interval 1 keeps the original values.
        assert np.allclose(result.pmf[4:8], pmf[4:8])
        # Others are flattened.
        assert np.allclose(result.pmf[0:4], pmf[0:4].mean())

    def test_matches_per_interval_reference(self):
        d = DiscreteDistribution.from_weights(np.random.default_rng(4).random(30))
        part = Partition([0, 3, 4, 11, 20, 30])
        keep = [3, 0, -1, 3]
        expected = part.flatten(d.pmf)
        for j in keep:
            expected[part[j].slice()] = d.pmf[part[j].slice()]
        result = flatten_outside(d, part, keep)
        assert result.pmf.tobytes() == DiscreteDistribution(expected, validate=False).pmf.tobytes()

    def test_total_mass_preserved(self):
        pmf = staircase_pmf(12)
        result = flatten_outside(DiscreteDistribution(pmf), Partition([0, 5, 12]), [0])
        assert result.pmf.sum() == pytest.approx(1.0)

    def test_histogram_flattening_identity(self):
        # Flattening a histogram on an aligned partition is the identity.
        pmf = staircase_pmf(12)
        aligned = Partition([0, 4, 6, 12])
        result = flatten_outside(DiscreteDistribution(pmf), aligned, [])
        assert np.allclose(result.pmf, pmf)


class TestProperties:
    @given(st.integers(2, 40), st.integers(1, 8), st.integers(0, 100000))
    @settings(max_examples=80)
    def test_random_histograms_are_k_histograms(self, n, k, seed):
        from repro.distributions.families import random_histogram

        k = min(k, n)
        h = random_histogram(n, k, seed)
        assert is_k_histogram(h.to_pmf(), k)
        assert h.num_pieces <= k

    @given(st.integers(2, 30), st.integers(0, 100000))
    @settings(max_examples=60)
    def test_from_pmf_is_minimal(self, n, seed):
        gen = np.random.default_rng(seed)
        pmf = gen.dirichlet(np.ones(n))
        h = Histogram.from_pmf(pmf)
        assert h.num_pieces == num_pieces(pmf)
        assert np.allclose(h.to_pmf(), pmf)
