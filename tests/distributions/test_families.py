"""Tests for the synthetic distribution families and farness certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import families
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.histogram import Histogram, is_k_histogram, num_pieces
from repro.distributions.projection import unconstrained_l1_distance
from repro.util.intervals import Partition


class TestCompletenessFamilies:
    def test_uniform(self):
        d = families.uniform(10)
        assert is_k_histogram(d, 1)

    @given(st.integers(2, 50), st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_random_histogram_membership(self, n, k, seed):
        k = min(k, n)
        h = families.random_histogram(n, k, seed)
        assert is_k_histogram(h.to_pmf(), k)
        assert h.to_pmf().sum() == pytest.approx(1.0)

    def test_random_histogram_min_width(self):
        h = families.random_histogram(100, 5, rng=0, min_width=10)
        assert all(len(iv) >= 10 for iv in h.partition)

    def test_random_histogram_validation(self):
        with pytest.raises(ValueError):
            families.random_histogram(10, 0)
        with pytest.raises(ValueError):
            families.random_histogram(10, 11)
        with pytest.raises(ValueError):
            families.random_histogram(10, 5, min_width=3)

    def test_staircase(self):
        h = families.staircase(100, 4, ratio=2.0)
        assert h.num_pieces == 4
        assert is_k_histogram(h.to_pmf(), 4)
        # Decreasing per-point values.
        assert all(a > b for a, b in zip(h.values, h.values[1:]))

    def test_staircase_validation(self):
        with pytest.raises(ValueError):
            families.staircase(10, 0)
        with pytest.raises(ValueError):
            families.staircase(10, 2, ratio=0.0)

    def test_two_level_comb(self):
        d = families.two_level_comb(40, teeth=4)
        assert num_pieces(d.pmf) == 8
        with pytest.raises(ValueError):
            families.two_level_comb(40, 0)
        with pytest.raises(ValueError):
            families.two_level_comb(40, 4, contrast=1.0)


class TestSmoothFamilies:
    def test_zipf_decreasing(self):
        d = families.zipf(50, 1.0)
        assert np.all(np.diff(d.pmf) <= 0)
        assert d.pmf.sum() == pytest.approx(1.0)

    def test_zipf_alpha_zero_is_uniform(self):
        d = families.zipf(20, 0.0)
        assert np.allclose(d.pmf, 1 / 20)

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            families.zipf(10, -1.0)

    def test_geometric(self):
        d = families.geometric(30, 0.9)
        assert np.all(np.diff(d.pmf) < 0)
        with pytest.raises(ValueError):
            families.geometric(10, 0.0)

    def test_gaussian_mixture(self):
        d = families.discretized_gaussian_mixture(100, [0.3, 0.7], [0.05, 0.05])
        pmf = d.pmf
        assert pmf.sum() == pytest.approx(1.0)
        # Bimodal: both humps present.
        assert pmf[30] > pmf[50] and pmf[70] > pmf[50]

    def test_gaussian_mixture_validation(self):
        with pytest.raises(ValueError):
            families.discretized_gaussian_mixture(10, [], [])
        with pytest.raises(ValueError):
            families.discretized_gaussian_mixture(10, [0.5], [0.0])
        with pytest.raises(ValueError):
            families.discretized_gaussian_mixture(10, [0.5], [0.1], [-1.0])

    def test_sparse_support(self):
        d = families.sparse_support(50, 7, rng=0)
        assert d.support_size() == 7
        assert np.allclose(d.pmf[d.support()], 1 / 7)
        with pytest.raises(ValueError):
            families.sparse_support(10, 0)


class TestFarnessCertificates:
    def test_paired_perturbation_valid_pmf(self):
        base = Histogram.from_pmf(np.full(40, 1 / 40))
        d, pair_mass = families.paired_perturbation(base, 0.2, rng=0)
        assert d.pmf.sum() == pytest.approx(1.0)
        assert np.all(d.pmf >= 0)
        assert pair_mass == pytest.approx(20 * 2 * 0.2 / 40)

    def test_certificate_matches_exact_dp(self):
        # For this construction the pairing bound is tight: verify against
        # the exact unconstrained DP lower bound on a small instance.
        n, k, eps = 40, 3, 0.2
        d = families.far_from_hk(n, k, eps, rng=1)
        dp_lower = unconstrained_l1_distance(d, k)
        assert dp_lower >= eps - 1e-9

    @given(st.integers(1, 6), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_far_from_hk_certificate(self, k, seed):
        n, eps = 60, 0.15
        d = families.far_from_hk(n, k, eps, rng=seed)
        assert unconstrained_l1_distance(d, k) >= eps - 1e-9

    def test_far_from_hk_custom_base(self):
        base = families.staircase(60, 2, ratio=1.5)
        d = families.far_from_hk(60, 2, 0.1, rng=2, base=base)
        assert unconstrained_l1_distance(d, 2) >= 0.1 - 1e-9

    def test_far_from_hk_rejects_impossible(self):
        # Too large eps: per-point masses cannot absorb the amplitude.
        with pytest.raises(ValueError):
            families.far_from_hk(20, 2, 0.9)

    def test_far_from_hk_names_first_too_light_piece(self):
        # Pieces 2 and 4 are below delta = 0.1 / 19; the light length-1
        # piece 0 has no pair to perturb, so it is not the one named.
        base = Histogram.from_masses(
            Partition([0, 1, 11, 21, 31, 41]), np.array([1e-4, 0.49, 0.005, 0.4899, 0.015])
        )
        with pytest.raises(ValueError, match=r"^piece 2 has per-point mass 0\.0005 < delta"):
            families.far_from_hk(41, 2, 0.1, base=base)

    def test_perturbation_too_concentrated_raises(self):
        base = Histogram.from_pmf(
            np.array([0.97] + [0.03 / 9] * 9)
        )
        # delta needed exceeds light pieces' values.
        with pytest.raises(ValueError):
            families.paired_perturbation(base, 0.9)

    def test_deterministic_mode_reproducible(self):
        base = Histogram.from_pmf(np.full(20, 0.05))
        d1, _ = families.paired_perturbation(base, 0.1, deterministic=True)
        d2, _ = families.paired_perturbation(base, 0.1, deterministic=True)
        assert d1 == d2

    def test_certified_distance_helper(self):
        assert families.certified_distance_to_hk(0.5, 0.01, 11) == pytest.approx(0.4)
        assert families.certified_distance_to_hk(0.1, 0.05, 100) == 0.0
        with pytest.raises(ValueError):
            families.certified_distance_to_hk(0.5, 0.01, 0)


def _reference_paired_perturbation(hist, epsilon, gen, deterministic):
    """The scalar one-draw-per-pair loop ``paired_perturbation`` must match
    bit for bit: pmf bytes, pair mass and the generator state after."""
    pmf = hist.to_pmf().copy()
    delta = 2.0 * epsilon / len(pmf)
    pairs = 0
    for interval in hist.partition:
        if pmf[interval.start] < delta:
            continue
        for q in range(len(interval) // 2):
            left = interval.start + 2 * q
            sign = 1.0 if (q % 2 == 0 if deterministic else gen.random() < 0.5) else -1.0
            pmf[left] += sign * delta
            pmf[left + 1] -= sign * delta
            pairs += 1
    return DiscreteDistribution(pmf), pairs * delta


def _mixed_pieces():
    # A length-1 piece, odd lengths, and a piece (index 2) whose value
    # 0.031 / 31 = 0.001 is below delta = 2 * 0.2 / 61 with pieces after it.
    partition = Partition([0, 1, 8, 39, 40, 61])
    return Histogram.from_masses(partition, np.array([0.05, 0.3, 0.031, 0.05, 0.569]))


_BASES = {
    "uniform-odd-n": lambda: Histogram.from_pmf(np.full(4097, 1 / 4097)),
    "staircase": lambda: families.staircase(1001, 5, ratio=1.6),
    "random": lambda: families.random_histogram(2000, 7, rng=3),
    "mixed-pieces": _mixed_pieces,
}


class TestPairedPerturbationBitIdentity:
    @pytest.mark.parametrize("deterministic", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name", sorted(_BASES))
    def test_matches_scalar_reference(self, name, seed, deterministic):
        base = _BASES[name]()
        expected_gen = np.random.default_rng(seed)
        actual_gen = np.random.default_rng(seed)
        expected, expected_mass = _reference_paired_perturbation(
            base, 0.2, expected_gen, deterministic
        )
        actual, mass = families.paired_perturbation(
            base, 0.2, actual_gen, deterministic=deterministic
        )
        assert actual.pmf.tobytes() == expected.pmf.tobytes()
        assert mass == expected_mass
        assert actual_gen.random() == expected_gen.random()

    def test_mixed_pieces_skips_the_light_piece(self):
        base = _mixed_pieces()
        gen = np.random.default_rng(5)
        d, mass = families.paired_perturbation(base, 0.2, gen)
        # Pairs: 0 + 3 + skipped + 0 + 10, one uniform each.
        assert mass == 13 * (2 * 0.2 / 61)
        np.testing.assert_array_equal(d.pmf[8:39], base.to_pmf()[8:39])
        assert d.pmf[0] == base.to_pmf()[0] and d.pmf[39] == base.to_pmf()[39]
        assert gen.random() == np.random.default_rng(5).random(14)[-1]
