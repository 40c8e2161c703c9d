"""Property-based tests for histogram structure and ``H_k`` projections.

Random pmfs over small domains (the point-granularity DPs are O(n²), so n
stays ≤ 40) exercise the analytic guarantees the testers rely on: the
unconstrained ℓ1 relaxation lower-bounds the flattening projection, the
flattening over-shoots it by at most a factor of two, both shrink as ``k``
grows, and genuine k-histograms project to distance zero.  Histogram
round-trips pin the succinct representation against the explicit pmf.
The Step-10 check's certified bounds bracket the exact coarse projection,
and the check they short-circuit returns the exact path's answer.  The
rank-prefix cost matrix stays within its derived ``δ`` of the fold's, and
the certified split returns a forced-fold run's bits.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.distributions.histogram import (
    Histogram,
    is_k_histogram,
    num_pieces,
)
from repro.distributions import projection
from repro.distributions.projection import (
    coarse_flattening_projection,
    exists_close_histogram,
    flattening_distance,
    flattening_profile,
    histogram_distance_bounds,
    project_flattening,
    unconstrained_l1_distance,
)
from repro.util.intervals import Partition

MAX_N = 40
ATOL = 1e-9


@st.composite
def pmfs(draw, max_n=MAX_N):
    n = draw(st.integers(min_value=1, max_value=max_n))
    weights = np.asarray(
        draw(
            st.lists(
                st.floats(0.0, 100.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.float64,
    )
    assume(weights.sum() > 0)
    return weights / weights.sum()


@st.composite
def histograms(draw, max_n=MAX_N):
    """A genuine k-histogram pmf together with its piece count."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    inner = draw(st.sets(st.integers(min_value=1, max_value=max(1, n - 1)), max_size=6))
    partition = Partition(sorted({0, n} | inner))
    masses = np.asarray(
        draw(
            st.lists(
                st.floats(0.01, 100.0, allow_nan=False),
                min_size=len(partition),
                max_size=len(partition),
            )
        ),
        dtype=np.float64,
    )
    pmf = Histogram.from_masses(partition, masses / masses.sum()).to_pmf()
    return pmf, len(partition)


@st.composite
def pmf_and_k(draw):
    pmf = draw(pmfs())
    k = draw(st.integers(min_value=1, max_value=len(pmf)))
    return pmf, k


class TestProjectionBounds:
    @given(pmf_and_k())
    def test_lower_bound_at_most_upper_bound(self, case):
        pmf, k = case
        lower, upper = histogram_distance_bounds(pmf, k)
        assert 0.0 <= lower <= upper + ATOL

    @given(pmf_and_k())
    def test_flattening_within_factor_two_of_relaxation(self, case):
        # The interval mean 2-approximates the ℓ1-optimal constant, so the
        # best flattening costs at most twice the unconstrained optimum.
        pmf, k = case
        assert flattening_distance(pmf, k) <= 2 * unconstrained_l1_distance(pmf, k) + ATOL

    @given(pmfs())
    def test_distance_non_increasing_in_k(self, pmf):
        profile = flattening_profile(pmf, len(pmf))
        assert np.all(np.diff(profile) <= ATOL)
        assert profile[-1] <= ATOL  # n pieces always fit exactly

    @given(pmf_and_k())
    def test_profile_matches_pointwise_distance(self, case):
        pmf, k = case
        profile = flattening_profile(pmf, k)
        assert abs(profile[k - 1] - flattening_distance(pmf, k)) <= ATOL

    @given(histograms())
    def test_true_histograms_project_to_zero(self, case):
        pmf, k = case
        assert is_k_histogram(pmf, k)
        assert flattening_distance(pmf, k) <= ATOL
        assert unconstrained_l1_distance(pmf, k) <= ATOL

    @given(pmf_and_k())
    def test_projection_result_is_consistent(self, case):
        pmf, k = case
        projection = project_flattening(pmf, k)
        assert projection.histogram.num_pieces <= k
        # The reported distance is exactly the TV distance to the projection.
        realised = 0.5 * np.abs(pmf - projection.histogram.to_pmf()).sum()
        assert abs(projection.distance - realised) <= ATOL


class TestHistogramRepresentation:
    @given(pmfs())
    def test_from_pmf_round_trip(self, pmf):
        # from_pmf merges jumps below the breakpoint tolerance (1e-12), so
        # the round-trip is exact up to that quantisation, not bitwise.
        hist = Histogram.from_pmf(pmf)
        np.testing.assert_allclose(hist.to_pmf(), pmf, atol=1e-10)
        assert hist.num_pieces == num_pieces(pmf)

    @given(histograms())
    def test_minimal_is_idempotent(self, case):
        pmf, _ = case
        minimal = Histogram.from_pmf(pmf).minimal()
        again = minimal.minimal()
        assert again.partition == minimal.partition
        np.testing.assert_array_equal(again.values, minimal.values)

    @given(histograms())
    def test_piece_masses_sum_to_one(self, case):
        pmf, _ = case
        hist = Histogram.from_pmf(pmf)
        assert abs(hist.piece_masses().sum() - 1.0) <= ATOL
        assert is_k_histogram(pmf, hist.num_pieces)

    @given(pmfs(), st.data())
    def test_flattening_matches_partition_flatten(self, pmf, data):
        from repro.distributions.discrete import DiscreteDistribution

        n = len(pmf)
        inner = data.draw(st.sets(st.integers(min_value=1, max_value=max(1, n - 1))))
        partition = Partition(sorted({0, n} | inner))
        hist = Histogram.flattening(DiscreteDistribution(pmf), partition)
        np.testing.assert_allclose(hist.to_pmf(), partition.flatten(pmf), atol=1e-12)


@st.composite
def step10_inputs(draw, min_k, max_k):
    """A piecewise-constant pmf on a ``K``-piece base (a noisy step function
    with runs of unkept pieces), with the ``k`` to check it against."""
    big_k = draw(st.integers(min_value=min_k, max_value=max_k))
    k = draw(st.integers(min_value=1, max_value=12))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    base = Partition(np.concatenate(([0], np.cumsum(gen.integers(1, 4, size=big_k)))))
    steps = np.sort(gen.choice(np.arange(1, big_k), size=min(big_k - 1, 9), replace=False))
    levels = np.repeat(gen.random(len(steps) + 1) + 0.05, np.diff(np.r_[0, steps, big_k]))
    noise = 10.0 ** gen.uniform(-6, 0)
    heights = levels * (1.0 + noise * gen.random(big_k))
    kept = np.ones(big_k, dtype=bool)
    for start in gen.integers(0, big_k, size=draw(st.integers(min_value=0, max_value=4))):
        kept[start : start + int(gen.integers(1, 30))] = False
    pmf = np.repeat(heights, base.lengths())
    return pmf / pmf.sum(), base, k, kept


def margin(tolerance):
    return projection._CHECK_MARGIN_REL * tolerance + projection._CHECK_MARGIN_ABS


class TestStep10Bounds:
    """``LB ≤ exact ≤ UB`` on both sides of the coarsening cap: below it the
    bounds price the base itself, above it ``extra_error`` joins both."""

    def check_bracket(self, case):
        pmf, base, k, kept = case
        inp = projection._coarse_input(pmf, base, k, kept, projection._MAX_PROJECTION_BASE)
        exact = coarse_flattening_projection(pmf, base, k, kept).distance
        # The upper bound is the fold's own arithmetic on one feasible
        # split, so it brackets the dense DP exactly, not just to rounding.
        assert exact <= projection._upper_bound(inp, k)
        assert projection._lower_bound(inp, k) <= exact + margin(exact)

    @given(step10_inputs(min_k=2, max_k=512))
    def test_bracket_below_the_coarsening_cap(self, case):
        self.check_bracket(case)

    @settings(max_examples=10)
    @given(step10_inputs(min_k=513, max_k=600))
    def test_bracket_on_a_coarsened_base(self, case):
        self.check_bracket(case)

    @settings(max_examples=40)
    @given(step10_inputs(min_k=projection._CHECK_BOUNDS_MIN_BASE + 1, max_k=400))
    def test_check_matches_exact_distance(self, case):
        pmf, base, k, kept = case
        exact = coarse_flattening_projection(pmf, base, k, kept).distance
        tolerances = [exact, np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf)]
        tolerances += [0.5 * exact, 2.0 * exact, 10.0 * exact]
        for tolerance in tolerances:
            if tolerance >= 0.0:
                got = exists_close_histogram(pmf, base, k, kept, tolerance)
                assert got == (exact <= tolerance), tolerance


@st.composite
def certificate_inputs(draw):
    """A piecewise-constant Step-10 input on ``K ≤ 512`` pieces for the
    rank-prefix certificate: length-1 pieces (every piece, when the drawn
    maximum length is 1), runs of equal neighbours, runs of unkept pieces
    and heights spread over six orders of magnitude."""
    big_k = draw(st.integers(min_value=1, max_value=512))
    k = draw(st.integers(min_value=1, max_value=12))
    max_len = draw(st.integers(min_value=1, max_value=4))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    base = Partition(np.concatenate(([0], np.cumsum(gen.integers(1, max_len + 1, size=big_k)))))
    heights = 10.0 ** gen.uniform(-6, 0, size=big_k)
    for start in gen.integers(0, big_k, size=draw(st.integers(min_value=0, max_value=6))):
        heights[start : start + int(gen.integers(2, 20))] = heights[start]
    kept = np.ones(big_k, dtype=bool)
    for start in gen.integers(0, big_k, size=draw(st.integers(min_value=0, max_value=4))):
        kept[start : start + int(gen.integers(1, 30))] = False
    pmf = np.repeat(heights, base.lengths())
    return pmf / pmf.sum(), base, k, kept


def fold_only(fn, *args):
    """``fn(*args)`` with the certificate disabled, so every piecewise-
    constant split comes from the fold."""
    with patch.object(projection, "_certified_split", lambda inp, k: None):
        return fn(*args)


def bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


class TestRankCertificate:
    """The rank-prefix cost matrix stays within ``δ`` of the fold's, and
    the certified split returns the fold's answer bit for bit."""

    @settings(max_examples=40)
    @given(certificate_inputs())
    def test_every_entry_within_delta_of_the_fold(self, case):
        pmf, base, k, kept = case
        inp = projection._coarse_input(pmf, base, k, kept, projection._MAX_PROJECTION_BASE)
        assert inp.piecewise_constant
        rank, delta = projection._rank_costs(inp)
        fold = projection._fold_costs(
            inp.mass_prefix,
            inp.len_prefix,
            np.flatnonzero(inp.kept),
            projection._constant_piece_error(inp.values, inp.weights),
        )
        finite = np.isfinite(fold)
        assert np.array_equal(finite, np.isfinite(rank))
        assert np.array_equal(np.diag(rank), np.zeros(len(rank)))
        assert np.all(np.abs(rank[finite] - fold[finite]) <= delta)

    @settings(max_examples=30)
    @given(certificate_inputs())
    def test_matches_a_forced_fold_run(self, case):
        pmf, base, k, kept = case
        got = coarse_flattening_projection(pmf, base, k, kept)
        want = fold_only(coarse_flattening_projection, pmf, base, k, kept)
        assert bits(got.distance) == bits(want.distance)
        assert np.array_equal(got.boundaries, want.boundaries)
        for tolerance in (want.distance, np.nextafter(want.distance, -np.inf)):
            if tolerance >= 0.0:
                decided = exists_close_histogram(pmf, base, k, kept, tolerance)
                assert decided == fold_only(exists_close_histogram, pmf, base, k, kept, tolerance)
                assert decided == (want.distance <= tolerance)
