"""Tests for the distance-to-H_k dynamic programs."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import projection
from repro.distributions.families import random_histogram
from repro.distributions.histogram import is_k_histogram
from repro.distributions.projection import (
    coarse_flattening_projection,
    exists_close_histogram,
    flattening_distance,
    histogram_distance_bounds,
    project_flattening,
    project_pmf,
    unconstrained_l1_distance,
)
from repro.experiments.workloads import make
from repro.observability.metrics import get_metrics
from repro.util.intervals import Partition


def brute_force_flattening(pmf: np.ndarray, k: int) -> float:
    """Exhaustive minimum of tv(p, flatten) over <= k-interval partitions."""
    n = len(pmf)
    best = np.inf
    for r in range(1, min(k, n) + 1):
        for cuts in combinations(range(1, n), r - 1):
            bounds = (0,) + cuts + (n,)
            err = 0.0
            for a, b in zip(bounds, bounds[1:]):
                seg = pmf[a:b]
                err += np.abs(seg - seg.mean()).sum()
            best = min(best, 0.5 * err)
    return float(best)


def brute_force_median(pmf: np.ndarray, k: int) -> float:
    """Exhaustive minimum of half-l1 to <= k-piece functions (median fit)."""
    n = len(pmf)
    best = np.inf
    for r in range(1, min(k, n) + 1):
        for cuts in combinations(range(1, n), r - 1):
            bounds = (0,) + cuts + (n,)
            err = 0.0
            for a, b in zip(bounds, bounds[1:]):
                seg = np.sort(pmf[a:b])
                med = seg[(len(seg) - 1) // 2]
                err += np.abs(seg - med).sum()
            best = min(best, 0.5 * err)
    return float(best)


class TestExactDP:
    @given(st.integers(2, 9), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_flattening_matches_bruteforce(self, n, k, seed):
        pmf = np.random.default_rng(seed).dirichlet(np.ones(n))
        assert flattening_distance(pmf, k) == pytest.approx(
            brute_force_flattening(pmf, k), abs=1e-9
        )

    @given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_unconstrained_matches_bruteforce(self, n, k, seed):
        pmf = np.random.default_rng(seed).dirichlet(np.ones(n))
        assert unconstrained_l1_distance(pmf, k) == pytest.approx(
            brute_force_median(pmf, k), abs=1e-9
        )

    def test_histogram_projects_to_zero(self):
        h = random_histogram(40, 4, rng=0)
        assert flattening_distance(h.to_pmf(), 4) == pytest.approx(0.0, abs=1e-12)
        assert unconstrained_l1_distance(h.to_pmf(), 4) == pytest.approx(0.0, abs=1e-12)

    def test_k_one_is_distance_to_uniform_mean(self):
        pmf = np.array([0.4, 0.1, 0.5])
        # Flattening with one piece = the uniform distribution.
        expected = 0.5 * np.abs(pmf - 1 / 3).sum()
        assert flattening_distance(pmf, 1) == pytest.approx(expected)

    def test_monotone_in_k(self):
        pmf = np.random.default_rng(7).dirichlet(np.ones(30))
        dists = [flattening_distance(pmf, k) for k in (1, 2, 4, 8, 16, 30)]
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))
        assert dists[-1] == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(3, 9), st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_sandwich_and_factor_two(self, n, k, seed):
        pmf = np.random.default_rng(seed).dirichlet(np.ones(n))
        lower, upper = histogram_distance_bounds(pmf, k)
        assert lower <= upper + 1e-12
        assert upper <= 2.0 * lower + 1e-9  # mean is a 2-approx of median

    def test_profile_matches_per_k_calls(self):
        from repro.distributions.projection import flattening_profile

        pmf = np.random.default_rng(11).dirichlet(np.ones(25))
        profile = flattening_profile(pmf, 8)
        for k in (1, 2, 5, 8):
            assert profile[k - 1] == pytest.approx(flattening_distance(pmf, k), abs=1e-9)

    def test_profile_monotone_and_extends_past_n(self):
        from repro.distributions.projection import flattening_profile

        pmf = np.random.default_rng(12).dirichlet(np.ones(10))
        profile = flattening_profile(pmf, 15)
        assert len(profile) == 15
        assert all(a >= b - 1e-12 for a, b in zip(profile, profile[1:]))
        assert profile[9] == pytest.approx(0.0, abs=1e-12)
        assert profile[14] == pytest.approx(0.0, abs=1e-12)

    def test_profile_validation(self):
        from repro.distributions.projection import flattening_profile

        with pytest.raises(ValueError):
            flattening_profile(np.ones(4) / 4, 0)

    def test_projection_object(self):
        pmf = np.random.default_rng(3).dirichlet(np.ones(20))
        proj = project_flattening(pmf, 3)
        assert proj.histogram.num_pieces <= 3
        hist_pmf = proj.histogram.to_pmf()
        assert 0.5 * np.abs(hist_pmf - pmf).sum() == pytest.approx(proj.distance)
        assert is_k_histogram(hist_pmf, 3)

    def test_project_pmf_is_distribution(self):
        pmf = np.random.default_rng(4).dirichlet(np.ones(15))
        d = project_pmf(pmf, 2)
        assert d.pmf.sum() == pytest.approx(1.0)
        assert is_k_histogram(d, 2)

    def test_masked_distance_ignores_masked_points(self):
        pmf = np.array([0.1, 0.1, 0.1, 0.7])
        mask = np.array([True, True, True, False])
        # With the outlier masked away, a 1-piece fit has no visible error
        # beyond the mean shift.
        masked = flattening_distance(pmf, 1, mask)
        unmasked = flattening_distance(pmf, 1)
        assert masked < unmasked

    def test_validation(self):
        with pytest.raises(ValueError):
            flattening_distance(np.ones(4) / 4, 0)
        with pytest.raises(ValueError):
            flattening_distance(np.ones(4) / 4, 2, np.array([True]))
        with pytest.raises(ValueError):
            flattening_distance(np.ones(4) / 4, 2, engine="nope")

    def test_size_caps_per_engine(self):
        # Over the dense cap: explicit dense refuses, auto routes to the
        # fast engine and succeeds (a uniform pmf is one flat piece).
        big = np.ones(9000) / 9000
        with pytest.raises(ValueError):
            flattening_distance(big, 2, engine="dense")
        assert flattening_distance(big, 2) == pytest.approx(0.0, abs=1e-12)


class TestCoarseDP:
    def test_matches_exact_when_base_is_singletons(self):
        pmf = np.random.default_rng(5).dirichlet(np.ones(12))
        base = Partition.singletons(12)
        coarse = coarse_flattening_projection(pmf, base, 3)
        assert coarse.distance == pytest.approx(flattening_distance(pmf, 3), abs=1e-9)

    def test_restricted_breakpoints_upper_bound_exact(self):
        pmf = np.random.default_rng(6).dirichlet(np.ones(24))
        base = Partition.equal_width(24, 6)
        coarse = coarse_flattening_projection(pmf, base, 3)
        # Searching a subclass can only do worse than the exact DP...
        assert coarse.distance >= flattening_distance(pmf, 3) - 1e-9
        # ...more pieces can only help...
        finer = coarse_flattening_projection(pmf, base, 6)
        assert finer.distance <= coarse.distance + 1e-9
        # ...and flattening on the full base is itself a candidate at k = 6.
        full_base_err = 0.5 * np.abs(pmf - base.flatten(pmf)).sum()
        assert finer.distance <= full_base_err + 1e-9

    def test_aligned_histogram_zero(self):
        h = random_histogram(48, 4, rng=1)
        base = Partition(np.union1d(h.partition.boundaries, Partition.equal_width(48, 8).boundaries))
        coarse = coarse_flattening_projection(h.to_pmf(), base, 4)
        assert coarse.distance == pytest.approx(0.0, abs=1e-12)

    def test_kept_mask_excludes_error(self):
        pmf = np.random.default_rng(8).dirichlet(np.ones(20))
        base = Partition.equal_width(20, 5)
        kept = np.array([True, True, False, True, True])
        with_mask = coarse_flattening_projection(pmf, base, 2, kept)
        without = coarse_flattening_projection(pmf, base, 2)
        assert with_mask.distance <= without.distance + 1e-12

    def test_piecewise_fast_path_matches_generic(self):
        # A pmf constant on the base hits the vectorised path; a jittered
        # copy hits the generic path; on the constant input both must agree.
        gen = np.random.default_rng(9)
        base = Partition.equal_width(30, 6)
        pmf = base.flatten(gen.dirichlet(np.ones(30)))
        kept = gen.random(6) > 0.3
        fast = coarse_flattening_projection(pmf, base, 3, kept)
        # Force the generic path by perturbing infinitesimally below tol.
        generic = coarse_flattening_projection(
            pmf + 0.0, Partition.singletons(30), 3, np.repeat(kept, base.lengths())
        )
        assert fast.distance == pytest.approx(generic.distance, abs=1e-9)

    def test_coarsening_path_is_upper_bound(self):
        # Force the coarsening (max_base below K) and check the reported
        # distance upper-bounds the uncoarsened one.
        gen = np.random.default_rng(10)
        n = 200
        pmf = gen.dirichlet(np.ones(n))
        base = Partition.singletons(n)
        exact = coarse_flattening_projection(pmf, base, 4)
        coarsened = coarse_flattening_projection(pmf, base, 4, max_base=32)
        assert coarsened.distance >= exact.distance - 1e-9

    def test_coarsening_near_lossless_for_histograms(self):
        h = random_histogram(400, 5, rng=11)
        base = Partition.singletons(400)
        proj = coarse_flattening_projection(h.to_pmf(), base, 5, max_base=64)
        assert proj.distance == pytest.approx(0.0, abs=1e-6)

    def test_validation(self):
        base = Partition.equal_width(10, 2)
        with pytest.raises(ValueError):
            coarse_flattening_projection(np.ones(8) / 8, base, 1)
        with pytest.raises(ValueError):
            coarse_flattening_projection(np.ones(10) / 10, base, 0)
        with pytest.raises(ValueError):
            coarse_flattening_projection(np.ones(10) / 10, base, 1, np.array([True]))


class TestExistsClose:
    def test_accepts_true_histogram(self):
        h = random_histogram(60, 3, rng=2)
        base = Partition(np.union1d(h.partition.boundaries, np.arange(0, 61, 5)))
        kept = np.ones(len(base), dtype=bool)
        assert exists_close_histogram(h.to_pmf(), base, 3, kept, tolerance=1e-9)

    def test_rejects_far_distribution(self):
        gen = np.random.default_rng(12)
        pmf = gen.dirichlet(np.full(40, 0.2))
        base = Partition.singletons(40)
        kept = np.ones(40, dtype=bool)
        true_dist = flattening_distance(pmf, 2)
        assert true_dist > 0.05
        assert not exists_close_histogram(pmf, base, 2, kept, tolerance=true_dist / 2)

    def test_negative_tolerance_raises(self):
        with pytest.raises(ValueError):
            exists_close_histogram(
                np.ones(4) / 4, Partition.trivial(4), 1, np.array([True]), -0.1
            )


class TestCheckDecidedCounter:
    """Which path decided each Step-10 check, on bench-scale inputs
    (n = 100000, k = 8, ε = 0.2 gives a base of a few hundred pieces)."""

    @staticmethod
    def decided_by(family):
        # Imported here: a module-level ``test_histogram`` would be collected.
        from repro.core.tester import test_histogram

        def counts():
            return {
                by: get_metrics().counter("projection.check_decided", by=by).value
                for by in ("upper", "lower", "exact")
            }

        before = counts()
        dist = make(family, 100_000, 8, 0.2, rng=np.random.default_rng(1))
        verdict = test_histogram(dist, 8, 0.2, rng=1, backend="pods16")
        after = counts()
        return {by: after[by] - before[by] for by in after}, verdict

    def test_complete_staircase_accepts_by_upper_bound(self):
        decided, verdict = self.decided_by("staircase")
        assert decided == {"upper": 1, "lower": 0, "exact": 0}
        assert verdict.accept

    def test_zipf_rejects_by_lower_bound(self):
        decided, verdict = self.decided_by("zipf")
        assert decided == {"upper": 0, "lower": 1, "exact": 0}
        assert not verdict.accept and verdict.stage == "check"

    def test_bimodal_falls_through_to_the_certified_split(self):
        (decided, verdict), by = counted(self.decided_by, "bimodal")
        assert decided == {"upper": 0, "lower": 0, "exact": 1}
        assert by == {"rank": 1, "fold": 0}
        assert not verdict.accept and verdict.stage == "check"


def split_counts() -> dict:
    return {
        by: get_metrics().counter("projection.split_certified", by=by).value
        for by in ("rank", "fold")
    }


def counted(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the ``split_certified`` increments it
    made."""
    before = split_counts()
    result = fn(*args, **kwargs)
    after = split_counts()
    return result, {by: after[by] - before[by] for by in after}


def forced_fold(monkeypatch, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the certificate disabled: the fold path."""
    with monkeypatch.context() as patch:
        patch.setattr(projection, "_certified_split", lambda inp, k: None)
        return fn(*args, **kwargs)


class TestSplitCertified:
    """The rank-prefix split must be the path Step 10 actually takes at
    bench scale, and must give way to the fold on a near-tie."""

    #: The nine bench identity families.
    FAMILIES = (
        "uniform",
        "staircase",
        "random-histogram",
        "spiky-histogram",
        "sawtooth-uniform",
        "sawtooth-staircase",
        "paninski",
        "zipf",
        "bimodal",
    )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bench_identity_families_certify(self, family):
        # Imported here: a module-level ``test_histogram`` would be collected.
        from repro.core.tester import test_histogram

        dist = make(family, 100_000, 8, 0.2, rng=np.random.default_rng(1))
        _, by = counted(test_histogram, dist, 8, 0.2, rng=1, backend="cdkl22")
        assert by == {"rank": 1, "fold": 0}

    def test_near_tie_takes_the_fold(self, monkeypatch):
        # A palindrome on an odd number of unit pieces: the best 2-piece
        # split and its mirror image cost the same in exact arithmetic, so
        # in floats they differ by rounding alone (within δ), and no gap
        # can tell the fold's argmin apart.
        gen = np.random.default_rng(5)
        half = gen.random(20) + 0.1
        heights = np.concatenate((half, [0.05], half[::-1]))
        pmf = heights / heights.sum()
        base = Partition.singletons(len(pmf))
        kept = np.ones(len(pmf), dtype=bool)

        inp = projection._coarse_input(pmf, base, 2, kept, projection._MAX_PROJECTION_BASE)
        _, delta = projection._rank_costs(inp)
        fold = projection._fold_costs(
            inp.mass_prefix,
            inp.len_prefix,
            np.arange(len(pmf)),
            projection._constant_piece_error(inp.values, inp.weights),
        )
        l1, split = projection._interval_dp(fold, 2)
        mirror = len(pmf) - split[::-1]
        assert not np.array_equal(mirror, split)
        assert abs(projection._split_l1(inp, mirror) - l1) <= delta

        got, by = counted(coarse_flattening_projection, pmf, base, 2, kept)
        assert by == {"rank": 0, "fold": 1}
        want = forced_fold(monkeypatch, coarse_flattening_projection, pmf, base, 2, kept)
        assert np.float64(got.distance).view(np.uint64) == np.float64(want.distance).view(np.uint64)
        assert np.array_equal(got.boundaries, want.boundaries)
        assert np.array_equal(got.boundaries, split)
        for tolerance in (want.distance, np.nextafter(want.distance, -np.inf)):
            decided, by = counted(exists_close_histogram, pmf, base, 2, kept, tolerance)
            assert by == {"rank": 0, "fold": 1}
            assert decided == (want.distance <= tolerance)
