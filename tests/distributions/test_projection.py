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
    distance_to_histogram,
    exists_close_histogram,
    flattening_distance,
    histogram_distance_bounds,
    project_flattening,
    unconstrained_l1_distance,
)
from repro.experiments.workloads import make
from repro.observability.metrics import get_metrics
from repro.util.intervals import Partition
from tests.properties.test_rank_blocks import assembled


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


def sorted_piece_error(p: np.ndarray, base: Partition):
    """A generic fold term, exact for pieces whose values vary:
    ``Σ_{t∈q} |p_t − μ|`` for a whole block of means at once, via one
    ``searchsorted`` against the piece's sorted values.  A reference for
    the library's constant-piece term."""

    def error(q: int, mu: np.ndarray, out: np.ndarray) -> None:
        seg = np.sort(p[base[q].slice()])
        pre = np.concatenate(([0.0], np.cumsum(seg)))
        pos = np.searchsorted(seg, mu)
        below = mu * pos - pre[pos]
        above = (pre[-1] - pre[pos]) - mu * (len(seg) - pos)
        np.add(below, above, out=out)

    return error


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

    @pytest.mark.parametrize(
        "n, k, pieces", [(5, 6, None), (40, 40, None), (12, 3, [0.1, 0.3, 0.6])]
    )
    def test_median_lower_bound_is_exactly_zero_on_exact_inputs(self, n, k, pieces):
        """A certified lower bound must not exceed the true distance 0: an
        interval whose masked values all equal its median prices at exactly
        0, not at the few ulps its prefix-sum difference leaves (3.6e-17,
        2.2e-16 and 2.8e-17 on these inputs before)."""
        if pieces is None:
            pmf = np.random.default_rng(0).random(n)
            pmf /= pmf.sum()
        else:
            pmf = np.repeat(pieces, n // len(pieces)) / (n // len(pieces))
        assert unconstrained_l1_distance(pmf, k) == 0.0
        lower, upper = histogram_distance_bounds(pmf, k)
        assert lower == 0.0 <= upper

    @given(st.integers(1, 40), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_median_lower_bound_is_zero_with_a_piece_per_point(self, n, seed):
        pmf = np.random.default_rng(seed).dirichlet(np.ones(n))
        assert unconstrained_l1_distance(pmf, n) == 0.0

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

    def test_projection_object(self):
        pmf = np.random.default_rng(3).dirichlet(np.ones(20))
        proj = project_flattening(pmf, 3)
        assert proj.histogram.num_pieces <= 3
        hist_pmf = proj.histogram.to_pmf()
        assert 0.5 * np.abs(hist_pmf - pmf).sum() == pytest.approx(proj.distance)
        assert is_k_histogram(hist_pmf, 3)

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
        with pytest.raises(ValueError, match="engine"):
            distance_to_histogram(np.ones(4) / 4, 2, engine="nope")

    def test_engine_does_not_route(self):
        pmf = np.random.default_rng(4).dirichlet(np.ones(30))
        want = flattening_distance(pmf, 3)
        for engine in ("auto", "fast", "dense"):
            assert distance_to_histogram(pmf, 3, engine=engine) == want

    def test_size_caps_per_engine(self):
        # One point-granularity cap for every objective: above it each entry
        # refuses loudly and names the coarse projection.
        big = np.ones(projection._MAX_DENSE_N + 1) / (projection._MAX_DENSE_N + 1)
        for engine in ("auto", "fast", "dense"):
            with pytest.raises(ValueError, match="coarse_flattening_projection"):
                distance_to_histogram(big, 2, engine=engine)
        with pytest.raises(ValueError, match="coarse_flattening_projection"):
            histogram_distance_bounds(big, 2)


class TestCoarseDP:
    def test_matches_exact_when_base_is_singletons(self):
        pmf = np.random.default_rng(5).dirichlet(np.ones(12))
        base = Partition.singletons(12)
        coarse = coarse_flattening_projection(pmf, base, 3)
        assert coarse.distance == pytest.approx(flattening_distance(pmf, 3), abs=1e-9)

    def test_restricted_breakpoints_upper_bound_exact(self):
        gen = np.random.default_rng(6)
        base = Partition.equal_width(24, 6)
        pmf = base.flatten(gen.dirichlet(np.ones(24)))
        coarse = coarse_flattening_projection(pmf, base, 3)
        # Searching a subclass can only do worse than the exact DP...
        assert coarse.distance >= flattening_distance(pmf, 3) - 1e-9
        # ...more pieces can only help...
        finer = coarse_flattening_projection(pmf, base, 6)
        assert finer.distance <= coarse.distance + 1e-9
        # ...and the base itself is a candidate at k = 6, one that
        # reproduces the pmf exactly.
        assert finer.distance <= 1e-12

    def test_aligned_histogram_zero(self):
        h = random_histogram(48, 4, rng=1)
        base = Partition(np.union1d(h.partition.boundaries, Partition.equal_width(48, 8).boundaries))
        coarse = coarse_flattening_projection(h.to_pmf(), base, 4)
        assert coarse.distance == pytest.approx(0.0, abs=1e-12)

    def test_kept_mask_excludes_error(self):
        base = Partition.equal_width(20, 5)
        pmf = base.flatten(np.random.default_rng(8).dirichlet(np.ones(20)))
        kept = np.array([True, True, False, True, True])
        with_mask = coarse_flattening_projection(pmf, base, 2, kept)
        without = coarse_flattening_projection(pmf, base, 2)
        assert with_mask.distance <= without.distance + 1e-12

    def test_piecewise_fast_path_matches_generic(self):
        # The constant-piece fold must find the optimum of a generic
        # sorted-piece fold on the same base, up to rounding.
        gen = np.random.default_rng(9)
        base = Partition.equal_width(30, 6)
        pmf = base.flatten(gen.dirichlet(np.ones(30)))
        kept = gen.random(6) > 0.3
        inp = projection._coarse_input(pmf, base, 3, kept, projection._MAX_PROJECTION_BASE)
        fast = coarse_flattening_projection(pmf, base, 3, kept)
        cost = projection._fold_costs(
            inp.mass_prefix,
            inp.len_prefix,
            np.flatnonzero(kept),
            sorted_piece_error(pmf, base),
        )
        l1, _ = projection._interval_dp(cost, 3)
        assert fast.distance == pytest.approx(0.5 * l1, abs=1e-12)

    def test_nearly_constant_pieces_are_refused(self):
        # Pieces that vary by 1e-7 relative are not constant: pricing each
        # at its first value would move the distance by ~1e-9, far above
        # the check's absolute margin, so an approximate constancy test
        # would be wrong here.
        gen = np.random.default_rng(0)
        base = Partition.equal_width(4000, 40)
        pmf = np.repeat(gen.uniform(0.5, 1.5, size=40), 100)
        pmf *= 1.0 + 1e-7 * gen.uniform(-1.0, 1.0, size=4000)
        pmf /= pmf.sum()
        assert np.allclose(pmf, base.flatten(pmf))
        with pytest.raises(ValueError, match="not constant"):
            coarse_flattening_projection(pmf, base, 3)
        kept = np.ones(len(base), dtype=bool)
        with pytest.raises(ValueError, match="not constant"):
            exists_close_histogram(pmf, base, 3, kept, 0.01)

    def test_coarsening_path_is_upper_bound(self, monkeypatch):
        # Force the coarsening (a size cap below K) and check the reported
        # distance upper-bounds the uncoarsened one.
        gen = np.random.default_rng(10)
        n = 200
        pmf = gen.dirichlet(np.ones(n))
        base = Partition.singletons(n)
        exact = coarse_flattening_projection(pmf, base, 4)
        monkeypatch.setattr(projection, "_MAX_PROJECTION_BASE", 32)
        coarsened = coarse_flattening_projection(pmf, base, 4)
        # The cap is read at call time: the coarsening ran and added error.
        assert coarsened.distance > exact.distance

    def test_coarsening_near_lossless_for_histograms(self, monkeypatch):
        h = random_histogram(400, 5, rng=11)
        base = Partition.singletons(400)
        monkeypatch.setattr(projection, "_MAX_PROJECTION_BASE", 64)
        proj = coarse_flattening_projection(h.to_pmf(), base, 5)
        assert proj.distance == pytest.approx(0.0, abs=1e-6)

    def test_validation(self):
        base = Partition.equal_width(10, 2)
        with pytest.raises(ValueError):
            coarse_flattening_projection(np.ones(8) / 8, base, 1)
        with pytest.raises(ValueError):
            coarse_flattening_projection(np.ones(10) / 10, base, 0)
        with pytest.raises(ValueError):
            coarse_flattening_projection(np.ones(10) / 10, base, 1, np.array([True]))


def bad_pmf(value: float) -> np.ndarray:
    pmf = np.full(12, 1 / 12)
    pmf[5] = value
    return pmf


POINT_ENTRIES = {
    "project_flattening": project_flattening,
    "flattening_distance": flattening_distance,
    "distance_to_histogram": distance_to_histogram,
    "unconstrained_l1_distance": unconstrained_l1_distance,
    "histogram_distance_bounds": histogram_distance_bounds,
}
ENTRIES = {
    **POINT_ENTRIES,
    "coarse_flattening_projection": lambda p, k: coarse_flattening_projection(
        p, Partition.singletons(len(p)), k
    ),
    "exists_close_histogram": lambda p, k: exists_close_histogram(
        p, Partition.singletons(len(p)), k, np.ones(len(p), dtype=bool), 0.1
    ),
}


class TestInputDomain:
    """Every public entry refuses a pmf with a NaN, an infinity or a
    negative value, by name, instead of returning a distance for it (a
    NaN once read as a certified lower bound of 0.0)."""

    @pytest.mark.parametrize(
        "value, match",
        [(np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
         (-0.05, "negative")],
        ids=["nan", "inf", "-inf", "negative"],
    )
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_raises(self, entry, value, match):
        with pytest.raises(ValueError, match=match):
            ENTRIES[entry](bad_pmf(value), 3)

    @pytest.mark.parametrize("entry", sorted(POINT_ENTRIES))
    def test_raises_above_the_certified_band(self, entry):
        # Above n = 512 the flattening runs the oracle DP, which has no
        # check of its own.
        pmf = np.full(600, 1 / 600)
        pmf[7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            POINT_ENTRIES[entry](pmf, 3)


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

    def test_bench_project_inputs_certify(self):
        # Every input of the benchmark's ``project`` workload at seed 1:
        # 20 rounds × 4 families, n = 512, k = 16.
        families = ("staircase", "zipf", "random-histogram", "paninski")
        before = split_counts()
        for r in range(20):
            for f, family in enumerate(families):
                seed = np.random.SeedSequence([1, r, f]).generate_state(1)[0]
                gen = np.random.default_rng(seed)
                base = make(family, 512, 16, 0.2, rng=gen).pmf
                distance_to_histogram(0.95 * base + 0.05 * gen.dirichlet(np.ones(512)), 16)
        after = split_counts()
        assert {by: after[by] - before[by] for by in after} == {"rank": 80, "fold": 0}

    @staticmethod
    def serve_sized(seed: int):
        """A Step-10 input the size serve's checks run (K = 40–120, k = 4):
        noisy heights on long pieces with unkept ones (``seed % 3 == 0``),
        an exact 3-piece histogram, whose many optimal splits tie (1), or a
        palindrome on unit pieces, whose best split ties with its mirror
        (2)."""
        gen = np.random.default_rng(seed)
        big_k = int(gen.integers(40, 121))
        base = Partition(np.concatenate(([0], np.cumsum(gen.integers(1, 2000, size=big_k)))))
        heights = gen.random(big_k) + 0.05
        kept = gen.random(big_k) > 0.1
        if seed % 3 == 1:
            cuts = np.sort(gen.choice(np.arange(1, big_k), 2, replace=False))
            heights = np.repeat(gen.random(3) + 0.05, np.diff(np.r_[0, cuts, big_k]))
        elif seed % 3 == 2:
            half = heights[: big_k // 2]
            heights = np.concatenate((half, heights[len(half) : big_k - len(half)], half[::-1]))
            base = Partition.singletons(big_k)
        if seed % 3:
            kept[:] = True
        pmf = np.repeat(heights, base.lengths())
        return pmf / pmf.sum(), base, kept

    def test_serve_sized_outcomes_are_pinned(self):
        # Recorded on the dense rank build (``reference_rank_costs``); the
        # column blocks must keep every outcome.
        outcomes = ""
        for seed in range(60):
            pmf, base, kept = self.serve_sized(seed)
            _, by = counted(coarse_flattening_projection, pmf, base, 4, kept)
            outcomes += "r" if by == {"rank": 1, "fold": 0} else "f"
        assert outcomes == "rff" * 20

    @pytest.mark.parametrize("big_k, blocks", [(32, [33]), (512, [32] * 15 + [33])])
    def test_a_short_remainder_joins_the_last_block(self, monkeypatch, big_k, blocks):
        # K + 1 right endpoints, 32 at a time: the one left over joins the
        # block before it instead of paying for a costs call of its own.
        widths = []
        rank_costs = projection._rank_costs

        def counting(inp, rows):
            costs, delta = rank_costs(inp, rows)

            def counted_costs(ends):
                widths.append(len(ends))
                return costs(ends)

            return counted_costs, delta

        monkeypatch.setattr(projection, "_rank_costs", counting)
        pmf = np.random.default_rng(big_k).random(big_k) + 0.05
        inp = projection._coarse_input(
            pmf / pmf.sum(), Partition.singletons(big_k), 4, None, projection._MAX_PROJECTION_BASE
        )
        assert projection._certified_split(inp, 4) is not None
        assert widths == blocks + [4]  # the DP's blocks, then the path's 4 columns

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
        _, delta = assembled(inp)
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
