"""The matrix-free projection engine: one column-blocked layered DP.

The engine evaluates each interval exactly once, block by block of right
endpoints, and advances every layer on a block before the next.  These
tests pin that contract: the blocked oracle DP equals the dense DP run on
the oracle's own full cost matrix bit for bit (total and boundaries) for
any block size, and it makes exactly ``n(n+1)/2`` oracle evaluations.  A
point flattening with ``n ≤ 512`` never reaches it: it takes the certified
rank-prefix split on the singleton base (or its fold), so it returns the
per-point fold's bits, and so do the benchmark's ``project`` distances.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st

from repro.distributions import projection_engine
from repro.distributions.projection import (
    _coarse_input,
    _fold_l1,
    _interval_dp,
    distance_to_histogram,
    project_flattening,
)
from repro.distributions.projection_engine import IntervalCostOracle, project_intervals
from repro.experiments.workloads import make
from repro.observability.metrics import get_metrics
from repro.util.intervals import Partition


@st.composite
def masked_cases(draw, max_n=64):
    """Values with ties and zeros, any mask, an objective, a piece count
    and a DP block budget."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    values = np.asarray(
        draw(
            st.lists(
                st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 10.0)),
                min_size=n,
                max_size=n,
            )
        )
    )
    mask = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    objective = draw(st.sampled_from(["flattening", "median"]))
    pieces = draw(st.integers(min_value=1, max_value=n + 2))
    cells = draw(st.integers(min_value=1, max_value=(n + 1) ** 2))
    return values, mask, objective, pieces, cells


def oracle_matrix(oracle: IntervalCostOracle, objective: str) -> np.ndarray:
    """The oracle's costs as a dense matrix (``inf`` below the diagonal)."""
    n = oracle.n
    cost = np.full((n + 1, n + 1), np.inf)
    np.fill_diagonal(cost, 0.0)
    a, b = np.triu_indices(n + 1, k=1)
    price = oracle.flattening_costs if objective == "flattening" else oracle.median_costs
    cost[a, b] = price(a, b)
    return cost


class TestBlockedDP:
    @given(masked_cases())
    def test_matches_dense_dp_on_the_oracle_matrix_bit_for_bit(self, case):
        values, mask, objective, pieces, cells = case
        oracle = IntervalCostOracle(values, mask)
        dense_total, dense_bounds = _interval_dp(oracle_matrix(oracle, objective), pieces)
        # A drawn block budget (down to one column per block) and a tiny
        # oracle batch exercise every block and batch boundary.
        with mock.patch.object(projection_engine, "_DP_BLOCK_CELLS", cells), \
                mock.patch.object(projection_engine, "_PAIR_BATCH", 7):
            total, bounds = project_intervals(values, mask, pieces, objective=objective)
        assert np.float64(total).view(np.uint64) == np.float64(dense_total).view(np.uint64)
        np.testing.assert_array_equal(bounds, dense_bounds)

    @pytest.mark.parametrize("objective", ["flattening", "median"])
    @pytest.mark.parametrize("n, pieces", [(1, 3), (37, 3), (200, 8)])
    def test_each_interval_is_priced_exactly_once(self, objective, n, pieces):
        pmf = np.random.default_rng(n).dirichlet(np.ones(n))
        counter = get_metrics().counter("projection.oracle_cost_evals", objective=objective)
        before = counter.value
        project_intervals(pmf, np.ones(n, dtype=bool), pieces, objective=objective)
        assert counter.value - before == n * (n + 1) // 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="objective"):
            project_intervals(np.ones(3), np.ones(3, bool), 2, objective="mean")
        with pytest.raises(ValueError, match="at least one piece"):
            project_intervals(np.ones(3), np.ones(3, bool), 0)


#: Round 0 of the benchmark's ``project`` workload at seed 1: each family's
#: input seed and the exact distance of the per-point fold, which the point
#: flattening returns at this size whatever ``engine=`` says.
PROJECT_SEED1 = (
    ("staircase", 1835504127, "0.017214628799261333"),
    ("zipf", 1501029259, "0.03741877113825433"),
    ("random-histogram", 4158717079, "0.01795614930282638"),
    ("paninski", 1103802525, "0.4081417651644019"),
)


@pytest.mark.parametrize("family, seed, expected", PROJECT_SEED1)
def test_project_workload_distances_are_pinned(family, seed, expected):
    n, k, noise = 512, 16, 0.05
    gen = np.random.default_rng(seed)
    base = make(family, n, k, 0.2, rng=gen).pmf
    pmf = (1.0 - noise) * base + noise * gen.dirichlet(np.ones(n))
    for engine in ("auto", "fast", "dense"):
        assert repr(distance_to_histogram(pmf, k, engine=engine)) == expected


def project_input(seed: int, family: str) -> np.ndarray:
    """One input of the benchmark's ``project`` workload (n = 512, k = 16)."""
    gen = np.random.default_rng(seed)
    base = make(family, 512, 16, 0.2, rng=gen).pmf
    return 0.95 * base + 0.05 * gen.dirichlet(np.ones(512))


def split_counts() -> dict:
    return {
        by: get_metrics().counter("projection.split_certified", by=by).value
        for by in ("rank", "fold")
    }


def bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def palindrome_pmf() -> np.ndarray:
    """A near tie: the best 2-piece split and its mirror cost the same in
    exact arithmetic, so only rounding separates them."""
    half = np.random.default_rng(5).random(20) + 0.1
    heights = np.concatenate((half, [0.05], half[::-1]))
    return heights / heights.sum()


def point_fold(pmf: np.ndarray, pieces: int, mask: np.ndarray | None = None):
    """The per-point fold on the singleton base: the exact reference a
    point flattening with ``n ≤ 512`` must reproduce bit for bit."""
    n = len(pmf)
    l1, bounds = _fold_l1(_coarse_input(pmf, Partition.singletons(n), pieces, mask, n), pieces)
    return 0.5 * l1, bounds


class TestCertifiedPointFlattening:
    """A point flattening with ``n ≤ 512`` is the Step-10 split on the
    singleton base."""

    @given(masked_cases())
    def test_engines_agree_bit_for_bit(self, case):
        # ``distance_to_histogram`` still accepts ``engine=`` but does not
        # route on it: every value returns the per-point fold's bits.
        values, mask, _, pieces, _ = case
        assume(values.sum() > 0.0)
        pmf = values / values.sum()
        before = split_counts()
        got = project_flattening(pmf, pieces, mask)
        certified = split_counts()["rank"] > before["rank"]
        event("certified" if certified else "fell back to the fold")
        distance, bounds = point_fold(pmf, pieces, mask)
        assert bits(got.distance) == bits(distance)
        np.testing.assert_array_equal(got.boundaries, bounds)
        for engine in ("auto", "fast", "dense"):
            assert bits(distance_to_histogram(pmf, pieces, mask, engine=engine)) == bits(distance)

    @pytest.mark.parametrize(
        "pmf, pieces",
        [
            (np.full(64, 1 / 64), 4),
            # Exactly piecewise constant with more pieces than steps: many
            # splits cost exactly zero.
            (np.repeat(np.array([0.1, 0.3, 0.2, 0.4]) / 16, 16), 6),
            (palindrome_pmf(), 2),
        ],
        ids=["uniform", "piecewise-constant", "palindrome"],
    )
    def test_ties_fall_back_to_the_fold(self, pmf, pieces):
        before = split_counts()
        got = project_flattening(pmf, pieces)
        after = split_counts()
        assert {by: after[by] - before[by] for by in after} == {"rank": 0, "fold": 1}
        distance, bounds = point_fold(pmf, pieces)
        assert bits(got.distance) == bits(distance)
        np.testing.assert_array_equal(got.boundaries, bounds)

    def test_project_workload_makes_no_oracle_calls(self):
        evals = get_metrics().counter("projection.oracle_cost_evals", objective="flattening")
        before, evals_before = split_counts(), evals.value
        for family, seed, expected in PROJECT_SEED1:
            got = project_flattening(project_input(seed, family), 16)
            assert repr(got.distance) == expected
        after = split_counts()
        assert {by: after[by] - before[by] for by in after} == {"rank": 4, "fold": 0}
        assert evals.value == evals_before
