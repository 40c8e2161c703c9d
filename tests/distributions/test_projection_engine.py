"""The matrix-free projection engine: one column-blocked layered DP.

The engine evaluates each interval exactly once, block by block of right
endpoints, and advances every layer on a block before the next.  These
tests pin that contract: the blocked oracle DP equals the dense DP run on
the oracle's own full cost matrix bit for bit (total and boundaries) for
any block size, it makes exactly ``n(n+1)/2`` oracle evaluations, and the
benchmark's ``project`` distances keep their exact values.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distributions import projection_engine
from repro.distributions.projection import _interval_dp, distance_to_histogram
from repro.distributions.projection_engine import IntervalCostOracle, project_intervals
from repro.experiments.workloads import make
from repro.observability.metrics import get_metrics


@st.composite
def weighted_cases(draw, max_n=64):
    """Values with ties and zeros, integer weights, any mask, an optional
    mass numerator, an objective, a piece count and a DP block budget."""
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
    weights = np.asarray(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), float)
    mask = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    numerator = (
        np.asarray(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
        if draw(st.booleans())
        else None
    )
    objective = draw(st.sampled_from(["flattening", "median"]))
    pieces = draw(st.integers(min_value=1, max_value=n + 2))
    cells = draw(st.integers(min_value=1, max_value=(n + 1) ** 2))
    return values, weights, mask, numerator, objective, pieces, cells


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
    @given(weighted_cases())
    def test_matches_dense_dp_on_the_oracle_matrix_bit_for_bit(self, case):
        values, weights, mask, numerator, objective, pieces, cells = case
        oracle = IntervalCostOracle(values, weights, mask, mean_numerator=numerator)
        dense_total, dense_bounds = _interval_dp(oracle_matrix(oracle, objective), pieces)
        # A drawn block budget (down to one column per block) and a tiny
        # oracle batch exercise every block and batch boundary.
        with mock.patch.object(projection_engine, "_DP_BLOCK_CELLS", cells), \
                mock.patch.object(projection_engine, "_PAIR_BATCH", 7):
            total, bounds = project_intervals(
                values, weights, mask, pieces, objective=objective,
                mean_numerator=numerator,
            )
        assert np.float64(total).view(np.uint64) == np.float64(dense_total).view(np.uint64)
        np.testing.assert_array_equal(bounds, dense_bounds)

    @pytest.mark.parametrize("objective", ["flattening", "median"])
    @pytest.mark.parametrize("n, pieces", [(1, 3), (37, 3), (200, 8)])
    def test_each_interval_is_priced_exactly_once(self, objective, n, pieces):
        pmf = np.random.default_rng(n).dirichlet(np.ones(n))
        counter = get_metrics().counter("projection.oracle_cost_evals", objective=objective)
        before = counter.value
        project_intervals(pmf, np.ones(n), np.ones(n, dtype=bool), pieces, objective=objective)
        assert counter.value - before == n * (n + 1) // 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="objective"):
            project_intervals(np.ones(3), np.ones(3), np.ones(3, bool), 2, objective="mean")
        with pytest.raises(ValueError, match="at least one piece"):
            project_intervals(np.ones(3), np.ones(3), np.ones(3, bool), 0)


#: Round 0 of the benchmark's ``project`` workload at seed 1: each family's
#: input seed and the exact distance the engine returned before the column-
#: blocked DP replaced the pruned divide-and-conquer.
PROJECT_SEED1 = (
    ("staircase", 1835504127, "0.017214628799261708"),
    ("zipf", 1501029259, "0.03741877113825426"),
    ("random-histogram", 4158717079, "0.01795614930282682"),
    ("paninski", 1103802525, "0.4081417651644022"),
)


@pytest.mark.parametrize("family, seed, expected", PROJECT_SEED1)
def test_project_workload_distances_are_pinned(family, seed, expected):
    n, k, noise = 512, 16, 0.05
    gen = np.random.default_rng(seed)
    base = make(family, n, k, 0.2, rng=gen).pmf
    pmf = (1.0 - noise) * base + noise * gen.dirichlet(np.ones(n))
    assert repr(distance_to_histogram(pmf, k, engine="fast")) == expected
