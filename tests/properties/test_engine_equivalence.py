"""Golden equivalence: the fast oracle engine must match the dense DP.

The fast engine (:mod:`repro.distributions.projection_engine`) prices every
interval once through a prefix-sum and rank-tree oracle instead of the
dense cost matrix, so the two agree only up to rounding.  These tests pin
the oracle DP against the dense engine on random pmfs, masks (including
fully masked domains) and piece counts — agreement to 1e-12, well below
any statistical tolerance.  A point flattening this small takes the
certified split on every engine, so the flattening cases call the oracle
DP (:func:`project_intervals`) directly; the median cases go through the
point API, where the two engines still differ.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.distributions.projection import (
    flattening_distance,
    project_flattening,
    unconstrained_l1_distance,
)
from repro.distributions.projection_engine import project_intervals

ATOL = 1e-12


@st.composite
def masked_pmfs(draw, max_n=96):
    """(pmf, mask, k): weights with zeros and spikes, any mask incl. empty."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    weights = np.asarray(
        draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(1e-6, 100.0, allow_nan=False)),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.float64,
    )
    total = weights.sum()
    pmf = weights / total if total > 0 else np.full(n, 1.0 / n)
    mask = np.asarray(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    k = draw(st.integers(min_value=1, max_value=n + 2))
    return pmf, mask, k


def oracle_distance(pmf: np.ndarray, k: int, mask: np.ndarray | None = None) -> float:
    """The oracle DP's flattening distance (what ``engine="fast"`` runs
    above ``n = 512``)."""
    if mask is None:
        mask = np.ones(len(pmf), dtype=bool)
    return 0.5 * project_intervals(pmf, mask, k)[0]


class TestEngineEquivalence:
    @given(masked_pmfs())
    def test_flattening_distance_matches_dense(self, case):
        pmf, mask, k = case
        dense = flattening_distance(pmf, k, mask, engine="dense")
        assert abs(oracle_distance(pmf, k, mask) - dense) <= ATOL

    @given(masked_pmfs())
    def test_unconstrained_l1_matches_dense(self, case):
        pmf, mask, k = case
        fast = unconstrained_l1_distance(pmf, k, mask, engine="fast")
        dense = unconstrained_l1_distance(pmf, k, mask, engine="dense")
        assert abs(fast - dense) <= ATOL

    @given(masked_pmfs())
    def test_fast_projection_realises_its_distance(self, case):
        # The oracle DP's boundaries must *realise* the cost it reports —
        # a pruned-away optimal parent would break this, not just the total
        # — and that cost must be the dense engine's.
        pmf, mask, k = case
        l1, bounds = project_intervals(pmf, mask, k)
        assert len(bounds) - 1 <= k
        flat = np.zeros_like(pmf)
        for a, b in zip(bounds[:-1], bounds[1:]):
            flat[a:b] = pmf[a:b].mean()
        realised = 0.5 * (np.abs(pmf - flat) * mask).sum()
        assert abs(0.5 * l1 - realised) <= ATOL
        dense = project_flattening(pmf, k, mask, engine="dense")
        assert abs(0.5 * l1 - dense.distance) <= ATOL

    @given(st.integers(1, 64), st.integers(0, 10_000))
    def test_single_piece_matches_dense(self, n, seed):
        pmf = np.random.default_rng(seed).dirichlet(np.ones(n))
        dense = flattening_distance(pmf, 1, engine="dense")
        assert abs(oracle_distance(pmf, 1) - dense) <= ATOL

    def test_all_masked_is_zero_on_both_engines(self):
        pmf = np.random.default_rng(0).dirichlet(np.ones(40))
        mask = np.zeros(40, dtype=bool)
        for k in (1, 3, 40):
            assert oracle_distance(pmf, k, mask) <= ATOL
            assert flattening_distance(pmf, k, mask, engine="dense") <= ATOL

    def test_singleton_domain(self):
        pmf = np.ones(1)
        assert oracle_distance(pmf, 1) <= ATOL
        for engine in ("fast", "dense"):
            assert flattening_distance(pmf, 1, engine=engine) <= ATOL
