"""Golden equivalence: the oracle DP must match exact references.

The oracle DP (:func:`~repro.distributions.projection_engine.project_intervals`)
prices every interval once through a prefix-sum and rank-tree oracle, so it
agrees with a dense cost matrix only up to rounding.  These tests pin it on
random pmfs, masks (including fully masked domains) and piece counts to
1e-12, well below any statistical tolerance, against two independent
references: for the flattening, the library's point flattening at these
sizes (the certified split on the singleton base, which carries the
per-point fold's bits); for the median, the prefix-median cost matrix
below, run through the same interval DP.  That matrix is the test-side
reference only: the library's median runs the oracle DP at every ``n``.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.distributions.projection import (
    _interval_dp,
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


def prefix_median_costs(mvals: np.ndarray) -> np.ndarray:
    """``out[s-1]`` = ``min_c Σ_{r ≤ s} |mvals_r − c|`` for every prefix.

    Sort once, then for each prefix length ``s`` locate the ``⌈s/2⌉``-th
    smallest (the lower median) by counting which sorted elements were
    inserted by time ``s``.  With ``low_sum`` the sum of the ``⌈s/2⌉``
    smallest, the cost is ``total_s − 2·low_sum + med·(2·⌈s/2⌉ − s)`` — the
    below/above split around the median.
    """
    m = len(mvals)
    if m == 0:
        return np.empty(0)
    total = np.cumsum(mvals)
    order = np.argsort(mvals, kind="stable")
    u = mvals[order]
    t = order + 1  # insertion time (1-based) of each sorted element
    s = np.arange(1, m + 1)
    incl = t[None, :] <= s[:, None]  # (m, m): in prefix s?
    k = (s + 1) // 2  # lower-median rank
    medpos = np.argmax(np.cumsum(incl, axis=1) >= k[:, None], axis=1)
    low_sum = np.take_along_axis(
        np.cumsum(np.where(incl, u, 0.0), axis=1), medpos[:, None], axis=1
    ).ravel()
    return total - 2.0 * low_sum + u[medpos] * (2 * k - s)


def median_cost_matrix(p: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``C[i, j]`` = min over constants ``c`` of masked ``Σ |p_t − c|``:
    each row's running costs from one prefix-median pass over the masked
    tail, spread to the unmasked columns, where the cost stays flat."""
    n = len(p)
    cost = np.full((n + 1, n + 1), np.inf)
    np.fill_diagonal(cost, 0.0)
    for i in range(n):
        tmask = mask[i:]
        by_prefix = np.concatenate(([0.0], prefix_median_costs(p[i:][tmask])))
        cost[i, i + 1 :] = by_prefix[np.cumsum(tmask)]
    return cost


def oracle_distance(pmf: np.ndarray, k: int, mask: np.ndarray | None = None) -> float:
    """The oracle DP's flattening distance (what the point API runs above
    ``n = 512``)."""
    if mask is None:
        mask = np.ones(len(pmf), dtype=bool)
    return 0.5 * project_intervals(pmf, mask, k)[0]


class TestEngineEquivalence:
    @given(masked_pmfs())
    def test_flattening_distance_matches_dense(self, case):
        pmf, mask, k = case
        fold = flattening_distance(pmf, k, mask)
        assert abs(oracle_distance(pmf, k, mask) - fold) <= ATOL

    @given(masked_pmfs())
    def test_unconstrained_l1_matches_dense(self, case):
        pmf, mask, k = case
        oracle, _ = project_intervals(pmf, mask, k, objective="median")
        dense, _ = _interval_dp(median_cost_matrix(pmf, mask), k)
        assert 0.5 * abs(oracle - dense) <= ATOL
        # The library's lower bound is the oracle DP's, clipped at zero.
        assert unconstrained_l1_distance(pmf, k, mask) == max(0.0, 0.5 * oracle)

    @given(masked_pmfs())
    def test_fast_projection_realises_its_distance(self, case):
        # The oracle DP's boundaries must *realise* the cost it reports —
        # a pruned-away optimal parent would break this, not just the total
        # — and that cost must be the fold's.
        pmf, mask, k = case
        l1, bounds = project_intervals(pmf, mask, k)
        assert len(bounds) - 1 <= k
        flat = np.zeros_like(pmf)
        for a, b in zip(bounds[:-1], bounds[1:]):
            flat[a:b] = pmf[a:b].mean()
        realised = 0.5 * (np.abs(pmf - flat) * mask).sum()
        assert abs(0.5 * l1 - realised) <= ATOL
        fold = project_flattening(pmf, k, mask)
        assert abs(0.5 * l1 - fold.distance) <= ATOL

    @given(st.integers(1, 64), st.integers(0, 10_000))
    def test_single_piece_matches_dense(self, n, seed):
        pmf = np.random.default_rng(seed).dirichlet(np.ones(n))
        fold = flattening_distance(pmf, 1)
        assert abs(oracle_distance(pmf, 1) - fold) <= ATOL

    def test_all_masked_is_zero_on_both_engines(self):
        pmf = np.random.default_rng(0).dirichlet(np.ones(40))
        mask = np.zeros(40, dtype=bool)
        for k in (1, 3, 40):
            assert oracle_distance(pmf, k, mask) <= ATOL
            assert flattening_distance(pmf, k, mask) <= ATOL

    def test_singleton_domain(self):
        pmf = np.ones(1)
        assert oracle_distance(pmf, 1) <= ATOL
        assert flattening_distance(pmf, 1) <= ATOL
