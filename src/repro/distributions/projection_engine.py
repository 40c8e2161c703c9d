"""Matrix-free ``H_k`` projection engine: a lazy cost oracle + a
column-blocked layered DP.

The dense path in :mod:`repro.distributions.projection` materialises an
``(n+1)×(n+1)`` interval-cost matrix (Θ(n³) work for the flattening build)
and runs the layered DP over it.  This module keeps the DP and replaces
the matrix:

**Interval cost oracle** (:class:`IntervalCostOracle`).  Costs are over
weighted values ``(v_q, w_q)`` with a boolean "don't-care" mask — one
engine covers both the point-granularity DPs (``w ≡ 1``, ``v = p``) and
the coarse piecewise-constant Step-10 variant (``w`` = interval lengths,
``v`` = interval values).  The flattening cost of ``[a, b)`` is
``Σ_{q∈[a,b), masked} w_q·|v_q − μ|`` with ``μ`` the *full*-interval
weighted mean (mass-1 constraint), and decomposes through prefix sums once
the elements below/above ``μ`` can be aggregated:

    ``below = μ·W_{<μ} − S_{<μ}``,   ``above = (S − S_{≤μ}) − μ·(W − W_{≤μ})``

where ``W_{<c}(a, b)`` / ``S_{<c}(a, b)`` are the masked weight / masked
weight·value totals of elements with value below ``c``.  Those are served
by a Fenwick-block rank tree (the ``rank_tree.*`` ops of
:mod:`repro.kernels`): each level stores its aligned blocks sorted by
**integer global value rank** (a float "offset" key would lose low-order
bits and misclassify values within a few ulp of ``μ``) together with
running sums of the masked weights in that order, and ``[a, b)``
decomposes into its canonical segment-tree cover.  The tree is stored as
flat arrays with per-level key offsets so a batched query across *all*
levels of *all* queries is a single ``searchsorted`` — O(log n) per
interval after an O(n log² n) preprocess.  The median (unconstrained ℓ1)
variant binary-searches the weighted lower median over global value ranks
with the same primitive, matching the dense two-heap tracker's
lower-median convention.

**Column-blocked layered DP** (:func:`_dp_layers`).  The recurrence
``f_r(j) = min_i f_{r−1}(i) + C(i, j)`` runs over blocks of right
endpoints ``J = [j0, j1)``: the block's costs ``C(i, J)`` for every
``i < j1`` are produced once, then every layer ``r = 1..pieces`` is
advanced on ``J`` before the next block (``f_{r−1}`` on ``J`` itself is
final by then, since ``i ≤ j``).  The oracle path
(:func:`project_intervals`) therefore evaluates each interval exactly
once — ``n(n+1)/2`` evaluations for every input, so the worst case is the
typical case — with O(n·k) memory for the layers and parents plus one
block of at most :data:`_DP_BLOCK_CELLS` cells.  The same function runs
the dense matrices of :mod:`repro.distributions.projection`; below the
cell budget a matrix is one block, which is exactly the unblocked DP.
Ties resolve to the smallest ``i`` (``np.argmin``'s first minimum), and
every ``f_r(j)`` is ``fl(f_{r−1}(i) + C(i, j))`` of the oracle's exact
``C`` — no pruning, no tolerance.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.kernels import dispatch
from repro.observability.metrics import get_metrics

_OBJECTIVES = ("flattening", "median")

#: Cells (right endpoints × left endpoints) in one column block of
#: :func:`_dp_layers`.  At 2¹⁸ every ``(K+1)²`` matrix with ``K ≤ 511`` is a
#: single block (the unblocked DP), and a block plus its per-layer scratch
#: is 4 MB at any ``n``.
_DP_BLOCK_CELLS = 1 << 18

#: Pairs per oracle call while a block is filled (whole rows, at least
#: one): bounds the per-call transients of the oracle and its rank-tree
#: kernel.  Traced peak of one bench ``project`` op (n = 512, k = 16) on a
#: 2-vCPU container: 7.5 MB at 2¹³, 12.5 MB at 2¹⁴, 20.2 MB at 2¹⁷, with
#: no measurable difference in time.
_PAIR_BATCH = 1 << 13

#: ``columns(j0, j1)`` → the ``(j1 − j0, j1)`` array whose row ``j − j0``
#: holds ``C(i, j)`` for ``i < j1`` (``0`` at ``i = j``, ``inf`` above it).
ColumnBlocks = Callable[[int, int], np.ndarray]


def _count_cost_evals(objective: str, pairs: int) -> None:
    """Meter oracle cost evaluations (one count per (a, b) pair queried)."""
    get_metrics().counter("projection.oracle_cost_evals", objective=objective).inc(pairs)


class IntervalCostOracle:
    """Batched interval costs over weighted masked values.

    ``flattening_costs(a, b)`` evaluates the masked ℓ1 error against the
    full-interval weighted mean; ``median_costs(a, b)`` the masked ℓ1
    optimum over constants (weighted lower median).  ``mean_numerator``
    optionally overrides the per-element numerator of the mean (the coarse
    path passes interval masses so ``μ`` matches the dense build bitwise).
    Each pair's cost depends only on the pair, never on its batchmates.
    """

    def __init__(
        self,
        values: np.ndarray,
        weights: np.ndarray,
        mask: np.ndarray,
        *,
        mean_numerator: np.ndarray | None = None,
    ):
        v = np.ascontiguousarray(values, dtype=np.float64)
        w = np.ascontiguousarray(weights, dtype=np.float64)
        m = np.ascontiguousarray(mask, dtype=bool)
        n = len(v)
        if w.shape != (n,) or m.shape != (n,):
            raise ValueError("values, weights and mask must share one shape")
        if n and float(w.min()) <= 0.0:
            raise ValueError("weights must be strictly positive")
        self.n = n
        num = w * v if mean_numerator is None else np.asarray(mean_numerator, np.float64)
        wm = np.where(m, w, 0.0)
        wvm = wm * v
        self._w_pre = np.concatenate(([0.0], np.cumsum(w)))
        self._num_pre = np.concatenate(([0.0], np.cumsum(num)))
        self._mw_pre = np.concatenate(([0.0], np.cumsum(wm)))
        self._mwv_pre = np.concatenate(([0.0], np.cumsum(wvm)))
        self._tree = dispatch("rank_tree.build")(v, wm, wvm)
        self._interval_stats = dispatch("rank_tree.interval_stats")

    def _below_above(self, a, b, c, L_lt):
        """Masked ℓ1 error of ``[a, b)`` against per-interval constant ``c``,
        given the rank cut-off for strict (< c) membership.  Elements equal
        to ``c`` contribute zero either side, so the strict cut suffices."""
        w_lt, wv_lt = self._interval_stats(self._tree, a, b, L_lt)
        mw = self._mw_pre[b] - self._mw_pre[a]
        mwv = self._mwv_pre[b] - self._mwv_pre[a]
        below = c * w_lt - wv_lt
        above = (mwv - wv_lt) - c * (mw - w_lt)
        return np.maximum(below, 0.0) + np.maximum(above, 0.0)

    def flattening_costs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        _count_cost_evals("flattening", len(a))
        out = np.zeros(len(a), dtype=np.float64)
        nz = b > a
        if not nz.any():
            return out
        aa, bb = a[nz], b[nz]
        sw = self._w_pre[bb] - self._w_pre[aa]
        mu = (self._num_pre[bb] - self._num_pre[aa]) / sw
        uv = self._tree.unique_vals
        L_lt = np.searchsorted(uv, mu, side="left").astype(np.int64)
        out[nz] = self._below_above(aa, bb, mu, L_lt)
        return out

    def median_costs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        _count_cost_evals("median", len(a))
        out = np.zeros(len(a), dtype=np.float64)
        mw = self._mw_pre[b] - self._mw_pre[a]
        nz = (b > a) & (mw > 0.0)
        if not nz.any():
            return out
        aa, bb = a[nz], b[nz]
        half = 0.5 * mw[nz]
        nq = len(aa)
        uv = self._tree.unique_vals
        lo = np.zeros(nq, dtype=np.int64)
        hi = np.full(nq, len(uv) - 1, dtype=np.int64)
        # Weighted lower median: smallest value whose masked cumulative
        # weight reaches half the interval's masked weight (the dense
        # two-heap tracker's convention).
        while True:
            run = np.flatnonzero(lo < hi)
            if run.size == 0:
                break
            mid = (lo[run] + hi[run]) >> 1
            wle, _ = self._interval_stats(self._tree, aa[run], bb[run], mid + 1)
            reach = wle >= half[run]
            hi[run[reach]] = mid[reach]
            lo[run[~reach]] = mid[~reach] + 1
        c = uv[lo]
        out[nz] = self._below_above(aa, bb, c, lo)
        return out


# ---------------------------------------------------------------------------
# The layered DP
# ---------------------------------------------------------------------------


def matrix_columns(cost: np.ndarray) -> ColumnBlocks:
    """Column blocks of a dense cost matrix (``inf`` below the diagonal,
    ``0`` on it), transposed so each step's argmin runs along a row."""
    return lambda j0, j1: np.ascontiguousarray(cost[:j1, j0:j1].T)


def oracle_columns(cost_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> ColumnBlocks:
    """Column blocks priced by an oracle objective: one evaluation per
    pair ``i < j`` of the block, written into a fresh block."""

    def columns(j0: int, j1: int) -> np.ndarray:
        block = np.full((j1 - j0, j1), np.inf)
        block[np.arange(j1 - j0), np.arange(j0, j1)] = 0.0
        step = max(1, _PAIR_BATCH // j1)
        for g0 in range(j0, j1, step):
            g1 = min(g0 + step, j1)
            rows, i = np.nonzero(np.arange(g1) < np.arange(g0, g1)[:, None])
            block[g0 - j0 + rows, i] = cost_fn(i, g0 + rows)
        return block

    return columns


def _dp_layers(columns: ColumnBlocks, n: int, pieces: int) -> tuple[np.ndarray, np.ndarray]:
    """The interval DP's layers and backtracked path over ``[0, n)``.

    Returns ``f`` (``f[r, j]`` = best cost of ``[0, j)`` in at most ``r``
    pieces, ``r = 0..pieces``) and ``path`` (``path[r]`` = the border the
    optimiser's ``r``-th piece ends on, ``path[0] = 0``, ``path[-1] = n``;
    an "empty" piece repeats its border).  Step ``r`` takes
    ``path[r] = argmin_i f[r, i] + C(i, path[r + 1])``, the first minimum.

    ``columns`` supplies the costs one block of right endpoints at a time
    (see :data:`ColumnBlocks`); each block is requested once and every
    layer is advanced on it before the next.  ``C(0, j)`` is finite and
    ``f[r, 0] = 0``, so a block's ``inf`` entries (``i > j``) are never a
    first minimum and blocking leaves every value and argmin unchanged.
    """
    pieces = min(pieces, n)
    if pieces < 1:
        raise ValueError(f"need at least one piece, got {pieces}")
    f = np.full((pieces + 1, n + 1), np.inf)
    f[0, 0] = 0.0
    parent = np.zeros((pieces, n + 1), dtype=np.int64)
    width = max(1, _DP_BLOCK_CELLS // (n + 1))
    for j0 in range(0, n + 1, width):
        j1 = min(j0 + width, n + 1)
        block = columns(j0, j1)
        stacked = np.empty_like(block)
        rows = np.arange(j1 - j0)
        for r in range(pieces):
            np.add(block, f[r, :j1], out=stacked)
            best = np.argmin(stacked, axis=1)
            parent[r, j0:j1] = best
            f[r + 1, j0:j1] = stacked[rows, best]
    path = np.empty(pieces + 1, dtype=np.int64)
    path[pieces] = n
    for r in range(pieces - 1, -1, -1):
        path[r] = parent[r][path[r + 1]]
    if path[0] != 0:
        raise AssertionError("DP backtrack did not reach the origin")
    return f, path


def project_intervals(
    values,
    weights,
    mask,
    pieces: int,
    *,
    objective: str = "flattening",
    return_profile: bool = False,
    mean_numerator=None,
):
    """Minimise the total interval cost of splitting ``[0, n)`` into at most
    ``pieces`` intervals; the matrix-free equivalent of building a dense
    cost matrix and running ``_interval_dp`` over it.

    Returns ``(total_cost, boundaries)`` — the raw ℓ1 sum (callers halve
    for TV) and the dense-convention boundary array (``np.unique`` of the
    backtracked cut points).  With ``return_profile=True`` a third element
    gives the optimal total after each layer ``r+1 = 1..pieces``.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}, got {objective!r}")
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    oracle = IntervalCostOracle(v, weights, mask, mean_numerator=mean_numerator)
    cost_fn = (
        oracle.flattening_costs if objective == "flattening" else oracle.median_costs
    )
    f, path = _dp_layers(oracle_columns(cost_fn), n, int(pieces))
    total = float(f[-1, -1])
    boundary = np.unique(path)
    if return_profile:
        return total, boundary, f[1:, -1].copy()
    return total, boundary
