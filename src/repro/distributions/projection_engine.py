"""Matrix-free ``H_k`` projection engine: a lazy cost oracle + a
column-blocked layered DP.

The point-granularity oracle DP of :mod:`repro.distributions.projection`:
the median objective at every ``n`` and the flattening above ``n = 512``.
Instead of an ``(n+1)×(n+1)`` interval-cost matrix (Θ(n³) work to fold for
the flattening) it prices intervals on demand:

**Interval cost oracle** (:class:`IntervalCostOracle`).  Costs are over
point values ``v_q`` with a boolean "don't-care" mask — the
point-granularity DPs of :mod:`repro.distributions.projection`
(``v = p``).  The flattening cost of ``[a, b)`` is
``Σ_{q∈[a,b), masked} |v_q − μ|`` with ``μ`` the *full*-interval mean
(mass-1 constraint), and decomposes through prefix sums once the elements
below/above ``μ`` can be aggregated:

    ``below = μ·W_{<μ} − S_{<μ}``,   ``above = (S − S_{≤μ}) − μ·(W − W_{≤μ})``

where ``W_{<c}(a, b)`` / ``S_{<c}(a, b)`` are the masked count / masked
value totals of elements with value below ``c``.  Those are served
by a Fenwick-block rank tree (the ``rank_tree.*`` ops of
:mod:`repro.kernels`): each level stores its aligned blocks sorted by
**integer global value rank** (a float "offset" key would lose low-order
bits and misclassify values within a few ulp of ``μ``) together with
running masked counts and value sums in that order, and ``[a, b)``
decomposes into its canonical segment-tree cover.  The tree is stored as
flat arrays with per-level key offsets so a batched query across *all*
levels of *all* queries is a single ``searchsorted`` — O(log n) per
interval after an O(n log² n) preprocess.  The median (unconstrained ℓ1)
variant binary-searches the lower median (the ``⌈m/2⌉``-th smallest of an
interval's ``m`` masked values) over global value ranks with the same
primitive.

**Column-blocked layered DP** (:func:`_dp_layers`).  The recurrence
``f_r(j) = min_i f_{r−1}(i) + C(i, j)`` runs over blocks of right
endpoints ``J = [j0, j1)``: the block's costs ``C(i, J)`` for every
``i < j1`` are produced once, then every layer ``r = 1..pieces`` is
advanced on ``J`` before the next block (``f_{r−1}`` on ``J`` itself is
final by then, since ``i ≤ j``).  The oracle path
(:func:`project_intervals`) therefore evaluates each interval exactly
once — ``n(n+1)/2`` evaluations for every input, so the worst case is the
typical case — with O(n·k) memory for the layers and parents plus one
block of at most 5/4 of :data:`_DP_BLOCK_CELLS` cells.  A point flattening
reaches it only above ``n = 512``: smaller ones take the certified
rank-prefix split of :mod:`repro.distributions.projection`.  The same
function runs that module's Step-10 DPs: the rank-prefix split in blocks
of 32 built straight from its rank table (no cost matrix), and the fold's
dense matrix, one block below the cell budget (the unblocked DP).
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
#: is at most 5 MB at any ``n`` (the last block may take a short remainder,
#: see :func:`_column_blocks`).
_DP_BLOCK_CELLS = 1 << 18

#: Pairs per oracle call while a block is filled (whole rows, at least
#: one): bounds the per-call transients of the oracle and its rank-tree
#: kernel.  Traced peak of one bench ``project`` op (n = 512, k = 16) on a
#: 2-vCPU container: 7.5 MB at 2¹³, 12.5 MB at 2¹⁴, 20.2 MB at 2¹⁷, with
#: no measurable difference in time.
_PAIR_BATCH = 1 << 13

#: ``columns(j0, j1)`` → the ``(j1 − j0, j1)`` array whose row ``j − j0``
#: holds ``C(i, j)`` for ``i < j1`` (``0`` at ``i = j``, ``inf`` above it;
#: the next call may overwrite it).
ColumnBlocks = Callable[[int, int], np.ndarray]


def _count_cost_evals(objective: str, pairs: int) -> None:
    """Meter oracle cost evaluations (one count per (a, b) pair queried)."""
    get_metrics().counter("projection.oracle_cost_evals", objective=objective).inc(pairs)


class IntervalCostOracle:
    """Batched interval costs over masked point values.

    ``flattening_costs(a, b)`` evaluates the masked ℓ1 error against the
    full-interval mean ``(prefix[b] − prefix[a]) / (b − a)``;
    ``median_costs(a, b)`` the masked ℓ1 optimum over constants (lower
    median).  Each pair's cost depends only on the pair, never on its
    batchmates.
    """

    def __init__(self, values: np.ndarray, mask: np.ndarray):
        v = np.ascontiguousarray(values, dtype=np.float64)
        m = np.ascontiguousarray(mask, dtype=bool)
        n = len(v)
        if m.shape != (n,):
            raise ValueError("values and mask must share one shape")
        self.n = n
        wm = m.astype(np.float64)
        wvm = wm * v
        self._pre = np.concatenate(([0.0], np.cumsum(v)))
        self._mw_pre = np.concatenate(([0.0], np.cumsum(wm)))
        self._mwv_pre = np.concatenate(([0.0], np.cumsum(wvm)))
        self._tree = dispatch("rank_tree.build")(v, wm, wvm)
        self._interval_stats = dispatch("rank_tree.interval_stats")

    def _below_above(self, a, b, c, L_lt, none_above=None):
        """Masked ℓ1 error of ``[a, b)`` against per-interval constant ``c``,
        given the rank cut-off for strict (< c) membership.  Elements equal
        to ``c`` contribute zero either side, so the strict cut suffices.

        The below-part is exactly 0 when nothing lies below ``c``.  The
        above-part is a difference of prefix sums, which leaves a few ulps
        where nothing lies above; ``none_above`` marks the pairs where it
        is exactly 0, so an exact input prices at exactly 0."""
        w_lt, wv_lt = self._interval_stats(self._tree, a, b, L_lt)
        mw = self._mw_pre[b] - self._mw_pre[a]
        mwv = self._mwv_pre[b] - self._mwv_pre[a]
        below = c * w_lt - wv_lt
        above = (mwv - wv_lt) - c * (mw - w_lt)
        if none_above is not None:
            above[none_above] = 0.0
        return np.maximum(below, 0.0) + np.maximum(above, 0.0)

    def flattening_costs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        _count_cost_evals("flattening", len(a))
        out = np.zeros(len(a), dtype=np.float64)
        nz = b > a
        if not nz.any():
            return out
        aa, bb = a[nz], b[nz]
        mu = (self._pre[bb] - self._pre[aa]) / (bb - aa)
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
        # Masked count ≤ uv[hi]: all of it while hi is the largest value.
        count_le_hi = mw[nz]
        # Lower median: smallest value whose masked cumulative count
        # reaches half the interval's masked count.
        while True:
            run = np.flatnonzero(lo < hi)
            if run.size == 0:
                break
            mid = (lo[run] + hi[run]) >> 1
            wle, _ = self._interval_stats(self._tree, aa[run], bb[run], mid + 1)
            reach = wle >= half[run]
            hi[run[reach]] = mid[reach]
            count_le_hi[run[reach]] = wle[reach]
            lo[run[~reach]] = mid[~reach] + 1
        # The 0/1 mask weights make both counts exact.
        out[nz] = self._below_above(aa, bb, uv[lo], lo, count_le_hi == mw[nz])
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


def _column_blocks(n: int, width: int) -> list[tuple[int, int]]:
    """The blocks ``[j0, j1)`` :func:`_dp_layers` takes over the right
    endpoints ``0..n``: ``width`` at a time, with a trailing remainder of at
    most ``width // 4`` joined to the block before it."""
    starts = list(range(0, n + 1, width))
    if len(starts) > 1 and n + 1 - starts[-1] <= width // 4:
        del starts[-1]
    return list(zip(starts, starts[1:] + [n + 1]))


def _dp_layers(
    columns: ColumnBlocks, n: int, pieces: int, width: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The interval DP's layers and backtracked path over ``[0, n)``.

    Returns ``f`` (``f[r, j]`` = best cost of ``[0, j)`` in at most ``r``
    pieces, ``r = 0..pieces``) and ``path`` (``path[r]`` = the border the
    optimiser's ``r``-th piece ends on, ``path[0] = 0``, ``path[-1] = n``;
    an "empty" piece repeats its border).  Step ``r`` takes
    ``path[r] = argmin_i f[r, i] + C(i, path[r + 1])``, the first minimum.

    ``columns`` supplies the costs ``width`` right endpoints at a time
    (default: as many as fit in :data:`_DP_BLOCK_CELLS`; see
    :data:`ColumnBlocks`), except that a short trailing remainder joins the
    block before it rather than cost a call and a pass over every layer of
    its own (:func:`_column_blocks`); each block is requested once and
    every layer is advanced on it before the next.  ``C(0, j)`` is finite and
    ``f[r, 0] = 0``, so a block's ``inf`` entries (``i > j``) are never a
    first minimum, blocking leaves every value and argmin unchanged, and
    layer 1 is ``0 + C(0, j)`` at parent ``0``.
    """
    pieces = min(pieces, n)
    if pieces < 1:
        raise ValueError(f"need at least one piece, got {pieces}")
    f = np.full((pieces + 1, n + 1), np.inf)
    f[0, 0] = 0.0
    parent = np.zeros((pieces, n + 1), dtype=np.int64)
    for j0, j1 in _column_blocks(n, width or max(1, _DP_BLOCK_CELLS // (n + 1))):
        block = columns(j0, j1)
        stacked = np.empty_like(block)
        rows = np.arange(j1 - j0)
        np.add(block[:, 0], 0.0, out=f[1, j0:j1])  # layer 1: parent 0
        for r in range(1, pieces):
            np.add(block, f[r, :j1], out=stacked)
            best = np.argmin(stacked, axis=1, out=parent[r, j0:j1])
            f[r + 1, j0:j1] = stacked[rows, best]
    path = np.empty(pieces + 1, dtype=np.int64)
    path[pieces] = n
    for r in range(pieces - 1, -1, -1):
        path[r] = parent[r][path[r + 1]]
    if path[0] != 0:
        raise AssertionError("DP backtrack did not reach the origin")
    return f, path


def project_intervals(values, mask, pieces: int, *, objective: str = "flattening"):
    """Minimise the total interval cost of splitting ``[0, n)`` into at most
    ``pieces`` intervals; the matrix-free equivalent of building a dense
    cost matrix and running ``_interval_dp`` over it.

    Returns ``(total_cost, boundaries)`` — the raw ℓ1 sum (callers halve
    for TV) and the dense-convention boundary array (``np.unique`` of the
    backtracked cut points).
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}, got {objective!r}")
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    oracle = IntervalCostOracle(v, mask)
    cost_fn = (
        oracle.flattening_costs if objective == "flattening" else oracle.median_costs
    )
    f, path = _dp_layers(oracle_columns(cost_fn), n, int(pieces))
    return float(f[-1, -1]), np.unique(path)
