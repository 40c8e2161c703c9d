"""Distance to the class ``H_k`` by dynamic programming.

Step 10 of Algorithm 1 must decide whether some ``D* ∈ H_k`` is close to the
learned ``D̂`` in TV restricted to the kept subdomain ``G`` — "can be done in
time poly(k, 1/ε) by dynamic programming, as in [CDGR16, Lemma 4.11]".  This
module provides that oracle, plus exact ground-truth distances used across
the experiment suite.

Two DP objectives are implemented, sandwiching the true distance
``dTV(p, H_k)``:

* :func:`flattening_distance` — the minimum over partitions into at most
  ``k`` intervals of ``dTV(p, flatten(p))``.  The flattening is always a
  bona-fide distribution, so this is an **upper bound** on the true
  distance, and classically at most twice it (an interval's mean is a
  2-approximation of its ℓ1-optimal constant).  This is the projection the
  algorithm (and the learn-then-project baseline) actually uses.
* :func:`unconstrained_l1_distance` — the minimum over arbitrary
  non-negative ≤ k-piece functions (mass constraint dropped; per-interval
  optimum is the median), i.e. a **lower bound** on the true distance.
  Soundness experiments use it as a farness certificate:
  ``unconstrained_l1_distance(p, k) ≥ ε`` implies ``dTV(p, H_k) ≥ ε``.

Both support a "don't-care" subdomain mask (error counted only on ``G``) and
a coarse, piece-granularity variant operating on an explicit base partition
— the form Step 10 needs, where breakpoints are restricted to borders of the
``APPROXPART`` intervals (a restriction that is lossless in the completeness
case, where the unknown histogram is constant on every kept interval, and
safe in the soundness case, where searching a subclass can only make the
check stricter).

The point-granularity API has one path per objective and size band:

* a flattening with ``n ≤`` :data:`_MAX_PROJECTION_BASE` is the Step-10
  case on the singleton base, so it runs :func:`_coarse_l1` (the certified
  rank-prefix split, with the exact per-point fold as its fallback);
* a larger flattening, and the median objective at every ``n``, run the
  oracle DP of :mod:`repro.distributions.projection_engine`: a lazy
  interval-cost oracle that prices each interval exactly once, block by
  block of right endpoints, through the layered DP; O(n²·log n) time and
  O(n·k) memory.

Point-granularity domains above :data:`_MAX_DENSE_N` are refused; larger
domains go through :func:`coarse_flattening_projection`, whose one
implementation is :func:`_coarse_l1`.  Every entry point refuses a pmf
with a non-finite or negative value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.distributions.distances import ArrayLike, _as_array
from repro.distributions.histogram import Histogram
from repro.distributions.projection_engine import (
    _dp_layers,
    matrix_columns,
    project_intervals,
)
from repro.observability.metrics import get_metrics
from repro.util.intervals import Partition

#: Point-granularity DPs refuse domains above this size rather than hang:
#: the oracle DP prices all n(n+1)/2 intervals (E22's noisy staircase at
#: k = 32 on a 2-vCPU container: 1.2–2.1 s at n = 2048, 5–6 s at
#: n = 4096, 22 s at n = 8192).
_MAX_DENSE_N = 8192

#: ``exists_close_histogram`` tries certified bounds before the exact fold
#: only above this many (coarse) base pieces.  Measured on a 2-vCPU Xeon
#: (numpy 2.4, best of 7) with bench identity check inputs (n = 100000,
#: k = 8) re-flattened onto K-piece bases: the exact fold and DP take
#: 1.3–2.2 ms at K = 96, 2.1–3.3 ms at K = 128 and 3.3–5.0 ms at K = 160,
#: while the two bounds take 0.7–1.6 ms at every K ≤ 256.  Above 128 a
#: decided check saves at least half the exact cost and an undecided one
#: pays at most about half again.  Re-measured with the certified
#: rank-prefix split as the exact path (same inputs, best of 7): exact
#: 0.9–1.3 ms at K = 96, 1.1–1.5 ms at K = 128, 1.1–2.0 ms at K = 160 and
#: 1.9–3.5 ms at K = 256, bounds 0.7–1.4 ms; the crossover stays near 128.
_CHECK_BOUNDS_MIN_BASE = 128

#: The values :func:`distance_to_histogram` accepts for ``engine=``.
_ENGINES = ("auto", "fast", "dense")


@dataclass(frozen=True)
class Projection:
    """Result of projecting a pmf onto (a subclass of) ``H_k``."""

    distance: float
    histogram: Histogram
    boundaries: np.ndarray


# ---------------------------------------------------------------------------
# Cost matrices (point granularity)
# ---------------------------------------------------------------------------


def _check_values(p: np.ndarray) -> None:
    """Refuse a pmf outside the domain of the DPs: every cost and the
    certificate's ``δ`` assume finite, non-negative values."""
    if not np.isfinite(p).all():
        raise ValueError("distribution has non-finite values (NaN or ±inf)")
    if (p < 0.0).any():
        raise ValueError("distribution has negative values")


def _check_point_inputs(p: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    _check_values(p)
    n = len(p)
    if n > _MAX_DENSE_N:
        raise ValueError(
            f"point-granularity DP limited to n <= {_MAX_DENSE_N} (got {n}); "
            "use coarse_flattening_projection on a base partition instead"
        )
    if mask is None:
        return np.ones(n, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n,):
        raise ValueError("mask shape does not match the domain")
    return mask


def _point_projection(
    p: np.ndarray, mask_arr: np.ndarray, pieces: int, objective: str
) -> tuple[float, np.ndarray]:
    """One point-granularity interval DP; returns the raw ℓ1 total and the
    boundary array.

    A flattening up to :data:`_MAX_PROJECTION_BASE` points is the Step-10
    DP on the singleton base (values ``p``, weights the mask bits) and
    takes :func:`_coarse_l1`; a larger one, and the median objective at
    every size, take the oracle DP (:func:`project_intervals`).
    """
    n = len(p)
    if objective == "median" or n > _MAX_PROJECTION_BASE:
        return project_intervals(p, mask_arr, pieces, objective=objective)
    return _coarse_l1(_coarse_input(p, Partition.singletons(n), pieces, mask_arr, n), pieces)


def _fold_costs(
    mass_prefix: np.ndarray,
    len_prefix: np.ndarray,
    pieces: np.ndarray,
    piece_error: Callable[[int, np.ndarray, np.ndarray], None],
) -> np.ndarray:
    """Interval-cost matrix ``cost[a, b] = Σ_{q∈[a,b)} err_q(μ_ab)``, folded
    one piece at a time.

    ``μ_ab`` is the merged mean ``(mass_prefix[b] − mass_prefix[a]) /
    (len_prefix[b] − len_prefix[a])``, tabulated once.  For each ``q`` in
    ``pieces`` (ascending), ``piece_error(q, mu, out)`` writes piece ``q``'s
    error against every mean of the block ``a ∈ [0, q], b ∈ (q, K]`` into
    ``out`` (a reused scratch buffer), and the block is added into
    ``cost[:q+1, q+1:]``.  That is exactly the ``K³/6`` terms the matrix
    needs, and every entry is the left-to-right sum of its terms in ``q``
    order.  Pieces left out of ``pieces`` must have zero error (e.g. zero
    weight): skipping them only drops ``+0.0`` additions, so the result is
    bit-identical to summing every ``q`` per pair.  ``inf`` below the
    diagonal, ``0`` on it (the layout :func:`_interval_dp` expects).
    """
    size = len(mass_prefix)
    big_k = size - 1
    cost = np.zeros((size, size))
    cost[np.tri(size, k=-1, dtype=bool)] = np.inf
    mu = mass_prefix[None, :] - mass_prefix[:, None]
    with np.errstate(invalid="ignore"):  # 0/0 on the unused diagonal
        mu /= len_prefix[None, :] - len_prefix[:, None]
    scratch = np.empty((size // 2) * ((size + 1) // 2))
    for q in pieces:
        block = scratch[: (q + 1) * (big_k - q)].reshape(q + 1, big_k - q)
        piece_error(q, mu[: q + 1, q + 1 :], block)
        cost[: q + 1, q + 1 :] += block
    return cost


def _constant_piece_error(
    values: np.ndarray, weights: np.ndarray
) -> Callable[[int, np.ndarray, np.ndarray], None]:
    """Fold term for a piece of constant height: ``w_q·|v_q − μ|``."""

    def error(q: int, mu: np.ndarray, out: np.ndarray) -> None:
        np.subtract(values[q], mu, out=out)
        np.abs(out, out=out)
        out *= weights[q]

    return error


# ---------------------------------------------------------------------------
# The interval DP
# ---------------------------------------------------------------------------


def _interval_dp(cost: np.ndarray, pieces: int) -> tuple[float, np.ndarray]:
    """Minimise total cost of splitting ``[0, n)`` into at most ``pieces``
    intervals; returns (optimal cost, boundary array of an optimiser).

    ``cost[i, j]`` must hold the cost of making ``[i, j)`` one piece (``inf``
    below the diagonal, ``0`` on it).  Because the diagonal is zero, "empty"
    pieces are free, so the DP with exactly ``pieces`` splits covers every
    count up to ``pieces``.
    """
    f, path = _dp_layers(matrix_columns(cost), cost.shape[0] - 1, pieces)
    return float(f[-1, -1]), np.unique(path)


# ---------------------------------------------------------------------------
# Point-granularity public API
# ---------------------------------------------------------------------------


def project_flattening(dist: ArrayLike, k: int, mask: np.ndarray | None = None) -> Projection:
    """Best-flattening projection of a pmf onto ``H_k`` (masked TV error)."""
    p = _as_array(dist)
    mask_arr = _check_point_inputs(p, mask)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    l1, bounds = _point_projection(p, mask_arr, k, "flattening")
    partition = Partition(bounds)
    hist = Histogram.from_masses(partition, partition.aggregate(p))
    return Projection(distance=0.5 * l1, histogram=hist, boundaries=bounds)


def flattening_distance(dist: ArrayLike, k: int, mask: np.ndarray | None = None) -> float:
    """``min_Π dTV(p, flatten_Π(p))`` over ≤ k-interval partitions.

    Upper bound on ``dTV(p, H_k)`` and at most twice it.
    """
    return project_flattening(dist, k, mask).distance


def distance_to_histogram(
    dist: ArrayLike, k: int, mask: np.ndarray | None = None, *, engine: str = "auto"
) -> float:
    """Distance from ``dist`` to its best flattening in ``H_k`` — the
    canonical surrogate for ``dTV(p, H_k)`` used throughout the suite.

    This is a genuine distance to a member of ``H_k`` (the flattened
    histogram), hence always an upper bound on ``dTV(p, H_k)``, and at most
    twice it.  Use :func:`histogram_distance_bounds` when a certified lower
    bound is also needed.

    ``engine`` must be one of ``"auto"``, ``"fast"`` and ``"dense"``, but it
    does not route: every value runs the one point flattening of
    :func:`project_flattening` and returns the same bits.
    """
    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
    return project_flattening(dist, k, mask).distance


def unconstrained_l1_distance(dist: ArrayLike, k: int, mask: np.ndarray | None = None) -> float:
    """``min_h ½‖p − h‖₁`` over ≤ k-piece functions with no mass constraint.

    A certified **lower bound** on ``dTV(p, H_k)``: every distribution in
    ``H_k`` is in particular a ≤ k-piece non-negative function.
    """
    p = _as_array(dist)
    mask_arr = _check_point_inputs(p, mask)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    l1, _ = _point_projection(p, mask_arr, k, "median")
    # The per-interval cost is computed by subtraction and can come out a
    # few ulp below zero on exact histograms; a certified lower bound must
    # never be negative.
    return max(0.0, 0.5 * l1)


def histogram_distance_bounds(
    dist: ArrayLike, k: int, mask: np.ndarray | None = None
) -> tuple[float, float]:
    """``(lower, upper)`` bounds sandwiching ``dTV(p, H_k)``."""
    lower = unconstrained_l1_distance(dist, k, mask)
    upper = flattening_distance(dist, k, mask)
    return lower, upper


# ---------------------------------------------------------------------------
# Coarse (piece-granularity) variant — the Step-10 oracle
# ---------------------------------------------------------------------------


#: Above this many base intervals the projection first coarsens the base
#: (see ``_coarsen_for_projection``).  The certified split is O(K² log K)
#: with one complex (K+1)² rank table plus O(max(32, k)·K) block buffers,
#: and its fallback fold is K³/6 terms.  The same cap is where a point
#: flattening stops taking the certified split (:func:`_point_projection`):
#: at n = 8192 its table would take about 1.1 GB.
_MAX_PROJECTION_BASE = 512


def _coarse_borders(
    masses: np.ndarray, values: np.ndarray, kept: np.ndarray, limit: int
) -> np.ndarray:
    """Borders (a boolean mask over the ``K + 1`` base borders) of a
    coarsening to about ``limit`` cells.

    Keeps every border where the kept-mask flips (masked and unmasked
    pieces must never merge), the largest value-jump borders (scored by
    ``|Δv|·min(weight)`` — the borders an optimal k-grouping actually
    needs), and an equal-mass quantile skeleton.  Mask flips are never
    dropped, so more than ``limit`` cells come back when the mask flips
    more often than that.
    """
    big_k = len(masses)
    keep_border = np.zeros(big_k + 1, dtype=bool)
    keep_border[0] = keep_border[big_k] = True
    # (a) mask flips.
    keep_border[1:big_k] |= kept[:-1] != kept[1:]
    # (b) top value jumps, scored by the flattening cost a missing border
    # would incur.
    scores = np.abs(np.diff(values)) * np.minimum(masses[:-1], masses[1:])
    jump_budget = max(0, limit - int(keep_border.sum()) - limit // 2)
    if jump_budget > 0:
        top = np.argsort(scores)[::-1][:jump_budget]
        keep_border[top + 1] = True
    # (c) equal-mass quantile skeleton with whatever budget remains.
    remaining = limit - int(keep_border.sum())
    if remaining > 0:
        cum = np.cumsum(masses)
        targets = (np.arange(1, remaining + 1) / (remaining + 1)) * cum[-1]
        idx = np.searchsorted(cum, targets) + 1
        keep_border[np.clip(idx, 1, big_k - 1)] = True
    return keep_border


def _coarsen_for_projection(
    p: np.ndarray, base: Partition, k: int, kept: np.ndarray, limit: int
) -> tuple[np.ndarray, Partition, np.ndarray, float]:
    """Shrink a large base partition to ≤ ``limit`` intervals.

    Merges base pieces between the borders :func:`_coarse_borders` keeps,
    then flattens ``p`` inside the merged cells.  Returns the flattened
    pmf, the coarse partition, its kept mask, and the flattening's own TV
    error on the kept domain (which callers must add to any distance they
    report, keeping the result an upper bound).
    """
    masses = base.aggregate(p)
    values = masses / base.lengths().astype(np.float64)
    bounds = base.boundaries
    coarse = Partition(bounds[_coarse_borders(masses, values, kept, limit)])
    labels = np.searchsorted(coarse.boundaries[1:-1], bounds[:-1], side="right")
    coarse_kept = np.zeros(len(coarse), dtype=bool)
    coarse_kept[labels[kept]] = True
    flattened = coarse.flatten(p)
    kept_points = np.repeat(kept, base.lengths())
    coarsen_err = 0.5 * float(np.abs((p - flattened))[kept_points].sum())
    return flattened, coarse, coarse_kept, coarsen_err


def _prefix(x: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(x)))


@dataclass(frozen=True)
class _CoarseInput:
    """A validated (and, above the size cap, coarsened) Step-10 input.

    ``p`` is exactly constant on every piece of ``base``; ``values`` holds
    each piece's height and ``weights`` its kept length; ``extra_error`` is
    the coarsening's own TV error, added to every distance reported.
    """

    p: np.ndarray
    base: Partition
    kept: np.ndarray
    extra_error: float
    masses: np.ndarray
    lengths: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    mass_prefix: np.ndarray
    len_prefix: np.ndarray


def _coarse_input(
    dist: ArrayLike, base: Partition, k: int, kept: np.ndarray | None, max_base: int
) -> _CoarseInput:
    p = _as_array(dist)
    if len(p) != base.n:
        raise ValueError("distribution and base partition cover different domains")
    _check_values(p)
    starts = base.boundaries[:-1]
    if not np.array_equal(np.maximum.reduceat(p, starts), np.minimum.reduceat(p, starts)):
        raise ValueError(
            "distribution is not constant on every base interval; "
            "pass base.flatten(p) to project its flattening"
        )
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if kept is None:
        kept = np.ones(len(base), dtype=bool)
    kept = np.asarray(kept, dtype=bool)
    if kept.shape != (len(base),):
        raise ValueError("kept mask must have one entry per base interval")

    extra_error = 0.0
    if len(base) > max_base:
        p, base, kept, extra_error = _coarsen_for_projection(p, base, k, kept, max_base)

    masses = base.aggregate(p)
    lengths = base.lengths().astype(np.float64)
    return _CoarseInput(
        p=p,
        base=base,
        kept=kept,
        extra_error=extra_error,
        masses=masses,
        lengths=lengths,
        values=p[base.boundaries[:-1]],
        weights=np.where(kept, lengths, 0.0),
        mass_prefix=_prefix(masses),
        len_prefix=_prefix(lengths),
    )


#: Right endpoints per column block of the rank-prefix split.  Per-split
#: time against 32 columns (2-vCPU Xeon, numpy 2.4, best of 5 over captured
#: bench inputs; serve K = 39–114, k = 4 / project K = 512, k = 16): 16
#: columns 1.20× / 1.10×, 64 columns 1.00× / 0.98×, one square block (what
#: a cell budget gives) 1.41× / 2.84×.
_RANK_BLOCK_COLUMNS = 32

_UNIT_ROUNDOFF = 2.0**-53


def _split_l1(inp: _CoarseInput, split: np.ndarray) -> float:
    """Raw ℓ1 flattening error of one split (base-border indices) in O(K).

    Every term and every sum is formed exactly as :func:`_fold_costs` and
    :func:`_interval_dp` form them (same mean, same left-to-right order;
    zero-weight terms add ``+0.0``), so the result is the fold's price of
    this split bit for bit; float addition is monotone, so it is never
    below the dense DP's optimum.
    """
    total = 0.0
    for a, b in zip(split[:-1].tolist(), split[1:].tolist()):
        mu = inp.mass_prefix[b] - inp.mass_prefix[a]
        mu /= inp.len_prefix[b] - inp.len_prefix[a]
        terms = np.subtract(inp.values[a:b], mu)
        np.abs(terms, out=terms)
        terms *= inp.weights[a:b]
        total += float(np.cumsum(terms)[-1])
    return total


def _rank_costs(inp: _CoarseInput, rows: int) -> tuple[Callable, float]:
    """``costs(b)``, the piecewise-constant interval costs from a rank-prefix
    table, and ``δ``, the most one DP step on them can drift from the same
    step on :func:`_fold_costs`' matrix.  For ``≤ rows`` non-decreasing right
    endpoints ``b``, ``costs(b)`` is the block (in reused buffers) whose row
    ``r`` holds ``C(a, b[r])`` for ``a ≤ b[-1]``, as in :data:`ColumnBlocks`.

    With the fold's own mean ``μ = μ_ab`` and ``W``, ``S`` the sums of
    ``w_q`` and ``w_q·v_q`` over ``q ∈ [a, b)``, ``W_<`` and ``S_<`` the same
    sums over the pieces with ``v_q < μ``::

        Σ_{q∈[a,b)} w_q·|v_q − μ| = μ·(2W_< − W) + (S − 2S_<).

    Sorting the ``K`` values once, ``v_q < μ`` iff ``rank(q) < t`` with
    ``t = searchsorted(sorted_values, μ)``, and one complex ``(K+1)²`` table
    ``P[t, b] = Σ_{q<b, rank(q)<t} (w_q + i·w_q·v_q)`` gives ``W_<``, ``S_<``
    as the parts of ``P[t, b] − P[t, a]`` (``t = K`` gives ``W``, ``S``), one
    gather per endpoint.  That is one ``searchsorted`` per entry,
    O(K² log K), instead of the fold's ``K³/6`` terms.  The ``W`` parts are
    exact integers, so ``(S − 2S_<) − (W − 2W_<)·μ`` rounds exactly as the
    right side above, formed left to right, does.

    **δ.**  With ``u = 2⁻⁵³``, ``M`` the total mass and ``U = M + Σ_q w_q·v_q``
    (to first order in ``K·u``; every ``v_q ≥ 0``, which :func:`_coarse_input`
    checks on entry):

    * the exact cost ``T = Σ w_q·|v_q − μ| ≤ S + μ·W ≤ U``, because ``μ·W``
      is at most the interval's mass;
    * the fold sums at most ``K`` terms left to right, each rounded twice,
      so its entry is within ``(K + 1)·u·U`` of ``T``;
    * the ``w`` parts sum integer lengths, so ``W_<`` and ``W`` are exact;
      a ``w·v`` part sums at most ``K`` rounded products in order, so it is
      within ``K·u·U`` of exact, and ``S``, ``S_<`` (one more rounding
      each) within ``(2K + 1)·u·U``; ``S − 2S_<`` is then within
      ``(6K + 4)·u·U``, the product ``μ·(2W_< − W)`` (at most ``M``) adds
      ``u·U`` and the final sum ``u·U``: within ``(6K + 6)·u·U`` of ``T``;
    * entrywise, then, ``|rank − fold| ≤ (7K + 7)·u·U``, and one DP step
      adds one rounding on each side, each at most ``u·U`` (a DP value is at
      most the one-piece cost of ``[0, i)`` plus that of ``[i, j)``).

    ``δ = (8K + 16)·u·U`` covers the ``(7K + 9)·u·U`` of a step with room
    for the second-order terms.  A step takes the minimum of the previous
    layer (which moves by at most the previous drift) plus one entry, so
    after ``r + 1`` steps every DP value of the two matrices differs by at
    most ``(r + 1)·δ``.
    """
    values, weights = inp.values, inp.weights
    size = len(values) + 1
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    rank = np.empty(size - 1, dtype=np.intp)
    rank[order] = np.arange(size - 1)
    below = rank[:, None] < np.arange(size)  # below[q, t]: rank(q) < t
    table = np.zeros((size, size), dtype=np.complex128)  # table[b, t] = P[t, b]
    np.multiply(below, weights[:, None], out=table.real[1:])
    np.multiply(below, (weights * values)[:, None], out=table.imag[1:])
    del below
    np.cumsum(table, axis=0, out=table)
    total = table[:, -1]  # t = K: W and S
    table = table.ravel()

    mass_prefix, len_prefix = inp.mass_prefix, inp.len_prefix
    ends = np.arange(size)
    rows_at = ends * size  # table offset of each endpoint's row
    bufs = [np.empty(rows * size, dtype) for dtype in (float, float, np.intp, complex, complex)]

    def costs(b: np.ndarray) -> np.ndarray:
        shape = (len(b), int(b[-1]) + 1)  # rows b, columns a ≤ b[-1]
        mu, cost, idx, twice, spread = (x[: shape[0] * shape[1]].reshape(shape) for x in bufs)
        a, col = ends[: shape[1]], b[:, None]
        # μ_ab exactly as the fold forms it (0/0 and a > b are overwritten).
        np.subtract(mass_prefix[col], mass_prefix[a], out=mu)
        np.subtract(len_prefix[col], len_prefix[a], out=cost)
        with np.errstate(invalid="ignore"):
            mu /= cost
        start = np.searchsorted(sorted_values, mu)
        # twice = 2·(W_< + i·S_<).
        np.add(start, rows_at[col], out=idx)
        np.take(table, idx, out=twice)
        np.add(start, rows_at[a], out=idx)
        np.take(table, idx, out=spread)
        twice -= spread
        twice += twice
        # spread = (W − 2W_<) + i·(S − 2S_<); cost = (S − 2S_<) − (W − 2W_<)·μ.
        np.subtract(total[col], total[a], out=spread)
        spread -= twice
        np.multiply(spread.real, mu, out=mu)
        np.subtract(spread.imag, mu, out=cost)
        cost[:, b[0] :][a[b[0] :] > col] = np.inf
        cost[np.arange(len(b)), b] = 0.0
        return cost

    delta = (8 * (size - 1) + 16) * _UNIT_ROUNDOFF * float(mass_prefix[-1] + total[-1].imag)
    return costs, delta


def _certified_split(inp: _CoarseInput, k: int) -> np.ndarray | None:
    """The fold DP's optimal split, found on :func:`_rank_costs`' blocks,
    or ``None`` when the gap certificate cannot prove it is the fold's.

    The DP takes the costs :data:`_RANK_BLOCK_COLUMNS` right endpoints at a
    time, and the path's ``≤ k`` columns come back in one more call.  At
    step ``r`` it takes ``argmin_i f[r, i] + cost[i, j]`` for the path's
    column ``j``; on both matrices those values are within
    ``(r + 1)·δ`` of each other.  If the rank column's runner-up exceeds its
    minimum by more than ``2(r + 2)·δ`` (two drifts, plus ``2δ`` that
    dominates the rounding of the gap itself), the fold column's minimum
    is strict at the same row, so ``np.argmin`` picks it there too.  When
    that holds at every step of the path, the fold's backtrack follows the
    same path, and :func:`_split_l1` prices it with the fold's bits.
    """
    costs, delta = _rank_costs(inp, max(_RANK_BLOCK_COLUMNS, k))
    ends = np.arange(len(inp.values) + 1)
    f, path = _dp_layers(lambda j0, j1: costs(ends[j0:j1]), len(ends) - 1, k, _RANK_BLOCK_COLUMNS)
    columns = f[:-1] + costs(path[1:])  # step r's column of f[r] + cost
    lowest = np.partition(columns, 1, axis=1)
    gaps = lowest[:, 1] - lowest[:, 0]
    if np.all(gaps > 2.0 * (np.arange(len(gaps)) + 2) * delta):
        return np.unique(path)
    return None


def _fold_l1(inp: _CoarseInput, k: int) -> tuple[float, np.ndarray]:
    """The exact coarse DP by the per-piece fold (:func:`_fold_costs`):
    optimal raw ℓ1 total and its base-border indices."""
    cost = _fold_costs(
        inp.mass_prefix,
        inp.len_prefix,
        np.flatnonzero(inp.kept),
        _constant_piece_error(inp.values, inp.weights),
    )
    return _interval_dp(cost, k)


def _coarse_l1(inp: _CoarseInput, k: int) -> tuple[float, np.ndarray]:
    """The exact coarse DP: optimal raw ℓ1 total and its base-border
    indices, with ``cost[a, b] = Σ_{q∈[a,b), kept} len_q·|val_q − μ_ab|``.

    Takes the fold's split from :func:`_certified_split` when the
    certificate holds (priced by :func:`_split_l1`, so the total is the
    fold's bit for bit) and runs :func:`_fold_l1` otherwise; outcomes are
    counted in ``projection.split_certified{by=rank|fold}``.
    """
    split = _certified_split(inp, k)
    by = "fold" if split is None else "rank"
    get_metrics().counter("projection.split_certified", by=by).inc()
    if split is not None:
        return _split_l1(inp, split), split
    return _fold_l1(inp, k)


def coarse_flattening_projection(
    dist: ArrayLike, base: Partition, k: int, kept: np.ndarray | None = None
) -> Projection:
    """Best flattening of ``dist`` whose breakpoints lie on borders of
    ``base``, with TV error counted only on the kept intervals.

    ``dist`` must be finite, non-negative and exactly constant on every
    base interval (a histogram on ``base``, or ``base.flatten(p)``);
    anything else raises ``ValueError``.  ``kept`` is a boolean vector over
    the ``K`` base intervals (default: all kept).  The projection runs in
    ``O(K² log K + K² k)`` time and ``O(K²)`` memory (one complex rank
    table, with the costs built 32 right endpoints at a time and never
    stored as a matrix) when the rank-prefix split certifies
    (:func:`_certified_split`), and after the ``K³/6``-term per-piece fold
    (:func:`_fold_costs`) otherwise, with the same answer bit for bit;
    either way the cost is independent of the domain size ``n`` — this is
    the oracle Step 10 of Algorithm 1 calls.  Bases larger than
    :data:`_MAX_PROJECTION_BASE` are first coarsened (mask-flip + top-jump + quantile
    borders); the coarsening's own error is *added* to the reported
    distance, so the result remains a valid upper bound (accepting on it is
    always sound).
    """
    inp = _coarse_input(dist, base, k, kept, _MAX_PROJECTION_BASE)
    l1, coarse_bounds = _coarse_l1(inp, k)
    domain_bounds = inp.base.boundaries[coarse_bounds]
    partition = Partition(domain_bounds)
    hist = Histogram.from_masses(partition, partition.aggregate(inp.p))
    return Projection(
        distance=0.5 * l1 + inp.extra_error, histogram=hist, boundaries=domain_bounds
    )


# ---------------------------------------------------------------------------
# Step-10 decision from certified bounds
# ---------------------------------------------------------------------------


#: Piece budget of the coarsening :func:`_upper_bound` picks its split on.
_UPPER_SPLIT_BASE = 64

#: Slack between a bound and the tolerance before the bound decides:
#: relative to the tolerance, plus an absolute floor.  The floor covers the
#: rounding between a bound and the exact path, whose distance carries the
#: fold's bits (the certified rank split reproduces them): the fold's own
#: rounding is ≲ k·K·2⁻⁵³ of the unit mass, under 3e-11 at k = K = 512.
_CHECK_MARGIN_REL = 1e-9
_CHECK_MARGIN_ABS = 1e-10


def _upper_bound(inp: _CoarseInput, k: int) -> float:
    """A certified upper bound on the coarse projection distance: the
    exact error of the split the dense DP picks on a ≤ 64-cell coarsening
    of the base (any ≤ k-piece split of the base is feasible)."""
    cells = np.flatnonzero(
        _coarse_borders(inp.masses, inp.values, inp.kept, _UPPER_SPLIT_BASE)
    )
    starts = cells[:-1]
    masses = np.add.reduceat(inp.masses, starts)
    lengths = np.add.reduceat(inp.lengths, starts)
    kept = inp.kept[starts]  # cells never straddle a mask flip
    cost = _fold_costs(
        _prefix(masses),
        _prefix(lengths),
        np.flatnonzero(kept),
        _constant_piece_error(masses / lengths, np.where(kept, lengths, 0.0)),
    )
    _, cell_split = _interval_dp(cost, k)
    return 0.5 * _split_l1(inp, cells[cell_split]) + inp.extra_error


def _window_l1(values: np.ndarray, weights: np.ndarray, k: int, m: int) -> float:
    """Lower bound on the raw ℓ1 error of every ≤ k-piece flattening, from
    ``m`` equal-count windows of base pieces.

    At most ``k − 1`` breakpoints can split a window, so at least
    ``m − k + 1`` windows each lie inside one piece, where they pay at
    least their weighted-median error (the best constant's).  Weights are
    integer lengths, so the running weights that locate each median are
    exact.
    """
    big_k = len(values)
    edges = (np.arange(m + 1) * big_k) // m
    window = np.repeat(np.arange(m), np.diff(edges))
    order = np.lexsort((values, window))
    v, w = values[order], weights[order]
    cum = np.cumsum(w)
    before = np.concatenate(([0.0], cum[edges[1:-1] - 1]))
    half = before + 0.5 * (cum[edges[1:] - 1] - before)
    median = v[np.clip(np.searchsorted(cum, half), edges[:-1], edges[1:] - 1)]
    errors = np.bincount(window, weights=w * np.abs(v - median[window]), minlength=m)
    return float(np.sort(errors)[: m - k + 1].sum())


def _lower_bound(inp: _CoarseInput, k: int) -> float:
    """A certified lower bound on the coarse projection distance: the best
    of the :func:`_window_l1` bounds over ``2k`` and ``3k`` windows."""
    big_k = len(inp.base)
    l1 = max(
        (_window_l1(inp.values, inp.weights, k, m) for m in (2 * k, 3 * k) if m <= big_k),
        default=0.0,
    )
    return 0.5 * l1 + inp.extra_error


def _count_check(by: str) -> None:
    get_metrics().counter("projection.check_decided", by=by).inc()


def exists_close_histogram(
    dist: ArrayLike,
    base: Partition,
    k: int,
    kept: np.ndarray,
    tolerance: float,
) -> bool:
    """Step-10 check: is some ``D* ∈ H_k`` within ``tolerance`` of ``dist``
    in TV restricted to the kept subdomain?

    Returns exactly ``coarse_flattening_projection(...).distance <=
    tolerance``; see the module docstring for why the coarse search is
    sound on both sides, and that function for the input's preconditions.
    Inputs on more than :data:`_CHECK_BOUNDS_MIN_BASE` pieces are first
    tried against a certified upper bound (accept) and lower bound
    (reject), each with a small margin; only an undecided check pays for
    the exact split (:func:`_coarse_l1`).  Outcomes are counted in
    ``projection.check_decided{by=…}``.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    inp = _coarse_input(dist, base, k, kept, _MAX_PROJECTION_BASE)
    if len(inp.base) > _CHECK_BOUNDS_MIN_BASE:
        margin = _CHECK_MARGIN_REL * tolerance + _CHECK_MARGIN_ABS
        if _upper_bound(inp, k) <= tolerance - margin:
            _count_check("upper")
            return True
        if _lower_bound(inp, k) > tolerance + margin:
            _count_check("lower")
            return False
    _count_check("exact")
    l1, _ = _coarse_l1(inp, k)
    return 0.5 * l1 + inp.extra_error <= tolerance

