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

Two interchangeable execution engines back the public API, and both run
the one layered DP (:func:`~repro.distributions.projection_engine._dp_layers`):

* ``engine="dense"`` — the original O(n²)-memory cost-matrix build;
  simple, the golden reference, but cubic-ish time in ``n`` for the
  flattening build.
* ``engine="fast"`` — :mod:`repro.distributions.projection_engine`, a lazy
  interval-cost oracle that prices each interval exactly once, block by
  block of right endpoints; O(n²·log n) time, O(n·k) memory, and
  equivalent to the dense result to ≤ 1e-12 in cost.
* ``engine="auto"`` (default) — dense for small domains where the matrix
  build is instant, fast above :data:`_AUTO_FAST_THRESHOLD`.

Both engines refuse point-granularity domains above :data:`_MAX_DENSE_N`;
larger domains go through :func:`coarse_flattening_projection`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.distances import ArrayLike, _as_array
from repro.distributions.histogram import Histogram
from repro.distributions.projection_engine import (
    _dp_layers,
    matrix_columns,
    project_intervals,
)
from repro.observability.metrics import get_metrics
from repro.util.intervals import Partition

#: Point-granularity DPs on either engine refuse domains above this size
#: rather than hang: the dense build is O(n³) time and O(n²) memory, and
#: the fast engine prices all n(n+1)/2 intervals (E22's noisy staircase at
#: k = 32 on a 2-vCPU container: 1.2–2.1 s at n = 2048, 5–6 s at
#: n = 4096, 22 s at n = 8192).
_MAX_DENSE_N = 8192

#: ``engine="auto"`` uses the dense build below this domain size (matrix
#: build is microseconds there and has no oracle/bookkeeping overhead).
_AUTO_FAST_THRESHOLD = 512

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

_ENGINES = ("auto", "fast", "dense")


def _resolve_engine(engine: str, n: int) -> str:
    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
    if engine == "auto":
        return "dense" if n <= _AUTO_FAST_THRESHOLD else "fast"
    return engine


@dataclass(frozen=True)
class Projection:
    """Result of projecting a pmf onto (a subclass of) ``H_k``."""

    distance: float
    histogram: Histogram
    boundaries: np.ndarray


# ---------------------------------------------------------------------------
# Cost matrices (point granularity)
# ---------------------------------------------------------------------------


def _check_point_inputs(p: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
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
    p: np.ndarray,
    mask_arr: np.ndarray,
    pieces: int,
    objective: str,
    resolved_engine: str,
) -> tuple[float, np.ndarray]:
    """Dispatch one point-granularity interval DP to the chosen engine;
    returns the raw ℓ1 total and the boundary array (dense conventions)."""
    if resolved_engine == "dense":
        if objective == "flattening":
            cost = _flattening_cost_matrix(p, mask_arr)
        else:
            cost = _median_cost_matrix(p, mask_arr)
        return _interval_dp(cost, pieces)
    total, bounds = project_intervals(
        p, np.ones(len(p)), mask_arr, pieces, objective=objective
    )
    return total, bounds


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


def _flattening_cost_matrix(p: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``C[i, j]`` = masked ℓ1 error of flattening ``p`` on ``[i, j)``.

    The flattening constant is the *full* interval mean (masked-out points
    included), so that the assembled piecewise function keeps total mass 1.
    Each point is a unit-length piece weighted by its mask bit.
    """
    n = len(p)
    prefix = np.concatenate(([0.0], np.cumsum(p)))
    return _fold_costs(
        prefix,
        np.arange(n + 1, dtype=np.float64),
        np.flatnonzero(mask),
        _constant_piece_error(p, mask.astype(np.float64)),
    )


#: Block size (elements) for the per-row prefix matrices of
#: :func:`_median_cost_matrix` — bounds the transient footprint to a few
#: hundred MB at the dense cap.
_MEDIAN_BLOCK_ELEMS = 1 << 24


def _prefix_median_costs(mvals: np.ndarray) -> np.ndarray:
    """``out[s-1]`` = ``min_c Σ_{r ≤ s} |mvals_r − c|`` for every prefix.

    Vectorised prefix-median costs: sort once, then for each prefix length
    ``s`` locate the ``⌈s/2⌉``-th smallest (the lower median) by counting
    which sorted elements were inserted by time ``s``.  With ``low_sum``
    the sum of the ``⌈s/2⌉`` smallest, the cost is
    ``total_s − 2·low_sum + med·(2·⌈s/2⌉ − s)`` — the below/above split
    around the median.  O(m²) elementwise work per call, blocked to bound
    memory.
    """
    m = len(mvals)
    total = np.cumsum(mvals)
    order = np.argsort(mvals, kind="stable")
    u = mvals[order]
    t = order + 1  # insertion time (1-based) of each sorted element
    out = np.empty(m, dtype=np.float64)
    block = max(1, _MEDIAN_BLOCK_ELEMS // max(m, 1))
    for start in range(0, m, block):
        s = np.arange(start + 1, min(start + block, m) + 1)
        incl = t[None, :] <= s[:, None]  # (S, m): in prefix s?
        k = (s + 1) // 2  # lower-median rank
        cnt = np.cumsum(incl, axis=1)
        medpos = np.argmax(cnt >= k[:, None], axis=1)
        med = u[medpos]
        low_sum = np.take_along_axis(
            np.cumsum(np.where(incl, u, 0.0), axis=1), medpos[:, None], axis=1
        ).ravel()
        out[start : start + len(s)] = total[s - 1] - 2.0 * low_sum + med * (2 * k - s)
    return out


def _median_cost_matrix(p: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``C[i, j]`` = min over constants ``c`` of masked ``Σ |p_t − c|``.

    The optimum is the median of the masked values; each row's running
    costs come from one vectorised prefix-median pass over the masked tail
    (see :func:`_prefix_median_costs`), then spread to the unmasked
    columns, where the cost stays flat.
    """
    n = len(p)
    cost = np.full((n + 1, n + 1), np.inf)
    np.fill_diagonal(cost, 0.0)
    for i in range(n):
        tmask = mask[i:]
        mvals = p[i:][tmask]
        by_prefix = np.concatenate(([0.0], _prefix_median_costs(mvals)))
        cost[i, i + 1 :] = by_prefix[np.cumsum(tmask)]
    return cost


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


def project_flattening(
    dist: ArrayLike, k: int, mask: np.ndarray | None = None, *, engine: str = "auto"
) -> Projection:
    """Best-flattening projection of a pmf onto ``H_k`` (masked TV error)."""
    p = _as_array(dist)
    eng = _resolve_engine(engine, len(p))
    mask_arr = _check_point_inputs(p, mask)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    l1, bounds = _point_projection(p, mask_arr, k, "flattening", eng)
    partition = Partition(bounds)
    hist = Histogram.from_masses(partition, partition.aggregate(p))
    return Projection(distance=0.5 * l1, histogram=hist, boundaries=bounds)


def flattening_distance(
    dist: ArrayLike, k: int, mask: np.ndarray | None = None, *, engine: str = "auto"
) -> float:
    """``min_Π dTV(p, flatten_Π(p))`` over ≤ k-interval partitions.

    Upper bound on ``dTV(p, H_k)`` and at most twice it.
    """
    return project_flattening(dist, k, mask, engine=engine).distance


def distance_to_histogram(
    dist: ArrayLike, k: int, mask: np.ndarray | None = None, *, engine: str = "auto"
) -> float:
    """Distance from ``dist`` to its best flattening in ``H_k`` — the
    canonical surrogate for ``dTV(p, H_k)`` used throughout the suite.

    This is a genuine distance to a member of ``H_k`` (the flattened
    histogram), hence always an upper bound on ``dTV(p, H_k)``, and at most
    twice it.  Use :func:`histogram_distance_bounds` when a certified lower
    bound is also needed.
    """
    return project_flattening(dist, k, mask, engine=engine).distance


def flattening_profile(
    dist: ArrayLike, k_max: int, mask: np.ndarray | None = None, *, engine: str = "auto"
) -> np.ndarray:
    """``flattening_distance(dist, k)`` for every ``k`` in ``1..k_max`` at the
    cost of a single cost build and one DP pass.

    The DP's ``r``-th iteration is exactly the best-with-≤-r-pieces value,
    so the whole profile falls out of intermediate states.  Use this for
    "minimal sufficient k" searches — calling :func:`flattening_distance`
    per k redoes the cost work every time.
    """
    p = _as_array(dist)
    eng = _resolve_engine(engine, len(p))
    mask_arr = _check_point_inputs(p, mask)
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    n = len(p)
    if eng == "dense":
        cost = _flattening_cost_matrix(p, mask_arr)
        f, _ = _dp_layers(matrix_columns(cost), n, k_max)
        profile = 0.5 * f[1:, n]
    else:
        _, _, raw = project_intervals(
            p, np.ones(n), mask_arr, min(k_max, n), return_profile=True
        )
        profile = 0.5 * raw
    if k_max > n:
        profile = np.concatenate((profile, np.full(k_max - n, profile[-1])))
    return profile


def unconstrained_l1_distance(
    dist: ArrayLike, k: int, mask: np.ndarray | None = None, *, engine: str = "auto"
) -> float:
    """``min_h ½‖p − h‖₁`` over ≤ k-piece functions with no mass constraint.

    A certified **lower bound** on ``dTV(p, H_k)``: every distribution in
    ``H_k`` is in particular a ≤ k-piece non-negative function.
    """
    p = _as_array(dist)
    eng = _resolve_engine(engine, len(p))
    mask_arr = _check_point_inputs(p, mask)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    l1, _ = _point_projection(p, mask_arr, k, "median", eng)
    # The per-interval cost is computed by subtraction and can come out a
    # few ulp below zero on exact histograms; a certified lower bound must
    # never be negative.
    return max(0.0, 0.5 * l1)


def histogram_distance_bounds(
    dist: ArrayLike, k: int, mask: np.ndarray | None = None, *, engine: str = "auto"
) -> tuple[float, float]:
    """``(lower, upper)`` bounds sandwiching ``dTV(p, H_k)``."""
    lower = unconstrained_l1_distance(dist, k, mask, engine=engine)
    upper = flattening_distance(dist, k, mask, engine=engine)
    return lower, upper


# ---------------------------------------------------------------------------
# Coarse (piece-granularity) variant — the Step-10 oracle
# ---------------------------------------------------------------------------


#: Above this many base intervals the projection first coarsens the base
#: (see ``_coarsen_for_projection``).  The certified build is O(K² log K)
#: with a (K+1)² matrix, but its fallback fold is K³/6 terms and the
#: generic sorted-piece fold costs more per term.
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


def _sorted_piece_error(
    p: np.ndarray, base: Partition
) -> Callable[[int, np.ndarray, np.ndarray], None]:
    """Fold term for a piece whose values vary: ``Σ_{t∈q} |p_t − μ|`` for a
    whole block of means at once, via one ``searchsorted`` against the
    piece's sorted values (below-mean and above-mean parts)."""

    def error(q: int, mu: np.ndarray, out: np.ndarray) -> None:
        seg = np.sort(p[base[q].slice()])
        pre = np.concatenate(([0.0], np.cumsum(seg)))
        pos = np.searchsorted(seg, mu)
        below = mu * pos - pre[pos]
        above = (pre[-1] - pre[pos]) - mu * (len(seg) - pos)
        np.add(below, above, out=out)

    return error


def _prefix(x: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(x)))


@dataclass(frozen=True)
class _CoarseInput:
    """A validated (and, above the size cap, coarsened) Step-10 input.

    ``values`` is each piece's first value (its height when ``p`` is
    piecewise constant) and ``weights`` its kept length; ``extra_error`` is
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
    piecewise_constant: bool


def _coarse_input(
    dist: ArrayLike, base: Partition, k: int, kept: np.ndarray | None, max_base: int
) -> _CoarseInput:
    p = _as_array(dist)
    if len(p) != base.n:
        raise ValueError("distribution and base partition cover different domains")
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
        piecewise_constant=bool(np.allclose(base.flatten(p), p, atol=1e-15)),
    )


#: Rows of the rank-prefix cost triangle built per block.  Measured on a
#: 2-vCPU Xeon (numpy 2.4, best of 7) on the ten check inputs of one bench
#: identity round (K = 340–474), build time summed over the ten and peak
#: traced memory at K = 474: 16 rows 137 ms, 5.9 MB; 32 rows 132 ms, 6.3 MB;
#: 64 rows 133 ms, 7.0 MB; 128 rows 138 ms, 8.4 MB; unblocked 231 ms,
#: 16.2 MB.  The fold and DP it replaces peak at 5.6 MB there.
_RANK_BLOCK_ROWS = 32

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


def _rank_costs(inp: _CoarseInput) -> tuple[np.ndarray, float]:
    """The piecewise-constant interval-cost matrix from rank-prefix tables,
    and ``δ``, the most one DP step on it can drift from the same step on
    :func:`_fold_costs`' matrix.

    With the fold's own mean ``μ = μ_ab`` and ``W``, ``S`` the sums of
    ``w_q`` and ``w_q·v_q`` over ``q ∈ [a, b)``, ``W_<`` and ``S_<`` the same
    sums over the pieces with ``v_q < μ``::

        Σ_{q∈[a,b)} w_q·|v_q − μ| = μ·(2W_< − W) + (S − 2S_<).

    Sorting the ``K`` values once, ``v_q < μ`` iff ``rank(q) < t`` with
    ``t = searchsorted(sorted_values, μ)``, and two ``(K+1)²`` tables
    ``P[t, b] = Σ_{q<b, rank(q)<t} x_q`` (``x = w`` and ``x = w·v``) give
    ``W_<``, ``S_<`` as ``P[t, b] − P[t, a]`` (``t = K`` gives ``W``, ``S``).
    That is one ``searchsorted`` per entry, O(K² log K), instead of the
    fold's ``K³/6`` terms; the triangle is built :data:`_RANK_BLOCK_ROWS`
    rows at a time.

    **δ.**  With ``u = 2⁻⁵³``, ``M`` the total mass and ``U = M + Σ_q w_q·v_q``
    (to first order in ``K·u``):

    * the exact cost ``T = Σ w_q·|v_q − μ| ≤ S + μ·W ≤ U``, because ``μ·W``
      is at most the interval's mass;
    * the fold sums at most ``K`` terms left to right, each rounded twice,
      so its entry is within ``(K + 1)·u·U`` of ``T``;
    * the ``w`` table sums integer lengths, so ``W_<`` and ``W`` are exact;
      a ``w·v`` table entry sums at most ``K`` rounded products in order, so
      it is within ``K·u·U`` of exact, and ``S``, ``S_<`` (one more rounding
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
    below = rank[None, :] < np.arange(size)[:, None]  # below[t, q]: rank(q) < t
    tables = []
    for x in (weights, weights * values):
        table = np.zeros((size, size))
        np.multiply(below, x, out=table[:, 1:])
        np.cumsum(table, axis=1, out=table)
        tables.append(table.ravel())
    del below
    w_table, s_table = tables
    w_total, s_total = w_table[-size:], s_table[-size:]  # row t = K

    mass_prefix, len_prefix = inp.mass_prefix, inp.len_prefix
    cost = np.empty((size, size))
    rows = min(_RANK_BLOCK_ROWS, size - 1)
    mu_buf, lo_buf, hi_buf = (np.empty(rows * size) for _ in range(3))
    idx_buf = np.empty(rows * size, dtype=np.intp)
    for a0 in range(0, size - 1, rows):
        a1 = min(a0 + rows, size - 1)
        shape = (a1 - a0, size - a0 - 1)  # rows a ∈ [a0, a1), columns b > a0
        used = shape[0] * shape[1]
        mu, lo, hi = (buf[:used].reshape(shape) for buf in (mu_buf, lo_buf, hi_buf))
        idx = idx_buf[:used].reshape(shape)
        a = np.arange(a0, a1)[:, None]
        b = np.arange(a0 + 1, size)
        # μ_ab exactly as the fold forms it (0/0 and b < a are overwritten).
        np.subtract(mass_prefix[None, a0 + 1 :], mass_prefix[a0:a1, None], out=mu)
        with np.errstate(invalid="ignore"):
            mu /= len_prefix[None, a0 + 1 :] - len_prefix[a0:a1, None]
        start = np.searchsorted(sorted_values, mu)
        start *= size
        # hi = μ·(2W_< − W), in exact integers until the product.
        np.add(start, b, out=idx)
        np.take(w_table, idx, out=hi)
        np.add(start, a, out=idx)
        np.take(w_table, idx, out=lo)
        hi -= lo
        hi *= 2.0
        hi -= w_total[b]
        hi += w_total[a]
        hi *= mu
        # lo = S − 2S_<.
        np.add(start, b, out=idx)
        np.take(s_table, idx, out=lo)
        np.add(start, a, out=idx)
        np.take(s_table, idx, out=mu)
        lo -= mu
        lo *= 2.0
        np.subtract(s_total[None, a0 + 1 :], s_total[a0:a1, None], out=mu)
        np.subtract(mu, lo, out=lo)
        np.add(hi, lo, out=cost[a0:a1, a0 + 1 :])
    cost[np.tri(size, k=-1, dtype=bool)] = np.inf
    np.fill_diagonal(cost, 0.0)
    delta = (8 * (size - 1) + 16) * _UNIT_ROUNDOFF * float(mass_prefix[-1] + s_total[-1])
    return cost, delta


def _certified_split(inp: _CoarseInput, k: int) -> np.ndarray | None:
    """The fold DP's optimal split, found on :func:`_rank_costs`' matrix,
    or ``None`` when the gap certificate cannot prove it is the fold's.

    At step ``r`` the DP takes ``argmin_i f[r, i] + cost[i, j]`` for the
    path's column ``j``; on both matrices those values are within
    ``(r + 1)·δ`` of each other.  If the rank column's runner-up exceeds its
    minimum by more than ``2(r + 2)·δ`` (two drifts, plus ``2δ`` that
    dominates the rounding of the gap itself), the fold column's minimum
    is strict at the same row, so ``np.argmin`` picks it there too.  When
    that holds at every step of the path, the fold's backtrack follows the
    same path, and :func:`_split_l1` prices it with the fold's bits.
    """
    cost, delta = _rank_costs(inp)
    f, path = _dp_layers(matrix_columns(cost), len(inp.values), k)
    columns = f[:-1] + cost[:, path[1:]].T  # step r's column of f[r] + cost
    lowest = np.partition(columns, 1, axis=1)
    gaps = lowest[:, 1] - lowest[:, 0]
    if np.all(gaps > 2.0 * (np.arange(len(gaps)) + 2) * delta):
        return np.unique(path)
    return None


def _coarse_l1(inp: _CoarseInput, k: int, engine: str) -> tuple[float, np.ndarray]:
    """The exact coarse DP: optimal raw ℓ1 total and its base-border
    indices.

    A piecewise-constant input takes the fold's split from
    :func:`_certified_split` when the certificate holds (priced by
    :func:`_split_l1`, so the total is the fold's bit for bit) and runs the
    fold and DP otherwise; outcomes are counted in
    ``projection.split_certified{by=rank|fold}``.
    """
    eng = _resolve_engine(engine, len(inp.base))
    if inp.piecewise_constant and eng == "fast":
        # Fast-engine path: pieces become weighted points (weight = length,
        # value = piece height).  ``mean_numerator`` carries the piece
        # masses so the interval mean is mass/length exactly as in the
        # dense build.
        return project_intervals(
            inp.values, inp.lengths, inp.kept, k, mean_numerator=inp.masses
        )
    if inp.piecewise_constant:
        # The Algorithm 1 case: p = D̂ is constant on each base piece, so
        # cost[a, b] = Σ_{q∈[a,b), kept} len_q·|val_q − μ_ab|.
        split = _certified_split(inp, k)
        by = "fold" if split is None else "rank"
        get_metrics().counter("projection.split_certified", by=by).inc()
        if split is not None:
            return _split_l1(inp, split), split
        piece_error = _constant_piece_error(inp.values, inp.weights)
    else:
        # Generic path: within-piece values vary, so each piece's deviation
        # from a merged mean comes from its sorted values.
        piece_error = _sorted_piece_error(inp.p, inp.base)
    cost = _fold_costs(inp.mass_prefix, inp.len_prefix, np.flatnonzero(inp.kept), piece_error)
    return _interval_dp(cost, k)


def coarse_flattening_projection(
    dist: ArrayLike,
    base: Partition,
    k: int,
    kept: np.ndarray | None = None,
    *,
    max_base: int = _MAX_PROJECTION_BASE,
    engine: str = "auto",
) -> Projection:
    """Best flattening of ``dist`` whose breakpoints lie on borders of
    ``base``, with TV error counted only on the kept intervals.

    ``kept`` is a boolean vector over the ``K`` base intervals (default: all
    kept).  A piecewise-constant ``dist`` (the Step-10 case) runs in
    ``O(K² log K + K² k)`` when the rank-prefix split certifies
    (:func:`_certified_split`), and after the ``K³/6``-term per-piece fold
    (:func:`_fold_costs`) otherwise, with the same answer bit for bit;
    either way the cost is independent of the domain size ``n`` — this is
    the oracle Step 10 of Algorithm 1 calls.  Bases larger than
    ``max_base`` are first coarsened (mask-flip + top-jump + quantile
    borders); the coarsening's own error is *added* to the reported
    distance, so the result remains a valid upper bound (accepting on it is
    always sound).
    """
    inp = _coarse_input(dist, base, k, kept, max_base)
    l1, coarse_bounds = _coarse_l1(inp, k, engine)
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
#: fast engine's ≤ 1e-12 cost agreement with the dense fold (it prices
#: every interval and prunes nothing, so the gap is only its prefix-sum
#: and rank-tree rounding) and the fold's own rounding (≲ k·K·2⁻⁵³ of the
#: unit mass, under 3e-11 at k = K = 512).
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
    *,
    engine: str = "auto",
) -> bool:
    """Step-10 check: is some ``D* ∈ H_k`` within ``tolerance`` of ``dist``
    in TV restricted to the kept subdomain?

    Returns exactly ``coarse_flattening_projection(...).distance <=
    tolerance``; see the module docstring for why the coarse search is
    sound on both sides.  Piecewise-constant inputs on more than
    :data:`_CHECK_BOUNDS_MIN_BASE` pieces are first tried against a
    certified upper bound (accept) and lower bound (reject), each with a
    small margin; only an undecided check pays for the exact split
    (:func:`_coarse_l1`).
    Outcomes are counted in ``projection.check_decided{by=…}``.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    inp = _coarse_input(dist, base, k, kept, _MAX_PROJECTION_BASE)
    _resolve_engine(engine, len(inp.base))  # reject a bad engine even when a bound decides
    if inp.piecewise_constant and len(inp.base) > _CHECK_BOUNDS_MIN_BASE:
        margin = _CHECK_MARGIN_REL * tolerance + _CHECK_MARGIN_ABS
        if _upper_bound(inp, k) <= tolerance - margin:
            _count_check("upper")
            return True
        if _lower_bound(inp, k) > tolerance + margin:
            _count_check("lower")
            return False
    _count_check("exact")
    l1, _ = _coarse_l1(inp, k, engine)
    return 0.5 * l1 + inp.extra_error <= tolerance


def project_pmf(dist: ArrayLike, k: int, *, engine: str = "auto") -> DiscreteDistribution:
    """Convenience: the best-flattening k-histogram of a pmf, as a
    sampleable distribution (used by the learn-then-project baseline)."""
    return project_flattening(dist, k, engine=engine).histogram.to_distribution()
