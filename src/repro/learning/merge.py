"""Agnostic k-histogram learning ([ADLS15]-style substrate).

The paper's motivating pipeline (Section 1.1) is *test-then-learn*: once the
tester certifies ``D`` is (close to) a k-histogram, an agnostic learner with
``O(k/ε²)`` samples produces the succinct representation.  [CDGR16]'s
testing-by-learning baseline also needs such a learner.  The original
[ADLS15] algorithm is closed-source; this module implements the same
guarantee class:

* draw ``m = O(k/ε²)`` samples;
* form the empirical distribution;
* return the best ≤ k-piece *flattening* of the empirical distribution,
  found by dynamic programming over a quantile-based base partition.

By the VC inequality for the class of unions of ``O(k)`` intervals, the
empirical masses of every candidate piece are simultaneously accurate to
``O(ε/k)·…`` at this sample size, which yields the standard constant-factor
agnostic guarantee ``dTV(output, D) ≤ C·opt_k + ε``.

The base partition is a quantile grid: restricting DP breakpoints to
empirical quantile boundaries loses at most one grid cell of mass per
breakpoint (``O(ε)`` total for a grid of ``O(k/ε)`` cells), keeping the DP
polynomial in ``k/ε`` instead of ``n``.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.histogram import Histogram
from repro.distributions.projection import coarse_flattening_projection
from repro.distributions.sampling import SampleSource, as_source
from repro.util.intervals import Partition
from repro.util.rng import RandomState


def merge_learner_samples(k: int, eps: float, factor: float = 4.0) -> int:
    """The learner's sample budget, ``O(k/ε²)``."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    return max(1, int(np.ceil(factor * k / eps**2)))


def quantile_partition(counts: np.ndarray, cells: int) -> Partition:
    """Partition the domain so each interval holds ≈ ``1/cells`` of the
    empirical mass, with empirically-heavy points isolated as singletons.

    Isolation matters for sparse distributions: a point carrying a cell's
    worth of mass needs borders on *both* sides, or its cell smears the
    mass over trailing zero-count points and every flattening-based
    distance computed on the grid is wildly inflated.
    """
    counts = np.asarray(counts, dtype=np.float64)
    n = len(counts)
    total = counts.sum()
    if total <= 0:
        return Partition.equal_width(n, min(cells, n))
    if cells < 1:
        raise ValueError(f"cells must be positive, got {cells}")
    cum = np.cumsum(counts) / total
    targets = np.arange(1, cells) / cells
    cuts = np.searchsorted(cum, targets, side="left") + 1
    heavy = np.flatnonzero(counts >= total / cells)
    bounds = np.unique(np.concatenate(([0], cuts, heavy, heavy + 1, [n])))
    return Partition(bounds)


def learn_histogram_agnostic(
    dist: DiscreteDistribution | SampleSource,
    k: int,
    eps: float,
    *,
    rng: RandomState = None,
    num_samples: int | None = None,
    grid_cells: int | None = None,
) -> Histogram:
    """Agnostically learn the best k-histogram approximation of ``D``.

    Returns a ``Histogram`` with at most ``k`` pieces such that, with high
    probability, ``dTV(output, D) ≤ C·dTV(D, H_k) + ε`` for an absolute
    constant ``C``.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    source = as_source(dist, rng)
    m = num_samples if num_samples is not None else merge_learner_samples(k, eps)
    counts = source.draw_counts(m)
    return histogram_from_counts(counts, k, eps, grid_cells=grid_cells)


def histogram_from_counts(
    counts: np.ndarray,
    k: int,
    eps: float,
    *,
    grid_cells: int | None = None,
) -> Histogram:
    """The DP fit itself, from an explicit count vector (resampling-free)."""
    counts = np.asarray(counts, dtype=np.float64)
    n = len(counts)
    if counts.sum() <= 0:
        return Histogram.from_masses(Partition.trivial(n), np.ones(1))
    cells = grid_cells if grid_cells is not None else max(4 * k, int(np.ceil(k / eps)))
    cells = min(cells, n)
    base = quantile_partition(counts, cells)
    empirical = counts / counts.sum()
    # Fit to the cell-flattened empirical distribution: the VC argument only
    # controls interval masses anyway, and a base-aligned input lets the
    # projection DP take its vectorised piecewise-constant path.
    flattened = base.flatten(empirical)
    projection = coarse_flattening_projection(flattened, base, k)
    return projection.histogram
