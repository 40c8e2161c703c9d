"""Piecewise-constant ("histogram") distributions and the class ``H_k``.

A distribution ``D`` over ``{0, …, n-1}`` is a *k-histogram* when its pmf is
constant on each interval of some partition of the domain into at most ``k``
contiguous intervals (Section 2 of the paper).  :class:`Histogram` is the
succinct representation — the partition plus one value per piece — which is
what the learning stage of Algorithm 1 outputs and what a downstream user
would store in place of the full pmf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.util.intervals import Partition

#: Two adjacent pmf values are considered equal (no breakpoint) when they
#: differ by less than this relative-ish tolerance.  Exact synthetic
#: histograms have exactly equal values; the tolerance only matters for
#: pmfs that went through floating-point arithmetic.
_BREAKPOINT_ATOL = 1e-12


@dataclass(frozen=True)
class Histogram:
    """A piecewise-constant pmf: a partition and one value per piece.

    ``values[j]`` is the per-*point* probability on interval ``j`` (so the
    piece's total mass is ``values[j] * len(interval_j)``).
    """

    partition: Partition
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (len(self.partition),):
            raise ValueError(
                f"need one value per piece: {vals.shape} vs {len(self.partition)} pieces"
            )
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ValueError("piece values must be finite and non-negative")
        total = float(vals @ self.partition.lengths())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"histogram mass is {total}, expected 1")
        object.__setattr__(self, "values", vals)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_masses(cls, partition: Partition, masses: np.ndarray) -> "Histogram":
        """Build from per-piece total masses (divided evenly inside pieces)."""
        masses = np.asarray(masses, dtype=np.float64)
        if masses.shape != (len(partition),):
            raise ValueError("need one mass per piece")
        return cls(partition, masses / partition.lengths())

    @classmethod
    def flattening(cls, dist: DiscreteDistribution, partition: Partition) -> "Histogram":
        """The flattening of ``dist`` on ``partition``.

        Each piece receives the same total mass as under ``dist``, spread
        uniformly — the map the paper writes ``D̃`` (and uses both in the
        learner's target and in the known-partition baseline).
        """
        if dist.n != partition.n:
            raise ValueError("distribution and partition cover different domains")
        return cls.from_masses(partition, partition.aggregate(dist.pmf))

    @classmethod
    def from_pmf(cls, pmf: np.ndarray) -> "Histogram":
        """Minimal histogram representation of an explicit pmf."""
        pmf = np.asarray(pmf, dtype=np.float64)
        bounds = _breakpoint_boundaries(pmf)
        partition = Partition(bounds)
        values = pmf[partition.boundaries[:-1]]
        return cls(partition, values)

    # -- accessors -----------------------------------------------------------

    @property
    def n(self) -> int:
        """Domain size."""
        return self.partition.n

    @property
    def num_pieces(self) -> int:
        """Number of pieces in *this* representation (maybe non-minimal)."""
        return len(self.partition)

    def piece_masses(self) -> np.ndarray:
        """Total probability mass of each piece."""
        return self.values * self.partition.lengths()

    def to_pmf(self) -> np.ndarray:
        """Expand to the explicit length-``n`` probability vector."""
        return np.repeat(self.values, self.partition.lengths())

    def to_distribution(self) -> DiscreteDistribution:
        """Expand into a sampleable :class:`DiscreteDistribution`."""
        return DiscreteDistribution(self.to_pmf())

    def minimal(self) -> "Histogram":
        """Canonical representation merging adjacent equal-valued pieces."""
        return Histogram.from_pmf(self.to_pmf())

    def breakpoints(self) -> np.ndarray:
        """Minimal breakpoints: points ``i`` with ``pmf[i] != pmf[i+1]``."""
        return breakpoints(self.to_pmf())

    def __repr__(self) -> str:
        return f"Histogram(n={self.n}, pieces={self.num_pieces})"


def _breakpoint_boundaries(pmf: np.ndarray) -> np.ndarray:
    """Boundary array of the minimal piecewise-constant partition of ``pmf``."""
    if pmf.ndim != 1 or len(pmf) == 0:
        raise ValueError("pmf must be a non-empty 1-d array")
    diffs = np.abs(np.diff(pmf))
    cuts = np.flatnonzero(diffs > _BREAKPOINT_ATOL) + 1
    return np.concatenate(([0], cuts, [len(pmf)]))


def breakpoints(pmf: np.ndarray) -> np.ndarray:
    """Indices ``i`` such that ``pmf[i] != pmf[i+1]`` (paper's breakpoints).

    The paper's convention calls ``i`` a breakpoint of ``D`` when
    ``D(i) ≠ D(i+1)``; here the returned indices are 0-based positions of
    the *left* neighbour of each jump.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    return np.flatnonzero(np.abs(np.diff(pmf)) > _BREAKPOINT_ATOL)


def num_pieces(pmf: np.ndarray) -> int:
    """Minimal number of constant pieces required to represent ``pmf``."""
    return len(breakpoints(pmf)) + 1


def is_k_histogram(dist: DiscreteDistribution | np.ndarray, k: int) -> bool:
    """Exact membership test ``D ∈ H_k`` for an explicitly known pmf.

    This is *not* a sampling algorithm — it is the ground-truth oracle used
    by experiments and tests.  ``H_k`` for ``k >= n`` is all of ``Δ([n])``.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    pmf = dist.pmf if isinstance(dist, DiscreteDistribution) else np.asarray(dist)
    return num_pieces(pmf) <= k


def breakpoint_intervals(dist: DiscreteDistribution | np.ndarray, partition: Partition) -> list[int]:
    """Indices of partition intervals containing a breakpoint of ``dist``.

    An interval ``I`` is a *breakpoint interval* (paper, Section 3.2) when
    some jump of the pmf happens strictly inside it — i.e. there is an ``i``
    with both ``i`` and ``i+1`` in ``I`` and ``pmf[i] != pmf[i+1]``.  Jumps
    across interval borders do not count: a histogram aligned with the
    partition has no breakpoint intervals.
    """
    pmf = dist.pmf if isinstance(dist, DiscreteDistribution) else np.asarray(dist)
    if len(pmf) != partition.n:
        raise ValueError("distribution and partition cover different domains")
    bps = breakpoints(pmf)
    bounds = partition.boundaries
    j = np.searchsorted(bounds, bps, side="right") - 1
    return np.unique(j[bps + 1 < bounds[j + 1]]).tolist()


def flatten_outside(
    dist: DiscreteDistribution, partition: Partition, keep_exact: list[int]
) -> DiscreteDistribution:
    """The paper's ``D̃^J``: keep ``dist`` exactly on intervals in
    ``keep_exact`` and flatten it on every other interval.

    With ``keep_exact`` the breakpoint intervals of a ``D ∈ H_k``, the result
    is the idealised target the learner of Lemma 3.5 is compared against.
    """
    if dist.n != partition.n:
        raise ValueError("distribution and partition cover different domains")
    flat = partition.flatten(dist.pmf)
    exact = partition.restrict_mask(keep_exact)
    flat[exact] = dist.pmf[exact]
    return DiscreteDistribution(flat, validate=False)
