"""Interval algebra over the discrete domain ``{0, …, n-1}``.

The paper works over ``[n] = {1, …, n}``; this library uses 0-indexed
half-open intervals ``[start, stop)`` throughout, which matches both numpy
slicing and the usual Python convention.  A :class:`Partition` is an ordered
sequence of contiguous intervals covering the whole domain — the object
``APPROXPART`` produces and every later stage of Algorithm 1 consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True, order=True)
class Interval:
    """Half-open integer interval ``[start, stop)``."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"invalid interval [{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start

    def __contains__(self, i: object) -> bool:
        if not isinstance(i, (int, np.integer)):
            return False
        return self.start <= int(i) < self.stop

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.stop))

    @property
    def is_singleton(self) -> bool:
        """True when the interval contains exactly one domain element."""
        return len(self) == 1

    def slice(self) -> slice:
        """The numpy slice selecting this interval from a length-n array."""
        return slice(self.start, self.stop)

    def intersects(self, other: "Interval") -> bool:
        return max(self.start, other.start) < min(self.stop, other.stop)


class Partition:
    """An ordered partition of ``{0, …, n-1}`` into contiguous intervals.

    Stored as a boundary array ``b_0 = 0 < b_1 < … < b_K = n``; interval
    ``j`` is ``[b_j, b_{j+1})``.  Provides O(log K) point location and
    vectorised per-interval aggregation of length-n arrays.
    """

    __slots__ = ("_boundaries",)

    def __init__(self, boundaries: Sequence[int]) -> None:
        bounds = np.asarray(boundaries, dtype=np.int64)
        if bounds.ndim != 1 or len(bounds) < 2:
            raise ValueError("a partition needs at least two boundaries")
        if bounds[0] != 0:
            raise ValueError(f"partition must start at 0, got {bounds[0]}")
        if np.any(np.diff(bounds) <= 0):
            raise ValueError("partition boundaries must be strictly increasing")
        self._boundaries = bounds

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        """The single-interval partition ``[0, n)``."""
        return cls([0, n])

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        """The finest partition: every point its own interval."""
        return cls(np.arange(n + 1))

    @classmethod
    def equal_width(cls, n: int, pieces: int) -> "Partition":
        """Split ``[0, n)`` into ``pieces`` intervals of (near-)equal width."""
        if not 1 <= pieces <= n:
            raise ValueError(f"need 1 <= pieces <= n, got pieces={pieces}, n={n}")
        bounds = np.unique(np.linspace(0, n, pieces + 1).round().astype(np.int64))
        return cls(bounds)

    @classmethod
    def from_intervals(cls, intervals: Iterable[Interval]) -> "Partition":
        """Build from contiguous intervals (must tile the domain in order)."""
        ivs = list(intervals)
        if not ivs:
            raise ValueError("empty interval list")
        bounds = [ivs[0].start]
        for iv in ivs:
            if iv.start != bounds[-1]:
                raise ValueError(f"intervals not contiguous at {iv.start}")
            bounds.append(iv.stop)
        return cls(bounds)

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        """Size of the underlying domain."""
        return int(self._boundaries[-1])

    @property
    def boundaries(self) -> np.ndarray:
        """Read-only view of the boundary array (length ``K + 1``)."""
        view = self._boundaries.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return len(self._boundaries) - 1

    def __getitem__(self, j: int) -> Interval:
        if not -len(self) <= j < len(self):
            raise IndexError(j)
        j %= len(self)
        return Interval(int(self._boundaries[j]), int(self._boundaries[j + 1]))

    def __iter__(self) -> Iterator[Interval]:
        for j in range(len(self)):
            yield self[j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self._boundaries, other._boundaries)

    def __hash__(self) -> int:
        return hash(self._boundaries.tobytes())

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, intervals={len(self)})"

    def lengths(self) -> np.ndarray:
        """Length of each interval, shape ``(K,)``."""
        return np.diff(self._boundaries)

    def locate(self, i: int) -> int:
        """Index of the interval containing domain point ``i``."""
        if not 0 <= i < self.n:
            raise IndexError(f"point {i} outside domain [0, {self.n})")
        return int(np.searchsorted(self._boundaries, i, side="right") - 1)

    def membership(self) -> np.ndarray:
        """Array of length ``n`` mapping each point to its interval index."""
        labels = np.zeros(self.n, dtype=np.int64)
        labels[self._boundaries[1:-1]] = 1
        return np.cumsum(labels)

    # -- aggregation -------------------------------------------------------

    def aggregate(self, values: np.ndarray) -> np.ndarray:
        """Sum a length-``n`` array within each interval → shape ``(K,)``."""
        values = np.asarray(values)
        if values.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {values.shape}")
        sums = np.add.reduceat(values, self._boundaries[:-1])
        return sums

    def flatten(self, values: np.ndarray) -> np.ndarray:
        """Replace values within each interval by the interval average.

        This is the paper's flattening map: the closest (in the relevant
        metrics) function constant on each piece with the same per-piece mass.
        """
        sums = self.aggregate(values)
        return np.repeat(sums / self.lengths(), self.lengths())

    # -- structural operations --------------------------------------------

    def refine(self, other: "Partition") -> "Partition":
        """Common refinement of two partitions of the same domain."""
        if other.n != self.n:
            raise ValueError("partitions cover different domains")
        merged = np.union1d(self._boundaries, other._boundaries)
        return Partition(merged)

    def is_refinement_of(self, coarser: "Partition") -> bool:
        """True when every boundary of ``coarser`` is a boundary of ``self``."""
        if coarser.n != self.n:
            return False
        return bool(np.isin(coarser._boundaries, self._boundaries).all())

    def restrict_mask(self, keep: Sequence[int]) -> np.ndarray:
        """Boolean domain mask selecting the union of intervals in ``keep``
        (indexed like ``self[j]``: negative from the end, else ``IndexError``)."""
        selected = np.zeros(len(self), dtype=bool)
        selected[np.asarray(keep, dtype=np.intp)] = True
        return np.repeat(selected, self.lengths())


def cover(indices: Iterable[int], n: int | None = None) -> int:
    """Number of maximal runs of consecutive integers in ``indices``.

    This is the paper's ``cover(S)`` (Lemma 4.4): the minimum number of
    disjoint intervals needed to cover ``S``.  ``n`` is accepted only for
    interface symmetry and bounds checking.
    """
    pts = np.unique(np.fromiter(indices, dtype=np.int64))
    if len(pts) == 0:
        return 0
    if pts[0] < 0 or (n is not None and pts[-1] >= n):
        raise ValueError("indices outside the domain")
    return int(1 + np.count_nonzero(np.diff(pts) > 1))


def runs(indices: Iterable[int]) -> list[Interval]:
    """The maximal runs themselves, as a list of intervals."""
    pts = np.unique(np.fromiter(indices, dtype=np.int64))
    if len(pts) == 0:
        return []
    breaks = np.flatnonzero(np.diff(pts) > 1)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [len(pts) - 1]))
    return [Interval(int(pts[a]), int(pts[b]) + 1) for a, b in zip(starts, stops)]
