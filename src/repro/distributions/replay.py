"""Dataset-driven sample access: testing a *fixed* table of observations.

The testers are written against the sampling oracle of the property-testing
model, but a practitioner has a concrete dataset — a column of values, not
a distribution.  :class:`ReplaySource` bridges the two: it serves draws
from a fixed array of observations, in order, and refuses (with
:class:`InsufficientSamples`) once the dataset is exhausted — surfacing
"your table is too small for this (k, ε)" as an explicit, catchable
condition rather than a silent accuracy loss.

Statistical fine print (documented, not hidden): if the dataset rows are
themselves i.i.d. from the unknown distribution, then disjoint consecutive
blocks served by this source are i.i.d. samples, exactly matching the
model.  Poissonized draws are served by realising ``Poisson(m)`` and
consuming that many observations.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.sampling import SampleSource
from repro.util.rng import RandomState, ensure_rng


class InsufficientSamples(RuntimeError):
    """The fixed dataset cannot cover the requested draw."""

    def __init__(self, requested: float, remaining: int) -> None:
        super().__init__(
            f"dataset exhausted: draw of {requested:,.0f} requested with only "
            f"{remaining:,} observations left — collect more data or relax "
            "(k, eps), see repro.core.budget.algorithm1_budget"
        )
        self.requested = requested
        self.remaining = remaining


class ReplaySource(SampleSource):
    """A :class:`SampleSource` backed by a fixed observation array.

    Parameters
    ----------
    observations:
        Integer array of domain values in ``{0, …, n-1}``.  Consumed
        front-to-back; pass ``shuffle=True`` (default) to randomise the
        order first, which makes block-order artefacts (sorted exports,
        time-clustered logs) harmless under the i.i.d. assumption.
    n:
        Domain size (inferred as ``max+1`` when omitted).
    """

    def __init__(
        self,
        observations: np.ndarray,
        n: int | None = None,
        *,
        shuffle: bool = True,
        rng: RandomState = None,
        max_samples: float | None = None,
    ) -> None:
        data = np.asarray(observations, dtype=np.int64)
        if data.ndim != 1 or len(data) == 0:
            raise ValueError("observations must be a non-empty 1-d integer array")
        if data.min() < 0:
            raise ValueError("observations contain negative values")
        inferred = int(data.max()) + 1
        if n is None:
            n = inferred
        elif n < inferred:
            raise ValueError(f"n={n} smaller than max observation {inferred - 1}")
        self._rng = ensure_rng(rng)
        if shuffle:
            data = self._rng.permutation(data)
        self._data = data
        self._n = int(n)
        self._cursor = 0
        self._init_accounting(max_samples)

    @property
    def n(self) -> int:
        return self._n

    @property
    def remaining(self) -> int:
        """Observations not yet served."""
        return len(self._data) - self._cursor

    def _take(self, count: int) -> np.ndarray:
        if count > self.remaining:
            raise InsufficientSamples(count, self.remaining)
        block = self._data[self._cursor : self._cursor + count]
        self._cursor += count
        return block

    def draw(self, m: int) -> np.ndarray:
        self._check_budget(m)
        block = self._take(m)
        self._record(m)
        return block

    def draw_counts(self, m: int) -> np.ndarray:
        return np.bincount(self.draw(m), minlength=self._n).astype(np.int64)

    def draw_counts_poissonized(self, m: float) -> np.ndarray:
        self._check_budget(m)
        realised = int(self._rng.poisson(m))
        block = self._take(realised)
        self._record(m)
        return np.bincount(block, minlength=self._n).astype(np.int64)
