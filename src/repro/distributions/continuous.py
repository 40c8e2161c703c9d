"""Continuous domains by gridding (the Section 2 remark).

"Although the setting we consider is that of discrete domains, our
techniques can be easily extended to continuous ones by suitably gridding
the range of values."  This module is that extension: wrap any sampler of
real values in ``[low, high)`` into a discrete
:class:`~repro.distributions.sampling.SampleSource` over ``n`` grid cells,
so every tester in the library applies unchanged.

The paper's caveat applies verbatim and is surfaced in the docstrings: the
verdict is about the *gridded* distribution — a distribution may be far
from every k-histogram at one grid resolution and exactly piecewise-constant
at another; choosing ``n`` is choosing the metric.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.distributions.sampling import SampleSource
from repro.util.rng import RandomState, ensure_rng

#: A continuous sampler: given a Generator and a count, return that many
#: i.i.d. real draws.
ContinuousSampler = Callable[[np.random.Generator, int], np.ndarray]


class GriddedSource(SampleSource):
    """Sample-only access to a continuous distribution through a grid.

    Draws real values from ``sampler``, maps them into ``n`` equal-width
    cells of ``[low, high)`` (values outside the range are clipped into the
    border cells, so heavy tails remain visible as border mass), and
    exposes the result as an ordinary discrete sample source.

    Example — test whether a mixture of Gaussians is 4-histogram-like at a
    1024-cell resolution::

        sampler = lambda g, m: np.where(g.random(m) < 0.5,
                                        g.normal(0.3, 0.05, m),
                                        g.normal(0.7, 0.05, m))
        source = GriddedSource(sampler, n=1024)
        verdict = test_histogram(source, k=4, eps=0.25)
    """

    def __init__(
        self,
        sampler: ContinuousSampler,
        n: int,
        *,
        low: float = 0.0,
        high: float = 1.0,
        rng: RandomState = None,
        max_samples: float | None = None,
    ) -> None:
        if n < 1:
            raise ValueError(f"grid size must be positive, got {n}")
        if not high > low:
            raise ValueError(f"need high > low, got [{low}, {high})")
        self._sampler = sampler
        self._low = low
        self._high = high
        self._grid_n = n
        self._grid_rng = ensure_rng(rng)
        self._init_accounting(max_samples)

    @property
    def n(self) -> int:
        return self._grid_n

    def _grid(self, reals: np.ndarray) -> np.ndarray:
        scaled = (np.asarray(reals, dtype=np.float64) - self._low) / (self._high - self._low)
        cells = np.floor(scaled * self._grid_n).astype(np.int64)
        return np.clip(cells, 0, self._grid_n - 1)

    def draw(self, m: int) -> np.ndarray:
        self._charge(m)
        if m == 0:
            return np.empty(0, dtype=np.int64)
        return self._grid(self._sampler(self._grid_rng, m))

    def draw_counts(self, m: int) -> np.ndarray:
        return np.bincount(self.draw(m), minlength=self._grid_n).astype(np.int64)

    def draw_counts_poissonized(self, m: float) -> np.ndarray:
        # Poissonize the total, then grid the individual draws; accounting
        # charges the expectation, as everywhere else.
        self._check_budget(m)
        realised = int(self._grid_rng.poisson(m))
        counts = np.bincount(
            self._grid(self._sampler(self._grid_rng, realised)) if realised else
            np.empty(0, dtype=np.int64),
            minlength=self._grid_n,
        ).astype(np.int64)
        self._record(m)
        return counts
