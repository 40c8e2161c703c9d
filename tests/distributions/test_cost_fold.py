"""Bit-exactness of the per-piece interval-cost fold (``_fold_costs``).

Every fold-built cost matrix — the Step-10 coarse build on a
piecewise-constant ``D̂`` (the fallback of the certified rank-prefix split),
the point-granularity flattening build and the generic sorted-piece build —
is folded one piece at a time.  Each entry must
be the *same* left-to-right sum of the *same* float terms as a per-pair sum,
so these tests compare raw bits (``view(np.uint64)``), never tolerances: a
later change to the fold that reorders or re-associates any sum fails here
even when it would pass every approximate check.
"""

import bisect

import numpy as np
import pytest

from repro.distributions import projection
from repro.distributions.projection import (
    _constant_piece_error,
    _flattening_cost_matrix,
    _fold_costs,
    _interval_dp,
    coarse_flattening_projection,
)
from repro.observability.metrics import get_metrics
from repro.util.intervals import Partition


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def naive_costs(mass_prefix: np.ndarray, len_prefix: np.ndarray, term) -> np.ndarray:
    """``cost[a, b] = Σ_{q∈[a,b)} term(q, μ_ab)`` in pure Python, pair by
    pair, summed left to right from ``0.0`` over *every* piece."""
    size = len(mass_prefix)
    cost = np.full((size, size), np.inf)
    for a in range(size):
        cost[a, a] = 0.0
        for b in range(a + 1, size):
            mu = (float(mass_prefix[b]) - float(mass_prefix[a])) / (
                float(len_prefix[b]) - float(len_prefix[a])
            )
            total = 0.0
            for q in range(a, b):
                total += term(q, mu)
            cost[a, b] = total
    return cost


def constant_term(values: np.ndarray, weights: np.ndarray):
    values, weights = values.tolist(), weights.tolist()
    return lambda q, mu: abs(values[q] - mu) * weights[q]


def sorted_term(p: np.ndarray, base: Partition, kept: np.ndarray):
    """The generic build's per-piece error: below/above parts around ``μ``
    from the piece's sorted values and their running sums."""
    segs, pres = [], []
    for interval in base:
        seg = sorted(p[interval.slice()].tolist())
        pre = [0.0]
        for value in seg:
            pre.append(pre[-1] + value)
        segs.append(seg)
        pres.append(pre)

    def term(q: int, mu: float) -> float:
        if not kept[q]:
            return 0.0
        seg, pre = segs[q], pres[q]
        pos = bisect.bisect_left(seg, mu)
        below = mu * pos - pre[pos]
        above = (pre[-1] - pre[pos]) - mu * (len(seg) - pos)
        return below + above

    return term


def per_row_costs(values, weights, mass_prefix, len_prefix) -> np.ndarray:
    """The cost build the fold replaced: one ``(K−a)²`` block per row ``a``,
    column sums by running cumsum, diagonal kept.  Reference at sizes the
    pure-Python sum cannot reach."""
    big_k = len(values)
    cost = np.full((big_k + 1, big_k + 1), np.inf)
    np.fill_diagonal(cost, 0.0)
    for a in range(big_k):
        span_len = len_prefix[a + 1 :] - len_prefix[a]
        mus = (mass_prefix[a + 1 :] - mass_prefix[a]) / span_len
        dev = np.abs(values[a:, None] - mus[None, :])
        dev *= weights[a:, None]
        np.cumsum(dev, axis=0, out=dev)
        cost[a, a + 1 :] = dev.diagonal()
    return cost


def random_base(
    gen: np.random.Generator, big_k: int, min_len: int = 1, max_len: int = 5
) -> Partition:
    lengths = gen.integers(min_len, max_len + 1, size=big_k)
    return Partition(np.concatenate(([0], np.cumsum(lengths))))


def with_equal_runs(gen: np.random.Generator, values: np.ndarray) -> np.ndarray:
    """Copy of ``values`` where a few stretches repeat one value."""
    values = values.copy()
    for start in gen.integers(0, len(values), size=max(1, len(values) // 5)):
        values[start : start + int(gen.integers(2, 5))] = values[start]
    return values


def with_unkept_runs(gen: np.random.Generator, size: int) -> np.ndarray:
    kept = gen.random(size) > 0.25
    for start in gen.integers(0, size, size=max(1, size // 6)):
        kept[start : start + int(gen.integers(2, 6))] = False
    return kept


def piecewise_constant_pmf(gen: np.random.Generator, base: Partition) -> np.ndarray:
    heights = with_equal_runs(gen, gen.random(len(base)) + 0.01)
    pmf = np.repeat(heights, base.lengths())
    return pmf / pmf.sum()


def prefixes(p: np.ndarray, base: Partition) -> tuple[np.ndarray, np.ndarray]:
    """``(mass_prefix, len_prefix)`` exactly as the coarse build forms them."""
    masses = base.aggregate(p)
    lengths = base.lengths().astype(np.float64)
    return (
        np.concatenate(([0.0], np.cumsum(masses))),
        np.concatenate(([0.0], np.cumsum(lengths))),
    )


def coarse_fold(pmf: np.ndarray, base: Partition, kept: np.ndarray) -> np.ndarray:
    """The piecewise-constant coarse build, folded from the inputs
    ``_coarse_input`` prepares (the certified split's fallback)."""
    inp = projection._coarse_input(pmf, base, 1, kept, projection._MAX_PROJECTION_BASE)
    assert inp.piecewise_constant
    return _fold_costs(
        inp.mass_prefix,
        inp.len_prefix,
        np.flatnonzero(inp.kept),
        _constant_piece_error(inp.values, inp.weights),
    )


def projected_cost(monkeypatch, *args, **kwargs):
    """Run ``coarse_flattening_projection`` and return (result, the cost
    matrix it handed to the interval DP)."""
    seen = []

    def spy(cost, pieces):
        seen.append(cost.copy())
        return _interval_dp(cost, pieces)

    monkeypatch.setattr(projection, "_interval_dp", spy)
    result = coarse_flattening_projection(*args, **kwargs)
    monkeypatch.undo()
    (cost,) = seen
    return result, cost


SEEDS = range(12)


class TestAgainstPerPairSum:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_coarse_piecewise_constant_build(self, seed):
        gen = np.random.default_rng([15, seed])
        big_k = int(gen.integers(1, 41))
        base = random_base(gen, big_k)
        pmf = piecewise_constant_pmf(gen, base)
        kept = with_unkept_runs(gen, big_k)
        cost = coarse_fold(pmf, base, kept)

        mass_prefix, len_prefix = prefixes(pmf, base)
        values = pmf[base.boundaries[:-1]]
        weights = np.where(kept, base.lengths().astype(np.float64), 0.0)
        assert_same_bits(cost, naive_costs(mass_prefix, len_prefix, constant_term(values, weights)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_point_build(self, seed):
        gen = np.random.default_rng([16, seed])
        n = int(gen.integers(1, 41))
        pmf = with_equal_runs(gen, gen.dirichlet(np.ones(n)))
        mask = with_unkept_runs(gen, n)
        cost = _flattening_cost_matrix(pmf, mask)

        mass_prefix = np.concatenate(([0.0], np.cumsum(pmf)))
        len_prefix = np.arange(n + 1, dtype=np.float64)
        term = constant_term(pmf, mask.astype(np.float64))
        assert_same_bits(cost, naive_costs(mass_prefix, len_prefix, term))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generic_build(self, seed, monkeypatch):
        gen = np.random.default_rng([17, seed])
        big_k = int(gen.integers(1, 41))
        base = random_base(gen, big_k, min_len=2)
        # Values vary inside pieces (and repeat across neighbours), so the
        # projection takes the sorted-piece path.
        pmf = with_equal_runs(gen, gen.random(base.n) + 0.01)
        pmf /= pmf.sum()
        assert not np.allclose(base.flatten(pmf), pmf, atol=1e-15)
        kept = with_unkept_runs(gen, big_k)
        _, cost = projected_cost(monkeypatch, pmf, base, 3, kept)

        mass_prefix, len_prefix = prefixes(pmf, base)
        assert_same_bits(cost, naive_costs(mass_prefix, len_prefix, sorted_term(pmf, base, kept)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_skipping_zero_weight_pieces_changes_no_bits(self, seed):
        gen = np.random.default_rng([18, seed])
        big_k = int(gen.integers(1, 41))
        values = with_equal_runs(gen, gen.random(big_k))
        weights = np.where(with_unkept_runs(gen, big_k), gen.integers(1, 6, big_k), 0).astype(float)
        mass_prefix = np.concatenate(([0.0], np.cumsum(values * np.maximum(weights, 1.0))))
        len_prefix = np.concatenate(([0.0], np.cumsum(np.maximum(weights, 1.0))))
        error = _constant_piece_error(values, weights)
        every = _fold_costs(mass_prefix, len_prefix, np.arange(big_k), error)
        nonzero = _fold_costs(mass_prefix, len_prefix, np.flatnonzero(weights), error)
        assert_same_bits(nonzero, every)
        assert_same_bits(every, naive_costs(mass_prefix, len_prefix, constant_term(values, weights)))


class TestAgainstPerRowBuilder:
    """At the sizes Step 10 runs (K up to ``_MAX_PROJECTION_BASE``) the
    fold must build, and the projection (certified split or fold) return,
    the very bits the per-row build produced."""

    @pytest.mark.parametrize("big_k, k", [(300, 6), (417, 12), (512, 9)])
    def test_projection_distance_and_boundaries(self, big_k, k):
        gen = np.random.default_rng([19, big_k])
        base = random_base(gen, big_k, max_len=8)
        pmf = piecewise_constant_pmf(gen, base)
        kept = with_unkept_runs(gen, big_k)
        cost = coarse_fold(pmf, base, kept)
        certified = get_metrics().counter("projection.split_certified", by="rank")
        before = certified.value
        result = coarse_flattening_projection(pmf, base, k, kept)
        assert certified.value == before + 1  # the rank-prefix split, not the fold

        mass_prefix, len_prefix = prefixes(pmf, base)
        values = pmf[base.boundaries[:-1]]
        weights = np.where(kept, base.lengths().astype(np.float64), 0.0)
        reference = per_row_costs(values, weights, mass_prefix, len_prefix)
        assert_same_bits(cost, reference)

        l1, coarse_bounds = _interval_dp(reference, k)
        assert_same_bits(np.float64(result.distance), np.float64(0.5 * l1))
        assert np.array_equal(result.boundaries, base.boundaries[coarse_bounds])

    def test_point_build_at_dense_threshold(self):
        gen = np.random.default_rng(20)
        n = 512
        pmf = with_equal_runs(gen, gen.dirichlet(np.ones(n)))
        mask = with_unkept_runs(gen, n)
        mass_prefix = np.concatenate(([0.0], np.cumsum(pmf)))
        len_prefix = np.arange(n + 1, dtype=np.float64)
        reference = per_row_costs(pmf, mask.astype(np.float64), mass_prefix, len_prefix)
        assert_same_bits(_flattening_cost_matrix(pmf, mask), reference)
