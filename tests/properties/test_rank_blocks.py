"""Bit reference for the rank-prefix split's column blocks.

``reference_rank_costs`` is the dense rank-prefix build the split used to
run: two real ``(K+1)²`` prefix tables and a ``(K+1)²`` cost matrix built
32 rows at a time.  It is the test-side reference only.  The library
produces the same costs a block of right endpoints at a time
(``projection._rank_costs``), and every block must be the reference's
transpose, bit for bit.  On bases of ``projection._RANK_INDEX_MIN_BASE``
pieces and up, the blocks read each rank from a bucketed index
(``projection._rank_index``), which must equal ``np.searchsorted`` for
every float64 key.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import projection
from repro.util.intervals import Partition

_ROWS = 32


def reference_rank_costs(inp) -> np.ndarray:
    """The dense rank-prefix cost matrix (``inf`` below the diagonal, ``0``
    on it), with each entry's operations in the library's order."""
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
    w_table, s_table = tables
    w_total, s_total = w_table[-size:], s_table[-size:]  # row t = K

    mass_prefix, len_prefix = inp.mass_prefix, inp.len_prefix
    cost = np.empty((size, size))
    for a0 in range(0, size - 1, _ROWS):
        a1 = min(a0 + _ROWS, size - 1)
        a = np.arange(a0, a1)[:, None]
        b = np.arange(a0 + 1, size)
        mu = mass_prefix[None, a0 + 1 :] - mass_prefix[a0:a1, None]
        with np.errstate(invalid="ignore"):
            mu /= len_prefix[None, a0 + 1 :] - len_prefix[a0:a1, None]
        start = np.searchsorted(sorted_values, mu) * size
        hi = w_table[start + b] - w_table[start + a]
        hi *= 2.0
        hi -= w_total[b]
        hi += w_total[a]
        hi *= mu
        lo = s_table[start + b] - s_table[start + a]
        lo *= 2.0
        lo = (s_total[None, a0 + 1 :] - s_total[a0:a1, None]) - lo
        cost[a0:a1, a0 + 1 :] = hi + lo
    cost[np.tri(size, k=-1, dtype=bool)] = np.inf
    np.fill_diagonal(cost, 0.0)
    return cost


def assembled(inp, width: int = projection._RANK_BLOCK_COLUMNS) -> tuple[np.ndarray, float]:
    """The library's cost matrix, assembled from ``width``-column blocks
    (``cost[a, b]``, as the reference lays it out; ``inf`` where no block
    reaches, ``a ≥ j1``), and its ``δ``."""
    size = len(inp.values) + 1
    costs, delta = projection._rank_costs(inp, width)
    cost = np.full((size, size), np.inf)
    with np.errstate(invalid="ignore"):
        for j0 in range(0, size, width):
            j1 = min(j0 + width, size)
            cost[:j1, j0:j1] = costs(np.arange(j0, j1)).T
    return cost, delta


def bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def make_input(gen, big_k, max_len, ties, runs, unkept):
    """A piecewise-constant Step-10 input on ``big_k`` pieces of lengths
    ``1 … max_len``: heights over six orders of magnitude (only three
    distinct ones when ``ties``), ``runs`` runs of equal heights and
    ``unkept`` runs of unkept pieces (masked, zero weight)."""
    base = Partition(np.concatenate(([0], np.cumsum(gen.integers(1, max_len + 1, size=big_k)))))
    heights = 10.0 ** gen.uniform(-6, 0, size=big_k)
    if ties:
        heights = gen.choice(heights[:3], size=big_k)
    for start in gen.integers(0, big_k, size=runs):
        heights[start : start + int(gen.integers(2, 20))] = heights[start]
    kept = np.ones(big_k, dtype=bool)
    for start in gen.integers(0, big_k, size=unkept):
        kept[start : start + int(gen.integers(1, 30))] = False
    pmf = np.repeat(heights, base.lengths())
    return projection._coarse_input(pmf / pmf.sum(), base, 1, kept, projection._MAX_PROJECTION_BASE)


@st.composite
def rank_inputs(draw):
    """A Step-10 input (:func:`make_input`) on ``K ≤ 160`` pieces."""
    big_k = draw(st.integers(min_value=1, max_value=160))
    max_len = draw(st.integers(min_value=1, max_value=4))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return make_input(
        gen,
        big_k,
        max_len,
        ties=draw(st.booleans()),
        runs=draw(st.integers(min_value=0, max_value=6)),
        unkept=draw(st.integers(min_value=0, max_value=4)),
    )


def clustered_input(big_k: int, seed: int):
    """A learned-looking Step-10 input on ``big_k`` unit pieces: eight
    height levels, each blurred by sampling noise into a tight cluster of
    near-equal heights, with exact ties and a run of unkept pieces."""
    gen = np.random.default_rng(seed)
    levels = np.repeat(gen.random(8) + 0.05, -(-big_k // 8))[:big_k]
    heights = gen.poisson(levels * 400) / 400.0 + 1e-3
    kept = np.ones(big_k, dtype=bool)
    kept[big_k // 3 : big_k // 3 + 25] = False
    base = Partition.singletons(big_k)
    return projection._coarse_input(
        heights / heights.sum(), base, 1, kept, projection._MAX_PROJECTION_BASE
    )


class TestBlocksMatchTheReference:
    @settings(max_examples=60)
    @given(rank_inputs(), st.sampled_from(["1", "2", "31", "32", "33", "K", "K+1"]))
    def test_every_block_is_the_reference_transposed(self, inp, width):
        big_k = len(inp.values)
        width = {"K": big_k, "K+1": big_k + 1}.get(width) or int(width)
        want = reference_rank_costs(inp)
        got, _ = assembled(inp, width)
        assert np.array_equal(bits(got), bits(want))

    @settings(max_examples=30)
    @given(rank_inputs(), st.data())
    def test_scattered_right_endpoints(self, inp, data):
        # The gap test's call: any non-decreasing endpoints, repeats included.
        big_k = len(inp.values)
        ends = np.sort(
            np.asarray(data.draw(st.lists(st.integers(0, big_k), min_size=1, max_size=12)))
        )
        costs, _ = projection._rank_costs(inp, len(ends))
        with np.errstate(invalid="ignore"):
            got = costs(ends)
        want = reference_rank_costs(inp)[: ends[-1] + 1, ends].T
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("big_k", [300, 512])
    @pytest.mark.parametrize("kind", ["clustered", "ties", "unkept"])
    def test_blocks_above_the_index_gate(self, big_k, kind):
        # Bases this large read their ranks from the bucketed index.
        assert big_k >= projection._RANK_INDEX_MIN_BASE
        if kind == "clustered":
            inp = clustered_input(big_k, seed=big_k)
        else:
            gen = np.random.default_rng(big_k)
            ties = kind == "ties"
            inp = make_input(gen, big_k, 3, ties=ties, runs=8, unkept=6 if kind == "unkept" else 0)
        want = reference_rank_costs(inp)
        for width in (32, 40):
            got, _ = assembled(inp, width)
            assert np.array_equal(bits(got), bits(want))

    def test_single_piece(self):
        inp = projection._coarse_input(np.ones(3) / 3, Partition(np.array([0, 3])), 1, None, 512)
        for width in (1, 2, 32):
            got, _ = assembled(inp, width)
            assert np.array_equal(bits(got), bits(reference_rank_costs(inp)))


#: Keys every value set is probed with: NaN of both signs, ±0, ±inf,
#: negatives, the extreme subnormals and the largest finite value.
SPECIAL_KEYS = np.array(
    [
        np.nan,
        -np.nan,
        0.0,
        -0.0,
        np.inf,
        -np.inf,
        -1.0,
        -1e-300,
        5e-324,
        -5e-324,
        2.2250738585072014e-308,
        np.finfo(np.float64).max,
    ]
)


@st.composite
def value_sets(draw):
    """A sorted value set the index may be built on (finite, ``≥ 0``, so
    ``−0.0`` allowed): spread or spanning hundreds of binades, with zeros,
    subnormals, one distinct value or exact ties."""
    size = draw(st.integers(min_value=1, max_value=600))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["spread", "binades", "zeros", "subnormal", "one", "ties"]))
    if kind == "spread":
        values = gen.random(size)
    elif kind == "binades":
        values = 10.0 ** gen.uniform(-320, 308, size)
    elif kind == "zeros":
        values = np.where(gen.random(size) < 0.3, gen.choice([0.0, -0.0], size), gen.random(size))
    elif kind == "subnormal":
        values = gen.integers(0, 2**52, size).view(np.float64) * gen.integers(0, 2, size)
    elif kind == "one":
        values = np.full(size, draw(st.floats(min_value=0.0, allow_infinity=False)))
    else:
        values = gen.choice(10.0 ** gen.uniform(-8, 0, 3), size)
    return np.sort(values, kind="stable")


class TestRankIndex:
    """``_rank_index`` must be ``np.searchsorted`` for every float64 key."""

    @settings(max_examples=150)
    @given(
        value_sets(),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_equals_searchsorted(self, values, floats, seed):
        gen = np.random.default_rng(seed)
        keys = np.concatenate(
            (
                SPECIAL_KEYS,
                values,  # every sorted value itself
                np.nextafter(values, np.inf),
                np.nextafter(values, -np.inf),
                np.asarray(floats, dtype=np.float64),
                gen.uniform(values[0], values[-1], 200),
                gen.integers(-(2**63), 2**63 - 1, 200, dtype=np.int64).view(np.float64),
            )
        )
        rank = projection._rank_index(values, len(keys))
        want = np.searchsorted(values, keys)
        assert np.array_equal(rank(keys), want)
        # The reused buffers serve a smaller, two-dimensional call as well.
        half = keys[: 2 * (len(keys) // 4)].reshape(2, -1)
        assert np.array_equal(rank(half), want[: half.size].reshape(half.shape))
