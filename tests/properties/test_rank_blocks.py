"""Bit reference for the rank-prefix split's column blocks.

``reference_rank_costs`` is the dense rank-prefix build the split used to
run: two real ``(K+1)²`` prefix tables and a ``(K+1)²`` cost matrix built
32 rows at a time.  It is the test-side reference only.  The library
produces the same costs a block of right endpoints at a time
(``projection._rank_costs``), and every block must be the reference's
transpose, bit for bit.
"""

import numpy as np
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
    for j0 in range(0, size, width):
        j1 = min(j0 + width, size)
        cost[:j1, j0:j1] = costs(np.arange(j0, j1)).T
    return cost, delta


def bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


@st.composite
def rank_inputs(draw):
    """A piecewise-constant Step-10 input on ``K ≤ 160`` pieces: unit and
    longer pieces, runs of equal heights (ties), runs of unkept pieces
    (masked, zero weight) and heights over six orders of magnitude."""
    big_k = draw(st.integers(min_value=1, max_value=160))
    max_len = draw(st.integers(min_value=1, max_value=4))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    base = Partition(np.concatenate(([0], np.cumsum(gen.integers(1, max_len + 1, size=big_k)))))
    heights = 10.0 ** gen.uniform(-6, 0, size=big_k)
    if draw(st.booleans()):  # few distinct heights: many exact ties
        heights = gen.choice(heights[:3], size=big_k)
    for start in gen.integers(0, big_k, size=draw(st.integers(min_value=0, max_value=6))):
        heights[start : start + int(gen.integers(2, 20))] = heights[start]
    kept = np.ones(big_k, dtype=bool)
    for start in gen.integers(0, big_k, size=draw(st.integers(min_value=0, max_value=4))):
        kept[start : start + int(gen.integers(1, 30))] = False
    pmf = np.repeat(heights, base.lengths())
    inp = projection._coarse_input(pmf / pmf.sum(), base, 1, kept, projection._MAX_PROJECTION_BASE)
    return inp


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
        got = costs(ends)
        want = reference_rank_costs(inp)[: ends[-1] + 1, ends].T
        assert np.array_equal(bits(got), bits(want))

    def test_single_piece(self):
        inp = projection._coarse_input(np.ones(3) / 3, Partition(np.array([0, 3])), 1, None, 512)
        for width in (1, 2, 32):
            got, _ = assembled(inp, width)
            assert np.array_equal(bits(got), bits(reference_rank_costs(inp)))
