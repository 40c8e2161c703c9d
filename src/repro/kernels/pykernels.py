"""The pure-numpy implementation of every registered kernel op.

``tests/kernels`` checks each op against a brute-force reference.  The ops:

* ``rank_tree.build`` / ``rank_tree.prefix_stats`` /
  ``rank_tree.interval_stats`` — the Fenwick-block rank tree of the
  projection engine, stored as *flat* arrays: all levels' sorted keys live
  in one int64 array, offset per level by ``key_span`` so the whole array
  is globally sorted and a batched query across every level of every query
  is **one** ``searchsorted`` (the big win over the historical per-level
  loop — ~11 searchsorted calls and mask scans per
  batch collapse into one).  The interval form decomposes ``[a, b)`` by
  its canonical segment-tree cover — fewer needles than differencing two
  prefix queries, which is what the oracle's batch objectives use.
* ``blocks.build`` — per-level aligned-block optimal-ℓ1 tables built into
  preallocated flat/2-D arrays (no per-level ``concatenate`` copies).
* ``blocks.cover_walk`` — the canonical segment-tree cover lower bound,
  evaluated per level from the closed-form walk cursors in cache-resident
  query chunks.
* ``dp.segment_first_min`` — per-segment (min, first-argmin), the
  ``np.argmin`` first-minimum convention over ragged segments.
* ``chi2.point_terms`` — the broadcastable χ² point-term kernel.
* ``serve.aggregate_rows`` — per-partition segment sums over a
  ``(repeats, n)`` count/term matrix (``np.add.reduceat`` semantics:
  strictly sequential in-segment accumulation).
* ``sampling.counts_from_samples`` — batched sample→histogram counting.

``rank_tree.prefix_stats``, ``blocks.*`` and ``dp.segment_first_min`` have
no library caller; they stay registered because the benchmark harness pins
the registry.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.dispatch import register

#: Query-batch cap for the fused rank-tree kernels: bounds the transient
#: (pairs × few int64/float64 arrays) working set so peak memory stays
#: O(chunk · log n) regardless of how large a batch the DP throws at it —
#: and, more importantly on large DPs, keeps every per-pass intermediate
#: L2/L3-resident (measured ~25% end-to-end on the E22 n=2048 grid vs a
#: 128k chunk, whose ~20 MB working set thrashes the cache between the
#: ~10 vectorized passes; 16k measured best among 16k/32k/64k).  Chunks
#: are independent queries, so splitting never changes a result.
_QUERY_CHUNK = 1 << 14


class RankTreeData:
    """Flat-array form of the Fenwick-block rank tree.

    Level ``b`` (for ``b`` with ``n >> b >= 1``) covers the first
    ``(n >> b) << b`` positions in aligned ``2^b`` blocks; each block's
    elements are sorted by global value rank.  ``keys`` holds every level's
    sort keys (``rank + block·stride + level·key_span``) back to back —
    globally sorted because ``key_span`` exceeds any within-level key —
    with one *sentinel* (``level·key_span − 1``, below every real key of
    its level, above every key of the previous one) leading each level so
    ``keys`` aligns index-for-index with ``cw``/``cwv``, the per-level
    running masked weight / weight·value sums (one leading zero per
    level): a global ``searchsorted`` hit minus one **is** the cumulative
    index, no per-level offset bookkeeping.
    """

    __slots__ = (
        "unique_vals",
        "stride",
        "nlevels",
        "key_span",
        "keys",
        "cw",
        "cwv",
        "cw_off",
    )

    def __init__(
        self,
        unique_vals: np.ndarray,
        stride: int,
        nlevels: int,
        key_span: int,
        keys: np.ndarray,
        cw: np.ndarray,
        cwv: np.ndarray,
        cw_off: np.ndarray,
    ) -> None:
        self.unique_vals = unique_vals
        self.stride = stride
        self.nlevels = nlevels
        self.key_span = key_span
        self.keys = keys
        self.cw = cw
        self.cwv = cwv
        self.cw_off = cw_off


@register("rank_tree.build")
def build_rank_tree(values: np.ndarray, wm: np.ndarray, wvm: np.ndarray) -> RankTreeData:
    """Build the flat rank tree (shared by every query kernel)."""
    n = len(values)
    unique_vals = np.unique(values)
    stride = int(len(unique_vals) + 1)
    ranks = np.searchsorted(unique_vals, values).astype(np.int64)
    nlevels = 0
    while (n >> nlevels) >= 1:
        nlevels += 1
    level_counts = np.array([(n >> b) << b for b in range(nlevels)], dtype=np.int64)
    cw_off = np.concatenate(([0], np.cumsum(level_counts + 1))).astype(np.int64)
    key_span = (n + 1) * stride
    keys = np.empty(int(cw_off[-1]), dtype=np.int64)
    cw = np.empty(int(cw_off[-1]), dtype=np.float64)
    cwv = np.empty(int(cw_off[-1]), dtype=np.float64)
    for b in range(nlevels):
        nblocks = n >> b
        covered = nblocks << b
        resh = ranks[:covered].reshape(nblocks, 1 << b)
        order = np.argsort(resh, axis=1, kind="stable")
        block_base = (np.arange(nblocks, dtype=np.int64) << b)[:, None]
        flat = (order + block_base).ravel()
        level_keys = (
            np.take_along_axis(resh, order, axis=1)
            + np.arange(nblocks, dtype=np.int64)[:, None] * stride
        ).ravel()
        s = int(cw_off[b])
        keys[s] = b * key_span - 1  # sentinel aligning keys with cw/cwv
        keys[s + 1 : s + 1 + covered] = level_keys + b * key_span
        cw[s] = 0.0
        cwv[s] = 0.0
        np.cumsum(wm[flat], out=cw[s + 1 : s + 1 + covered])
        np.cumsum(wvm[flat], out=cwv[s + 1 : s + 1 + covered])
    return RankTreeData(unique_vals, stride, nlevels, key_span, keys, cw, cwv, cw_off)


@register("rank_tree.prefix_stats")
def rank_prefix_stats(
    tree: RankTreeData, x: np.ndarray, L: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Masked (weight, weight·value) totals over positions ``< x_q`` with
    value rank ``< L_q``, for every query ``q`` — the fused form.

    Each query decomposes into the blocks named by the set bits of ``x``;
    all (query, level) pairs are gathered level-major (contiguous needles
    per level keep the binary searches cache-local), keyed into the
    globally sorted (sentinel-padded) flat ``keys`` array, resolved with
    **one** ``searchsorted``, and accumulated per query with ``bincount``
    — whose element-order accumulation makes each query's per-level adds
    ascending in level, matching the historical per-level loop bit for
    bit (the interleaving of *other* queries between them cannot affect a
    query's own sum).
    """
    x = np.asarray(x, dtype=np.int64)
    L = np.asarray(L, dtype=np.int64)
    q = len(x)
    if q == 0 or tree.nlevels == 0:
        return np.zeros(q, dtype=np.float64), np.zeros(q, dtype=np.float64)
    if q > _QUERY_CHUNK:
        w = np.empty(q, dtype=np.float64)
        wv = np.empty(q, dtype=np.float64)
        for s in range(0, q, _QUERY_CHUNK):
            ws, wvs = rank_prefix_stats(tree, x[s : s + _QUERY_CHUNK], L[s : s + _QUERY_CHUNK])
            w[s : s + _QUERY_CHUNK] = ws
            wv[s : s + _QUERY_CHUNK] = wvs
        return w, wv
    qi_parts: list[np.ndarray] = []
    key_parts: list[np.ndarray] = []
    lo_parts: list[np.ndarray] = []
    for b in range(tree.nlevels):
        idx = np.flatnonzero((x >> b) & 1)
        if idx.size == 0:
            continue
        blk = (x[idx] >> b) - 1
        qi_parts.append(idx)
        key_parts.append(blk * tree.stride + L[idx] + b * tree.key_span)
        lo_parts.append(tree.cw_off[b] + (blk << b))
    if not qi_parts:
        return np.zeros(q, dtype=np.float64), np.zeros(q, dtype=np.float64)
    qi = np.concatenate(qi_parts)
    keyq = np.concatenate(key_parts)
    lo = np.concatenate(lo_parts)
    pos = np.searchsorted(tree.keys, keyq, side="left") - 1
    w = np.bincount(qi, weights=tree.cw[pos] - tree.cw[lo], minlength=q)
    wv = np.bincount(qi, weights=tree.cwv[pos] - tree.cwv[lo], minlength=q)
    return w, wv


@register("rank_tree.interval_stats")
def rank_interval_stats(
    tree: RankTreeData, a: np.ndarray, b: np.ndarray, L: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Masked (weight, weight·value) totals over positions in ``[a_q, b_q)``
    with value rank ``< L_q`` — the fused *interval* form.

    Decomposes each interval into its canonical segment-tree cover (at most
    two blocks per level) instead of differencing two prefix queries — on
    DP candidate batches that is ~25% fewer (query, block) needles than
    ``popcount(a) + popcount(b)`` and half the per-query bookkeeping.  The
    cover has a closed form — the left cursor at level ``lev`` is
    ``ceil(a / 2^lev)``, the right ``b >> lev``, independent of each other —
    so every level reads straight from ``a``/``b`` with no loop-carried
    state.  Resolution as in :func:`rank_prefix_stats`: one global
    ``searchsorted`` into the sentinel-padded flat keys, then ``bincount``
    accumulation per query in the canonical cover order (level ascending,
    left edge before right — the order :func:`cover_walk` pins).
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    L = np.asarray(L, dtype=np.int64)
    q = len(a)
    if q == 0 or tree.nlevels == 0:
        return np.zeros(q, dtype=np.float64), np.zeros(q, dtype=np.float64)
    if q > _QUERY_CHUNK:
        w = np.empty(q, dtype=np.float64)
        wv = np.empty(q, dtype=np.float64)
        for s in range(0, q, _QUERY_CHUNK):
            ws, wvs = rank_interval_stats(
                tree,
                a[s : s + _QUERY_CHUNK],
                b[s : s + _QUERY_CHUNK],
                L[s : s + _QUERY_CHUNK],
            )
            w[s : s + _QUERY_CHUNK] = ws
            wv[s : s + _QUERY_CHUNK] = wvs
        return w, wv
    # The walk state has a closed form — at level ``lev`` the left cursor
    # is ``ceil(a / 2^lev)`` and the right ``b >> lev`` — so every level
    # reads straight from ``a``/``b`` with no loop-carried updates.
    qi_parts: list[np.ndarray] = []
    key_parts: list[np.ndarray] = []
    lo_parts: list[np.ndarray] = []
    for lev in range(tree.nlevels):
        lj = -((-a) >> lev)  # ceil(a / 2^lev); a >= 0
        rj = b >> lev
        live = lj < rj
        if not live.any():
            break
        # Canonical order within a level: left edge, then right edge.
        for cand, odd in ((lj, live & ((lj & 1) == 1)), (rj - 1, live & ((rj & 1) == 1))):
            qi = np.flatnonzero(odd)
            if qi.size == 0:
                continue
            blk = cand[qi]
            qi_parts.append(qi)
            key_parts.append(blk * tree.stride + L[qi] + lev * tree.key_span)
            lo_parts.append(tree.cw_off[lev] + (blk << lev))
    if not qi_parts:
        return np.zeros(q, dtype=np.float64), np.zeros(q, dtype=np.float64)
    qi = np.concatenate(qi_parts)
    keyq = np.concatenate(key_parts)
    lo = np.concatenate(lo_parts)
    pos = np.searchsorted(tree.keys, keyq, side="left") - 1
    w = np.bincount(qi, weights=tree.cw[pos] - tree.cw[lo], minlength=q)
    wv = np.bincount(qi, weights=tree.cwv[pos] - tree.cwv[lo], minlength=q)
    return w, wv


@register("blocks.build")
def build_block_tables(
    v: np.ndarray, wm: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Aligned-block optimal masked-ℓ1 cost tables for every level.

    Returns ``(costs_flat, costs_off, prefix2d, nlevels)``: level ``b``'s
    per-block costs live at ``costs_flat[costs_off[b]:costs_off[b+1]]``
    and ``prefix2d[b, :nblocks_b + 1]`` holds their prefix sums (rows are
    zero-padded to a common width so a per-pair, length-adaptive level can
    be gathered in one fancy-index).  All output — and the shared pad
    buffer — is preallocated once; no per-level ``concatenate`` copies.
    """
    n = len(v)
    nlevels = 0
    while (n >> nlevels) >= 1:
        nlevels += 1
    counts = np.array([-(n // -(1 << b)) for b in range(nlevels)], dtype=np.int64)
    costs_off = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    costs_flat = np.empty(int(costs_off[-1]), dtype=np.float64)
    prefix2d = np.zeros((nlevels, n + 1), dtype=np.float64)
    if nlevels == 0:
        return costs_flat, costs_off, prefix2d, nlevels
    # One shared zero-padded buffer: the largest padded level is < 2n, and
    # nothing ever writes past n, so the pad stays zero across levels.
    vp = np.zeros(2 * n, dtype=np.float64)
    wp = np.zeros(2 * n, dtype=np.float64)
    vp[:n] = v
    wp[:n] = wm
    for b in range(nlevels):
        size = 1 << b
        nblocks = int(counts[b])
        padded = nblocks * size
        sv_blocks = vp[:padded].reshape(nblocks, size)
        sw_blocks = wp[:padded].reshape(nblocks, size)
        order = np.argsort(sv_blocks, axis=1, kind="stable")
        sv = np.take_along_axis(sv_blocks, order, axis=1)
        sw = np.take_along_axis(sw_blocks, order, axis=1)
        cumw = np.cumsum(sw, axis=1)
        cumwv = np.cumsum(sw * sv, axis=1)
        tot = cumw[:, -1]
        totv = cumwv[:, -1]
        rows = np.arange(nblocks)
        pos = (cumw >= 0.5 * tot[:, None]).argmax(axis=1)
        c = sv[rows, pos]
        w_lt = np.where(pos > 0, cumw[rows, pos - 1], 0.0)
        wv_lt = np.where(pos > 0, cumwv[rows, pos - 1], 0.0)
        below = c * w_lt - wv_lt
        above = (totv - wv_lt) - c * (tot - w_lt)
        costs = np.maximum(below, 0.0) + np.maximum(above, 0.0)
        costs_flat[costs_off[b] : costs_off[b + 1]] = costs
        np.cumsum(costs, out=prefix2d[b, 1 : nblocks + 1])
    return costs_flat, costs_off, prefix2d, nlevels


@register("blocks.cover_walk")
def cover_walk(
    costs_flat: np.ndarray,
    costs_off: np.ndarray,
    nlevels: int,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Canonical segment-tree cover cost sum of every ``[a_q, b_q)``.

    Same closed-form cursors as :func:`rank_interval_stats` (left
    ``ceil(a / 2^lev)``, right ``b >> lev``), chunked to keep the per-level
    intermediates cache-resident.  Per pair, contributions are added in the
    canonical order — level ascending, left edge before right — so the
    result is bit-identical to the scalar walk.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    q = len(a)
    out = np.zeros(q, dtype=np.float64)
    if q == 0 or nlevels == 0:
        return out
    if q > _QUERY_CHUNK:
        for s in range(0, q, _QUERY_CHUNK):
            out[s : s + _QUERY_CHUNK] = cover_walk(
                costs_flat, costs_off, nlevels, a[s : s + _QUERY_CHUNK], b[s : s + _QUERY_CHUNK]
            )
        return out
    for lev in range(nlevels):
        lj = -((-a) >> lev)  # ceil(a / 2^lev); a >= 0
        rj = b >> lev
        live = lj < rj
        if not live.any():
            break
        base = int(costs_off[lev])
        qi = np.flatnonzero(live & ((lj & 1) == 1))
        if qi.size:
            out[qi] += costs_flat[base + lj[qi]]
        qi = np.flatnonzero(live & ((rj & 1) == 1))
        if qi.size:
            out[qi] += costs_flat[base + rj[qi] - 1]
    return out


@register("dp.segment_first_min")
def segment_first_min(
    vals: np.ndarray, starts: np.ndarray, i_arr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment minimum value and the smallest ``i`` attaining it
    (matching the dense ``np.argmin`` first-minimum convention; ``i_arr``
    need not be sorted within a segment)."""
    mins = np.minimum.reduceat(vals, starts)
    sizes = np.diff(np.append(starts, len(vals)))
    rep = np.repeat(mins, sizes)
    cand = np.where(vals == rep, i_arr, np.iinfo(np.int64).max)
    argi = np.minimum.reduceat(cand, starts)
    return mins, argi


@register("chi2.point_terms")
def chi2_point_terms(
    counts: np.ndarray,
    m: "float | np.ndarray",
    reference_pmf: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Point-level χ² terms ``((N − m·D*)² − N) / (m·D*)``, broadcastable
    over stacked ``(streams, repeats, n)`` batches; zero where masked out
    or the expectation vanishes."""
    counts = np.asarray(counts, dtype=np.float64)
    expected = m * reference_pmf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = ((counts - expected) ** 2 - counts) / expected
    return np.where(mask & (expected > 0), terms, 0.0)


@register("chi2.paired_point_terms")
def chi2_paired_point_terms(
    counts_x: np.ndarray,
    counts_y: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Paired closeness terms ``((X − Y)² − X − Y) / (X + Y)``, broadcastable
    over stacked ``(repeats, B)`` batches; zero where masked out or the
    pair total vanishes.  Under ``p = q`` every term has mean exactly zero
    (conditionally on ``X + Y``, ``X`` is ``Binomial(X+Y, 1/2)``)."""
    counts_x = np.asarray(counts_x, dtype=np.float64)
    counts_y = np.asarray(counts_y, dtype=np.float64)
    total = counts_x + counts_y
    diff = counts_x - counts_y
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = (diff * diff - total) / total
    return np.where(mask & (total > 0), terms, 0.0)


@register("serve.aggregate_rows")
def aggregate_rows(terms: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Segment sums of every row of a ``(repeats, n)`` matrix at once.

    ``starts`` are the partition's interval start positions (strictly
    increasing, first = 0); row ``r``'s output equals
    ``np.add.reduceat(terms[r], starts)`` exactly — ``reduceat`` sums each
    segment sequentially, per row, so stacking rows changes nothing.
    """
    terms = np.asarray(terms, dtype=np.float64)
    return np.add.reduceat(terms, np.asarray(starts, dtype=np.int64), axis=-1)


@register("sampling.counts_from_samples")
def counts_from_samples(samples: np.ndarray, n: int) -> np.ndarray:
    """Histogram counts of integer samples over ``{0, …, n-1}`` (exact
    integer counting)."""
    return np.bincount(samples, minlength=n).astype(np.int64)
