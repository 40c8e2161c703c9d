"""Vectorized final-test execution across many sessions.

Sessions pause at the final χ² test with their Poissonized count matrices
already drawn (``(repeats, n)`` each — drawing stays per-session so every
stream's RNG and budget accounting is untouched).  This module computes all
their per-interval statistics in one pass: sessions with equal ``(n,
repeats)`` are stacked into a ``(streams, repeats, n)`` tensor and pushed
through a single :func:`~repro.core.chi2.chi2_point_terms` call with the
per-stream expected sizes broadcast as ``(streams, 1, 1)``.

The χ² arithmetic is elementwise, so the stacked result is **bit-identical**
to running each session through the scalar path — the equality the
``tests/serve`` suite asserts literally.  Only the partition aggregation and
the median stay per-session (partitions differ per stream).  Groups run
one after another in-process: a process pool over them measured slower
than this loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.chi2 import chi2_point_terms
from repro.kernels import dispatch
from repro.util.intervals import Partition


@dataclass(frozen=True)
class FinalBatchItem:
    """One session's pending final test: pre-drawn counts + test plan.

    Every backend's final statistic starts from the same elementwise χ²
    point terms, so items group by shape alone; the backend's own
    aggregation (e.g. the cdkl22 trim) runs in the pipeline afterwards.
    """

    counts: np.ndarray  # (repeats, n) Poissonized count matrix
    m: float
    reference_pmf: np.ndarray  # (n,)
    mask: np.ndarray  # (n,) bool
    partition: Partition


def _group_statistics(members: Sequence[FinalBatchItem]) -> list[np.ndarray]:
    """The median-amplified per-interval statistic vectors of one
    same-shape group, in member order.

    The group's counts ``(S, R, n)``, expected sizes ``(S, 1, 1)``,
    references and masks ``(S, 1, n)`` go through one
    :func:`~repro.core.chi2.chi2_point_terms` call.  The per-session
    aggregation batches all R repeats through one ``serve.aggregate_rows``
    call (``np.add.reduceat`` semantics per row — exactly what
    ``partition.aggregate`` does, so the result is bit-identical to the
    historical per-repeat loop).
    """
    terms = chi2_point_terms(
        np.stack([it.counts for it in members]),
        np.asarray([it.m for it in members], dtype=np.float64).reshape(-1, 1, 1),
        np.stack([np.asarray(it.reference_pmf, dtype=np.float64) for it in members])[
            :, None, :
        ],
        np.stack([np.asarray(it.mask, dtype=bool) for it in members])[:, None, :],
    )
    aggregate_rows = dispatch("serve.aggregate_rows")
    statistics: list[np.ndarray] = []
    for s, item in enumerate(members):
        per_repeat = aggregate_rows(terms[s], item.partition.boundaries[:-1])
        statistics.append(np.median(per_repeat, axis=0))
    return statistics


def compute_final_statistics(items: Sequence[FinalBatchItem]) -> list[np.ndarray]:
    """Per-interval statistics for every item, in item order.

    Items are grouped by ``(n, repeats)``; each group is one vectorized
    kernel call.  Group order is sorted by key and membership
    follows item order, so the computation is replay-deterministic
    regardless of how the caller assembled the batch.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for position, item in enumerate(items):
        repeats, n = item.counts.shape
        groups.setdefault((n, repeats), []).append(position)
    results: list[np.ndarray | None] = [None] * len(items)
    for key in sorted(groups):
        positions = groups[key]
        statistics = _group_statistics([items[p] for p in positions])
        for position, z in zip(positions, statistics):
            results[position] = z
    return results
