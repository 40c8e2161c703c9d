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
the median stay per-session (partitions differ per stream).

Group computations run through the generic batch executor
(:func:`repro.parallel.engine.run_tasks`), so a service configured with
workers fans independent groups out to processes; the default stays serial
and allocation-light.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.chi2 import chi2_point_terms
from repro.kernels import dispatch
from repro.parallel.engine import TrialOutcome, run_tasks
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


def _group_statistics(index: int, payload: dict) -> TrialOutcome:
    """Compute one group's per-interval statistics (module-level: picklable).

    ``payload`` carries the stacked tensors of a same-shape group::

        counts     (S, R, n)   m     (S, 1, 1)
        references (S, 1, n)   masks (S, 1, n)
        partitions  list of S Partition objects

    Returns the S median-amplified per-interval statistic vectors.  The
    per-session aggregation batches all R repeats through one
    ``serve.aggregate_rows`` call (``np.add.reduceat`` semantics per row —
    exactly what ``partition.aggregate`` does, so the result is
    bit-identical to the historical per-repeat loop).
    """
    terms = chi2_point_terms(
        payload["counts"], payload["m"], payload["references"], payload["masks"]
    )
    aggregate_rows = dispatch("serve.aggregate_rows")
    statistics: list[np.ndarray] = []
    for s, partition in enumerate(payload["partitions"]):
        per_repeat = aggregate_rows(terms[s], partition.boundaries[:-1])
        statistics.append(np.median(per_repeat, axis=0))
    return TrialOutcome(index=index, value=statistics)


def compute_final_statistics(
    items: Sequence[FinalBatchItem], *, workers: "int | None" = None
) -> list[np.ndarray]:
    """Per-interval statistics for every item, in item order.

    Items are grouped by ``(n, repeats)``; each group is one vectorized
    kernel call.  Group order is sorted by key and membership
    follows item order, so the computation is replay-deterministic
    regardless of how the caller assembled the batch.
    """
    if not items:
        return []
    groups: dict[tuple[int, int], list[int]] = {}
    for position, item in enumerate(items):
        repeats, n = item.counts.shape
        groups.setdefault((n, repeats), []).append(position)

    payloads: list[dict] = []
    membership: list[list[int]] = []
    for key in sorted(groups):
        positions = groups[key]
        members = [items[p] for p in positions]
        payloads.append(
            {
                "counts": np.stack([it.counts for it in members]),
                "m": np.asarray(
                    [it.m for it in members], dtype=np.float64
                ).reshape(-1, 1, 1),
                "references": np.stack(
                    [np.asarray(it.reference_pmf, dtype=np.float64) for it in members]
                )[:, None, :],
                "masks": np.stack(
                    [np.asarray(it.mask, dtype=bool) for it in members]
                )[:, None, :],
                "partitions": [it.partition for it in members],
            }
        )
        membership.append(positions)

    outcomes = run_tasks(_group_statistics, payloads, workers=workers)
    results: list[Any] = [None] * len(items)
    for outcome, positions in zip(outcomes, membership):
        assert outcome.ok, f"batched statistics group failed: {outcome.failure}"
        for position, z in zip(positions, outcome.value):
            results[position] = z
    return results
