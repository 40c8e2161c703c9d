"""Bit-identity of the vectorized final-test batch against the scalar path.

The serve layer's whole performance story rests on one claim: stacking many
sessions' count matrices into one ``chi2_point_terms`` call produces results
**bit-identical** to running each session alone (the arithmetic is
elementwise, so broadcasting cannot change a single IEEE operation).  These
tests assert that equality literally — ``np.array_equal``, no tolerance.
"""

import numpy as np
import pytest

from repro.core.chi2 import median_interval_statistics
from repro.serve.batch import FinalBatchItem, compute_final_statistics
from repro.util.intervals import Partition


def _random_item(rng, n, repeats):
    reference = rng.dirichlet(np.ones(n))
    m = float(rng.uniform(500.0, 5_000.0))
    counts = rng.poisson(m * reference, size=(repeats, n)).astype(np.int64)
    mask = rng.random(n) < 0.8
    boundaries = np.unique(
        np.concatenate([[0, n], rng.integers(1, n, size=rng.integers(0, 6))])
    )
    return FinalBatchItem(
        counts=counts,
        m=m,
        reference_pmf=reference,
        mask=mask,
        partition=Partition(boundaries),
    )


def _scalar(item):
    return median_interval_statistics(
        item.counts, item.m, item.reference_pmf, item.partition, item.mask
    )


class TestComputeFinalStatistics:
    def test_empty_batch(self):
        assert compute_final_statistics([]) == []

    def test_single_item_matches_scalar_path_bitwise(self):
        rng = np.random.default_rng(0)
        item = _random_item(rng, n=64, repeats=3)
        [z] = compute_final_statistics([item])
        assert np.array_equal(z, _scalar(item))

    def test_homogeneous_group_matches_scalar_path_bitwise(self):
        rng = np.random.default_rng(1)
        items = [_random_item(rng, n=48, repeats=3) for _ in range(7)]
        batched = compute_final_statistics(items)
        for item, z in zip(items, batched):
            assert np.array_equal(z, _scalar(item))

    def test_mixed_shapes_group_independently_and_keep_item_order(self):
        rng = np.random.default_rng(2)
        shapes = [(32, 1), (64, 3), (32, 1), (16, 5), (64, 3), (32, 3)]
        items = [_random_item(rng, n=n, repeats=r) for n, r in shapes]
        batched = compute_final_statistics(items)
        assert len(batched) == len(items)
        for item, z in zip(items, batched):
            assert np.array_equal(z, _scalar(item))
            assert z.shape == (len(item.partition),)

    def test_masked_out_and_zero_reference_points_contribute_nothing(self):
        n = 16
        reference = np.full(n, 1.0 / (n - 2))
        reference[0] = reference[-1] = 0.0  # zero-mass points
        mask = np.ones(n, dtype=bool)
        mask[1] = False  # masked point
        counts = np.arange(n, dtype=np.int64).reshape(1, n)
        item = FinalBatchItem(
            counts=counts,
            m=100.0,
            reference_pmf=reference,
            mask=mask,
            partition=Partition.singletons(n),
        )
        [z] = compute_final_statistics([item])
        assert z[0] == z[1] == z[-1] == 0.0
        assert np.all(np.isfinite(z))
        assert np.array_equal(z, _scalar(item))
