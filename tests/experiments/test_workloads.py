"""Tests for the workload registry."""

import numpy as np
import pytest

from repro.distributions.histogram import is_k_histogram
from repro.distributions.projection import unconstrained_l1_distance
from repro.experiments.workloads import (
    _GROUND_TRUTH_CACHE,
    _GROUND_TRUTH_CACHE_SIZE,
    REGISTRY,
    completeness_workloads,
    get_workload,
    ground_truth_bounds,
    make,
    soundness_workloads,
)


N, K, EPS = 600, 4, 0.2


class TestRegistry:
    def test_lookup(self):
        w = get_workload("staircase")
        assert w.nature == "complete"
        with pytest.raises(KeyError, match="available"):
            get_workload("nope")

    def test_partitioned_by_nature(self):
        names = set(REGISTRY)
        complete = {w.name for w in completeness_workloads()}
        far = {w.name for w in soundness_workloads()}
        assert complete and far
        assert complete | far <= names
        assert not complete & far

    def test_all_instantiable_and_valid(self):
        for name in REGISTRY:
            dist = make(name, N, K, EPS, rng=0)
            assert dist.n == N
            assert dist.pmf.sum() == pytest.approx(1.0)

    def test_complete_workloads_are_histograms(self):
        for w in completeness_workloads():
            dist = make(w.name, N, K, EPS, rng=1)
            assert is_k_histogram(dist.pmf, K), w.name

    def test_far_workloads_certified(self):
        for w in soundness_workloads():
            dist = make(w.name, N, K, EPS, rng=2)
            assert unconstrained_l1_distance(dist, K) >= EPS - 1e-9, w.name

    def test_reproducible(self):
        a = make("random-histogram", N, K, EPS, rng=3)
        b = make("random-histogram", N, K, EPS, rng=3)
        assert a == b

    def test_descriptions_present(self):
        assert all(w.description for w in REGISTRY.values())


class TestGroundTruthBounds:
    def test_matches_unmemoized_bounds(self):
        from repro.distributions.projection import histogram_distance_bounds

        dist = make("zipf", N, K, EPS, rng=0)
        assert ground_truth_bounds(dist, K) == histogram_distance_bounds(dist.pmf, K)

    def test_memoizes_by_pmf_bytes_and_k(self):
        _GROUND_TRUTH_CACHE.clear()
        dist = make("staircase", N, K, EPS, rng=0)
        first = ground_truth_bounds(dist, K)
        assert len(_GROUND_TRUTH_CACHE) == 1
        # Same pmf content from a fresh array hits the cache; different k
        # does not.
        assert ground_truth_bounds(dist.pmf.copy(), K) == first
        assert len(_GROUND_TRUTH_CACHE) == 1
        ground_truth_bounds(dist, K + 1)
        assert len(_GROUND_TRUTH_CACHE) == 2

    def test_cache_is_bounded(self):
        _GROUND_TRUTH_CACHE.clear()
        gen = np.random.default_rng(0)
        for _ in range(_GROUND_TRUTH_CACHE_SIZE + 10):
            ground_truth_bounds(gen.dirichlet(np.ones(6)), 2)
        assert len(_GROUND_TRUTH_CACHE) == _GROUND_TRUTH_CACHE_SIZE

    def test_labels_separate_complete_from_far(self):
        complete = make("staircase", N, K, EPS, rng=1)
        far = make("sawtooth-uniform", N, K, EPS, rng=1)
        lower_c, upper_c = ground_truth_bounds(complete, K)
        lower_f, _ = ground_truth_bounds(far, K)
        assert upper_c <= 1e-9
        assert lower_f >= EPS - 1e-9
        assert lower_c <= upper_c + 1e-12

    def test_ground_truth_bounds_key_carries_shape_and_dtype(self):
        """The memo key must disambiguate identical buffers: raw bytes plus
        shape and dtype, so a float32 pmf bit-identical to half a float64
        one never shares an entry with it."""
        from repro.experiments import workloads

        pmf = np.full(8, 0.125)
        workloads.ground_truth_bounds(pmf, K)
        key = next(
            k for k in workloads._GROUND_TRUTH_CACHE if k[0] == pmf.tobytes()
        )
        assert key == (pmf.tobytes(), pmf.shape, pmf.dtype.str, K)
