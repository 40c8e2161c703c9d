"""Tests for interval algebra and partitions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.intervals import Interval, Partition, cover, runs


class TestInterval:
    def test_length_and_contains(self):
        iv = Interval(2, 5)
        assert len(iv) == 3
        assert 2 in iv and 4 in iv
        assert 5 not in iv and 1 not in iv

    def test_non_integer_not_contained(self):
        assert "3" not in Interval(0, 5)

    def test_empty_interval(self):
        assert len(Interval(3, 3)) == 0

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            Interval(5, 2)
        with pytest.raises(ValueError):
            Interval(-1, 3)

    def test_singleton(self):
        assert Interval(4, 5).is_singleton
        assert not Interval(4, 6).is_singleton

    def test_iter_and_slice(self):
        iv = Interval(1, 4)
        assert list(iv) == [1, 2, 3]
        arr = np.arange(10)
        assert arr[iv.slice()].tolist() == [1, 2, 3]

    def test_intersects(self):
        assert Interval(0, 5).intersects(Interval(4, 8))
        assert not Interval(0, 4).intersects(Interval(4, 8))


class TestPartitionConstruction:
    def test_trivial(self):
        p = Partition.trivial(10)
        assert len(p) == 1 and p.n == 10

    def test_singletons(self):
        p = Partition.singletons(5)
        assert len(p) == 5
        assert all(iv.is_singleton for iv in p)

    def test_equal_width(self):
        p = Partition.equal_width(10, 5)
        assert len(p) == 5
        assert p.lengths().tolist() == [2, 2, 2, 2, 2]

    def test_equal_width_uneven(self):
        p = Partition.equal_width(10, 3)
        assert len(p) == 3
        assert p.lengths().sum() == 10

    def test_equal_width_bounds_validation(self):
        with pytest.raises(ValueError):
            Partition.equal_width(5, 6)
        with pytest.raises(ValueError):
            Partition.equal_width(5, 0)

    def test_from_intervals_roundtrip(self):
        p = Partition([0, 3, 7, 10])
        assert Partition.from_intervals(list(p)) == p

    def test_from_intervals_gap_raises(self):
        with pytest.raises(ValueError):
            Partition.from_intervals([Interval(0, 3), Interval(4, 6)])

    def test_bad_boundaries(self):
        with pytest.raises(ValueError):
            Partition([1, 5])  # must start at 0
        with pytest.raises(ValueError):
            Partition([0, 5, 5])  # strictly increasing
        with pytest.raises(ValueError):
            Partition([0])  # too short


class TestPartitionOps:
    def test_locate(self):
        p = Partition([0, 3, 7, 10])
        assert p.locate(0) == 0
        assert p.locate(2) == 0
        assert p.locate(3) == 1
        assert p.locate(9) == 2
        with pytest.raises(IndexError):
            p.locate(10)

    def test_membership_matches_locate(self):
        p = Partition([0, 3, 7, 10])
        labels = p.membership()
        assert all(labels[i] == p.locate(i) for i in range(10))

    def test_aggregate(self):
        p = Partition([0, 2, 5])
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert p.aggregate(values).tolist() == [3.0, 12.0]

    def test_aggregate_shape_check(self):
        with pytest.raises(ValueError):
            Partition([0, 2]).aggregate(np.zeros(3))

    def test_flatten_preserves_mass(self):
        p = Partition([0, 2, 5, 6])
        values = np.array([0.1, 0.3, 0.2, 0.2, 0.1, 0.1])
        flat = p.flatten(values)
        assert flat.sum() == pytest.approx(values.sum())
        assert p.aggregate(flat) == pytest.approx(p.aggregate(values))

    def test_flatten_constant_within_pieces(self):
        p = Partition([0, 3, 6])
        flat = p.flatten(np.array([1.0, 2, 3, 4, 5, 6]))
        assert flat[0] == flat[1] == flat[2] == 2.0
        assert flat[3] == flat[4] == flat[5] == 5.0

    def test_refine(self):
        a = Partition([0, 4, 10])
        b = Partition([0, 2, 10])
        r = a.refine(b)
        assert r.boundaries.tolist() == [0, 2, 4, 10]
        assert r.is_refinement_of(a) and r.is_refinement_of(b)

    def test_refinement_check_negative(self):
        assert not Partition([0, 3, 10]).is_refinement_of(Partition([0, 4, 10]))

    def test_restrict_mask(self):
        p = Partition([0, 2, 5, 8])
        mask = p.restrict_mask([0, 2])
        assert mask.tolist() == [True, True, False, False, False, True, True, True]

    @staticmethod
    def _reference_mask(p, keep):
        mask = np.zeros(p.n, dtype=bool)
        for j in keep:
            mask[p[j].slice()] = True
        return mask

    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=12),
        st.lists(st.integers(-12, 11), max_size=15),
    )
    @settings(max_examples=150, deadline=None)
    def test_restrict_mask_matches_per_interval_reference(self, lengths, keep):
        p = Partition(np.concatenate(([0], np.cumsum(lengths))))
        keep = [j for j in keep if -len(p) <= j < len(p)]
        mask = p.restrict_mask(keep)
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, self._reference_mask(p, keep))

    @pytest.mark.parametrize(
        "keep", [[], [2, 0], [1, 1, 1], [-1], [-3, 2, -3], np.array([0, 2])], ids=repr
    )
    def test_restrict_mask_edge_keeps(self, keep):
        p = Partition([0, 2, 5, 8])
        np.testing.assert_array_equal(p.restrict_mask(keep), self._reference_mask(p, keep))

    @pytest.mark.parametrize("bad", [3, -4])
    def test_restrict_mask_out_of_range_raises(self, bad):
        with pytest.raises(IndexError):
            Partition([0, 2, 5, 8]).restrict_mask([0, bad])

    def test_getitem_negative_index(self):
        p = Partition([0, 2, 5])
        assert p[-1] == Interval(2, 5)

    def test_equality_and_hash(self):
        assert Partition([0, 2, 5]) == Partition([0, 2, 5])
        assert Partition([0, 2, 5]) != Partition([0, 3, 5])
        assert hash(Partition([0, 2, 5])) == hash(Partition([0, 2, 5]))

    def test_boundaries_read_only(self):
        p = Partition([0, 2, 5])
        with pytest.raises(ValueError):
            p.boundaries[0] = 1


class TestCover:
    def test_empty(self):
        assert cover([]) == 0

    def test_single_run(self):
        assert cover([3, 4, 5]) == 1

    def test_multiple_runs(self):
        assert cover([0, 2, 3, 7]) == 3

    def test_all_isolated(self):
        assert cover([0, 2, 4, 6]) == 4

    def test_duplicates_ignored(self):
        assert cover([1, 1, 2, 2]) == 1

    def test_bounds_check(self):
        with pytest.raises(ValueError):
            cover([-1])
        with pytest.raises(ValueError):
            cover([5], n=5)

    def test_runs_match_cover(self):
        idx = [0, 1, 4, 5, 6, 9]
        rs = runs(idx)
        assert len(rs) == cover(idx)
        assert [list(r) for r in rs] == [[0, 1], [4, 5, 6], [9]]

    @given(st.sets(st.integers(min_value=0, max_value=40)))
    @settings(max_examples=100)
    def test_cover_matches_bruteforce(self, points):
        def brute(pts):
            pts = sorted(pts)
            if not pts:
                return 0
            count = 1
            for a, b in zip(pts, pts[1:]):
                if b - a > 1:
                    count += 1
            return count

        assert cover(points) == brute(points)


class TestPartitionProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=10)
    )
    @settings(max_examples=100)
    def test_lengths_and_iter_consistent(self, lengths):
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        p = Partition(bounds)
        assert p.lengths().tolist() == lengths
        assert [len(iv) for iv in p] == lengths
        assert p.n == sum(lengths)

    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=100)
    def test_flatten_idempotent(self, lengths, seed):
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        p = Partition(bounds)
        values = np.random.default_rng(seed).random(p.n)
        flat = p.flatten(values)
        assert np.allclose(p.flatten(flat), flat)
