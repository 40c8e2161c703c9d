"""Unit tests for the kernel op registry.

Covers op registration, dispatch of unknown ops, and the metered dispatch
snapshot behind ``repro test --stage-timings``.
"""

import numpy as np
import pytest

from repro.kernels import dispatch, kernel_seconds_snapshot, registered_ops
from repro.kernels import pykernels

EXPECTED_OPS = (
    "blocks.build",
    "blocks.cover_walk",
    "chi2.point_terms",
    "dp.segment_first_min",
    "rank_tree.build",
    "rank_tree.interval_stats",
    "rank_tree.prefix_stats",
    "sampling.counts_from_samples",
    "serve.aggregate_rows",
)


class TestDispatch:
    def test_every_hot_op_is_registered(self):
        assert set(EXPECTED_OPS) <= set(registered_ops())

    def test_python_impl_exists_for_every_op(self):
        for op in registered_ops():
            assert dispatch(op).op == op

    def test_unknown_op_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown kernel op"):
            dispatch("no.such_op")

    def test_dispatch_binds_python(self):
        fn = dispatch("sampling.counts_from_samples")
        assert fn.op == "sampling.counts_from_samples"
        counts = fn(np.array([0, 2, 2]), 4)
        assert counts.tolist() == [1, 0, 2, 0]
        assert counts.dtype == np.int64
        assert np.array_equal(counts, pykernels.counts_from_samples(np.array([0, 2, 2]), 4))


class TestKernelSecondsSnapshot:
    def test_dispatched_calls_are_metered(self):
        fn = dispatch("sampling.counts_from_samples")
        before = {op: calls for op, _kernel, calls, _ in kernel_seconds_snapshot()}
        fn(np.array([0, 1]), 2)
        fn(np.array([1]), 2)
        after = {op: calls for op, _kernel, calls, _ in kernel_seconds_snapshot()}
        key = "sampling.counts_from_samples"
        assert after[key] == before.get(key, 0) + 2

    def test_rows_are_well_formed(self):
        dispatch("serve.aggregate_rows")(np.ones((2, 4)), np.array([0, 2]))
        rows = kernel_seconds_snapshot()
        assert rows
        for op, kernel, calls, seconds in rows:
            assert isinstance(op, str) and kernel == "python"
            # Binding an op creates its series; only *calls* advance it.
            assert calls >= 0
            assert seconds >= 0.0
        by_op = {op: calls for op, _kernel, calls, _ in rows}
        assert by_op["serve.aggregate_rows"] >= 1
