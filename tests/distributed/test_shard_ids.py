"""Shard ids pinned across commits.

A shard id is the sha256 of the sweep fingerprint plus the point, so it is
the idempotency key of every results store ever written.  The other suites
only compare ids within one commit; these literals fail if a refactor moves
the fingerprint of an identity or a closeness sweep by a single byte.
"""

from __future__ import annotations

import pytest

from repro.distributed import SweepSpec

PINNED = (
    (
        SweepSpec(
            axis="n", values=(48.0, 64.0), n=64, k=3, eps=0.3,
            trials=2, bisection_steps=1, seed=7,
        ),
        "731f7983ea8619386ba789d262e1d3df",
    ),
    (
        SweepSpec(
            axis="n", values=(48.0, 64.0), n=64, k=3, eps=0.3,
            trials=2, bisection_steps=1, seed=7, backend="cdkl22",
        ),
        "42a72a72a644ec4a00842d2281687538",
    ),
    (
        SweepSpec(
            axis="n", values=(400.0, 800.0), n=400, k=4, eps=0.3,
            trials=3, bisection_steps=2, seed=3, task="closeness",
        ),
        "e4dee27dfd87307737eaebc396bce6a0",
    ),
)


@pytest.mark.parametrize(
    "spec, shard_id", PINNED, ids=["identity-pods16", "identity-cdkl22", "closeness"]
)
def test_shard_id_is_pinned(spec, shard_id):
    assert spec.shard_id(0) == shard_id
    assert SweepSpec.from_json(spec.to_json()).shard_id(0) == shard_id
