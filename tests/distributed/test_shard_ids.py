"""Shard ids pinned across commits.

A shard id is the sha256 of the sweep fingerprint plus the point, so it is
the idempotency key of every results store ever written.  The other suites
only compare ids within one commit; these literals fail if a refactor moves
the fingerprint of an identity or a closeness sweep by a single byte.
"""

from __future__ import annotations

import hashlib
import json

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


#: sha256 of ``json.dumps(spec.fingerprint(), sort_keys=True)`` — the bytes a
#: results store is bound to — for each (task, backend).  A store resumes
#: only under a byte-identical fingerprint, so these literals fail if a
#: config field is added to or dropped from the fingerprint.
FINGERPRINTS = {
    ("identity", "pods16"): "38ba976738d9b5f8b236fa2785ee2dca740a6ebac248997bbf2c8f31488d70da",
    ("identity", "cdkl22"): "2cf9f456d4e619bb2ad765f77178a77e0d187398e0c53e41f66fce0823bf366d",
    ("closeness", "pods16"): "cdfb8901869ec85720ef61a29d2a432e73e47bfad84d27c3e08c34d582328e3c",
    ("closeness", "cdkl22"): "9ba6582816249885e97fd5650b38424a99541572936c5119fdde7aa586e75226",
}


@pytest.mark.parametrize(
    "task, backend", sorted(FINGERPRINTS), ids=lambda value: str(value)
)
def test_fingerprint_bytes_are_pinned(task, backend):
    spec = SweepSpec(
        axis="n", values=(400.0, 800.0), n=400, k=4, eps=0.3,
        trials=3, bisection_steps=2, seed=3, task=task, backend=backend,
    )
    for fingerprint in (spec.fingerprint(), SweepSpec.from_json(spec.to_json()).fingerprint()):
        digest = hashlib.sha256(
            json.dumps(fingerprint, sort_keys=True).encode()
        ).hexdigest()
        assert digest == FINGERPRINTS[task, backend]
