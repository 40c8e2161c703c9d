"""Seeded fault-injection schedules for the distributed worker loop.

Chaos here is *deterministic*: whether worker ``w1`` dies on its third
claim is a pure function of ``(chaos seed, worker id, claim ordinal)``, via
the same ``np.random.default_rng([seed, …keys])`` keyed-stream idiom the
trial engine uses.  That turns "the sweep survives crashes" from a flaky
statement into a replayable one — the chaos matrix tests pin a schedule
and assert the assembled sweep is byte-identical to the serial run under
it, every time.

Supported actions, each exercising a distinct failure edge of the lease
state machine:

* ``kill``             — SIGKILL the worker process *after* computing the
                         shard but *before* committing: the worst spot,
                         since the work is done but the store must treat it
                         as lost (lease expiry → re-dispatch → idempotent
                         recompute).
* ``late-commit``      — stall past the lease deadline, then commit anyway:
                         either the commit lands (nobody re-claimed yet) or
                         it is recorded as a duplicate — never both, never
                         neither.
* ``duplicate-commit`` — commit twice back-to-back; the second must be a
                         no-op duplicate.
* ``skip-heartbeat``   — run the shard without heartbeating, simulating a
                         stalled-but-alive worker whose lease expires
                         underneath it.

Schedules come in two flavours: **scripted** (exact ``(worker, ordinal) →
action`` triples, for tests that pin one interleaving) and **seeded-rate**
(every claim draws an action with probability ``rate``, for the CI smoke
job and the E27 benchmark).  ``max_actions`` bounds total injections per
process so a schedule can never livelock a sweep.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

#: Every action a schedule may inject (a compatibility surface).
ACTIONS = ("kill", "late-commit", "duplicate-commit", "skip-heartbeat")


def _worker_key(worker_id: str) -> int:
    """A stable integer key for a worker id (``hash()`` is per-process
    randomised; chaos must replay identically across processes)."""
    return zlib.crc32(worker_id.encode("utf-8"))


@dataclass(frozen=True)
class ChaosSchedule:
    """A deterministic fault schedule, queried once per shard claim.

    ``script`` entries take priority; with ``rate > 0`` the remaining
    claims draw from the seeded keyed stream.  The default instance
    (no script, zero rate) injects nothing.
    """

    seed: int = 0
    rate: float = 0.0
    actions: Tuple[str, ...] = ACTIONS
    #: Exact injections: ``(worker_id, claim_ordinal, action)``.
    script: Tuple[Tuple[str, int, str], ...] = ()
    #: Hard cap on injections per process (``None`` = unbounded).  The
    #: worker counts what it has injected; once spent, the schedule goes
    #: quiet and the sweep is guaranteed to finish.
    max_actions: Optional[int] = 2
    #: Seconds a ``late-commit`` stalls beyond the current lease deadline.
    stall_seconds: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        for action in self.actions:
            if action not in ACTIONS:
                raise ValueError(f"unknown chaos action {action!r}")
        for worker_id, ordinal, action in self.script:
            if action not in ACTIONS:
                raise ValueError(f"unknown scripted chaos action {action!r}")
            if ordinal < 0:
                raise ValueError(f"scripted ordinal must be >= 0, got {ordinal}")

    def action_for(self, worker_id: str, ordinal: int) -> "str | None":
        """The action to inject on this worker's ``ordinal``-th claim
        (0-based), or ``None``.  Pure — call it as often as you like."""
        for scripted_worker, scripted_ordinal, action in self.script:
            if scripted_worker == worker_id and scripted_ordinal == ordinal:
                return action
        if self.rate <= 0.0:
            return None
        rng = np.random.default_rng([self.seed, _worker_key(worker_id), ordinal])
        if rng.random() >= self.rate:
            return None
        return self.actions[int(rng.integers(len(self.actions)))]


@dataclass
class ChaosState:
    """Per-process injection accounting (the mutable side of a schedule)."""

    schedule: ChaosSchedule
    injected: int = 0
    history: list = field(default_factory=list)

    def draw(self, worker_id: str, ordinal: int) -> "str | None":
        """Consult the schedule, honouring ``max_actions``."""
        cap = self.schedule.max_actions
        if cap is not None and self.injected >= cap:
            return None
        action = self.schedule.action_for(worker_id, ordinal)
        if action is not None:
            self.injected += 1
            self.history.append((worker_id, ordinal, action))
        return action
