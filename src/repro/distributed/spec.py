"""Sweep specs and shards: the serialisable unit of distributable work.

A :class:`SweepSpec` is the complete, JSON-round-trippable description of a
:func:`repro.experiments.sweeps.complexity_sweep` call — identity knobs
only, never execution knobs (worker count).  Its fingerprint *is*
the checkpoint fingerprint of the equivalent serial sweep, so a sqlite
results store and a JSON checkpoint of the same sweep agree byte-for-byte
on identity.

A **shard** is one sweep point.  Its id is the sha256 of the canonical JSON
of ``{sweep fingerprint, point index, point value}``, which makes commits
idempotent by construction: however many times a shard is re-dispatched,
every completion computes the same id and only the first writer's result
row lands.

:func:`run_shard` is the determinism keystone.  It replays exactly what the
serial sweep loop does for one point — same ``spawn_rngs`` stream
derivation, same workload factories, same span structure — so a shard
computed by any worker, on any host, after any number of crashes, yields a
point and a sub-trace byte-identical to the serial run's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.core.backends import DEFAULT_BACKEND, validate_backend
from repro.core.config import TesterConfig
from repro.experiments.estimate import empirical_sample_complexity
from repro.experiments.sweeps import (
    SweepPoint,
    _point_from_json,
    _point_to_json,
    sweep_fingerprint,
    sweep_task,
)
from repro.observability.trace import RecordingTracer
from repro.util.rng import spawn_rngs

from repro.distributed.store import Shard

#: Exactly the keys a serialised spec carries (a compatibility surface).
SPEC_KEYS = frozenset(
    {
        "task",
        "axis",
        "values",
        "n",
        "k",
        "eps",
        "trials",
        "bisection_steps",
        "config",
        "backend",
        "seed",
    }
)


@dataclass(frozen=True)
class SweepSpec:
    """Identity of one distributed sweep (all knobs that change results)."""

    axis: str
    values: tuple
    n: int
    k: int
    eps: float
    trials: int
    bisection_steps: int
    seed: int
    backend: str = DEFAULT_BACKEND
    task: str = "identity"
    config: TesterConfig = None  # type: ignore[assignment]  # filled by __post_init__

    def __post_init__(self) -> None:
        if self.axis not in ("n", "k", "eps"):
            raise ValueError(f"axis must be one of n/k/eps, got {self.axis!r}")
        sweep_task(self.task)
        if not self.values:
            raise ValueError("need at least one axis value")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(
                "a distributed sweep requires an integer seed — every shard "
                "re-derives its stream from it"
            )
        validate_backend(self.backend)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.config is None:
            object.__setattr__(self, "config", TesterConfig.practical())

    # -- identity ------------------------------------------------------------

    def fingerprint(self) -> dict[str, Any]:
        """The sweep fingerprint (same function serial checkpoints use)."""
        return sweep_fingerprint(
            self.axis,
            self.values,
            n=self.n,
            k=self.k,
            eps=self.eps,
            trials=self.trials,
            bisection_steps=self.bisection_steps,
            config=self.config,
            backend=self.backend,
            seed=self.seed,
            task=self.task,
        )

    def shard_id(self, index: int) -> str:
        """Content-derived shard identity (the idempotency key)."""
        if not 0 <= index < len(self.values):
            raise IndexError(f"shard index {index} out of range 0..{len(self.values) - 1}")
        identity = {
            "sweep": self.fingerprint(),
            "index": index,
            "value": float(self.values[index]),
        }
        digest = hashlib.sha256(
            json.dumps(identity, sort_keys=True).encode()
        ).hexdigest()
        return digest[:32]

    def shards(self) -> list[Shard]:
        """One shard per sweep point, in point order."""
        return [
            Shard(
                shard_id=self.shard_id(index),
                index=index,
                payload={"index": index, "value": float(value)},
            )
            for index, value in enumerate(self.values)
        ]

    def point_params(self, index: int) -> tuple[int, int, float]:
        """The ``(n, k, eps)`` of point ``index`` after applying the axis."""
        value = self.values[index]
        cur_n, cur_k, cur_eps = self.n, self.k, self.eps
        if self.axis == "n":
            cur_n = int(value)
        elif self.axis == "k":
            cur_k = int(value)
        else:
            cur_eps = float(value)
        return cur_n, cur_k, cur_eps

    # -- JSON round trip -----------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        fp = self.fingerprint()
        return {key: fp[key] for key in sorted(SPEC_KEYS)}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "SweepSpec":
        if not isinstance(data, dict):
            raise ValueError(f"spec must be an object, got {type(data).__name__}")
        extra = set(data) - SPEC_KEYS
        missing = SPEC_KEYS - set(data)
        if extra or missing:
            raise ValueError(
                f"malformed sweep spec: unknown keys {sorted(extra)}, "
                f"missing keys {sorted(missing)}"
            )
        # The fingerprint drops `workers` (execution knob); restore the
        # dataclass default so TesterConfig round-trips.
        config = TesterConfig(**data["config"])
        return cls(
            axis=data["axis"],
            values=tuple(data["values"]),
            n=int(data["n"]),
            k=int(data["k"]),
            eps=float(data["eps"]),
            trials=int(data["trials"]),
            bisection_steps=int(data["bisection_steps"]),
            seed=int(data["seed"]),
            backend=data["backend"],
            task=data["task"],
            config=config,
        )

    def with_values(self, values: Sequence[float]) -> "SweepSpec":
        return replace(self, values=tuple(float(v) for v in values))


@dataclass(frozen=True)
class ShardResult:
    """Everything a worker commits for one shard."""

    index: int
    point: dict  # serialised SweepPoint (``_point_to_json`` schema)
    trace: tuple  # exported sub-trace events (dicts)
    samples_total: int  # sum of ledger totals across the shard's trials
    trials_total: int  # number of ledger events (tester invocations)

    def sweep_point(self) -> SweepPoint:
        return _point_from_json(self.point)


def ledger_totals(events: "Sequence[dict]") -> tuple[int, int]:
    """``(samples_total, ledger_event_count)`` from an exported trace.

    Every tester invocation emits exactly one ``ledger`` event whose
    ``attrs["total"]`` is the integer-reconciled draw count, so summing
    them recovers the shard's exact sample usage — this is the quantity
    ``repro report`` recomputes from the stored trace to prove zero drift.
    """
    samples = 0
    count = 0
    for event in events:
        if event["kind"] != "event":
            continue
        name = event["name"]
        if name != "ledger" and not name.endswith("/ledger"):
            continue
        total = event["attrs"]["total"]
        if isinstance(total, bool) or not isinstance(total, int):
            raise ValueError(f"ledger event carries non-integer total: {total!r}")
        samples += total
        count += 1
    return samples, count


def run_shard(
    spec: SweepSpec,
    index: int,
    *,
    workers: "int | None" = None,
) -> ShardResult:
    """Compute one sweep point exactly as the serial sweep loop would.

    ``workers`` is an execution knob: any count yields the same bytes (the
    engine's determinism contract), so single- and multi-core workers
    still assemble into one byte-identical sweep.
    """
    cur_n, cur_k, cur_eps = spec.point_params(index)
    # Identical stream derivation to the serial loop: spawn all point
    # streams from the sweep seed, take ours.  O(len(values)) int draws —
    # negligible next to the point itself.
    stream = spawn_rngs(spec.seed, len(spec.values))[index]
    task = sweep_task(spec.task)
    complete, far = task.workloads(cur_n, cur_k, cur_eps)
    family = task.family(cur_k, cur_eps, spec.config, spec.backend)
    tracer = RecordingTracer()
    with tracer.span(
        "point",
        axis=spec.axis,
        value=float(spec.values[index]),
        n=cur_n,
        k=cur_k,
        eps=cur_eps,
    ):
        estimate = empirical_sample_complexity(
            family,
            complete=complete,
            far=far,
            trials=spec.trials,
            bisection_steps=spec.bisection_steps,
            rng=stream,
            policy=None,
            workers=workers,
            trace=tracer,
        )
    point = SweepPoint(n=cur_n, k=cur_k, eps=cur_eps, estimate=estimate)
    events = tracer.export()
    samples_total, trials_total = ledger_totals(events)
    return ShardResult(
        index=index,
        point=_point_to_json(point),
        trace=tuple(events),
        samples_total=samples_total,
        trials_total=trials_total,
    )
