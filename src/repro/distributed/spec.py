"""Sweep specs and shards: the serialisable unit of distributable work.

A :class:`SweepSpec` is the complete, JSON-round-trippable description of a
:func:`repro.experiments.sweeps.complexity_sweep` call.  Its fingerprint is
the one :func:`~repro.experiments.sweeps.sweep_fingerprint` computes, so a
checkpointed serial sweep and a distributed sweep of the same parameters
bind the same results store.

A **shard** is one sweep point.  Its id is the sha256 of the canonical JSON
of ``{sweep fingerprint, point index, point value}``, which makes commits
idempotent by construction: however many times a shard is re-dispatched,
every completion computes the same id and only the first writer's result
row lands.  Each shard's payload also carries its ``cost``: the task's
closed-form sample budget at that point, by which the store hands out the
costliest shard first (the id does not depend on it).

:func:`run_shard` is the determinism keystone.  It runs the serial sweep's
own per-point function (:func:`~repro.experiments.sweeps.measure_point`)
on the stream the serial loop hands that index, so a shard computed by any
worker, on any host, after any number of crashes, yields a point and a
sub-trace byte-identical to the serial run's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.core.backends import DEFAULT_BACKEND, validate_backend
from repro.core.config import TesterConfig
from repro.experiments.sweeps import (
    _point_to_json,
    measure_point,
    point_instance,
    sweep_fingerprint,
    sweep_task,
)
from repro.observability.trace import RecordingTracer
from repro.robustness.resilience import TrialPolicy
from repro.util.rng import spawn_rngs

from repro.distributed.store import ResultsStore, Shard

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
                "a stored sweep requires an integer seed — every shard "
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

    def point_cost(self, index: int) -> float:
        """The closed-form sample budget of point ``index`` (its claim rank)."""
        n, k, eps = point_instance(self.axis, self.values[index], self.n, self.k, self.eps)
        return float(sweep_task(self.task).budget(n, k, eps, self.config, self.backend))

    def shards(self) -> list[Shard]:
        """One shard per sweep point, in point order, each priced by
        :meth:`point_cost` so the store can claim the costliest first."""
        return [
            Shard(
                shard_id=self.shard_id(index),
                index=index,
                payload={
                    "index": index,
                    "value": float(value),
                    "cost": self.point_cost(index),
                },
            )
            for index, value in enumerate(self.values)
        ]

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
            config=TesterConfig(**data["config"]),
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

    def commit(self, store: ResultsStore, shard_id: str, worker_id: str) -> bool:
        """Commit this result as ``shard_id``'s row; ``False`` = duplicate."""
        return store.commit(
            shard_id,
            worker_id,
            result={"index": self.index, "point": self.point},
            trace=self.trace,
            samples_total=self.samples_total,
            trials_total=self.trials_total,
        )


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
    workloads: "Callable | None" = None,
    policy: "TrialPolicy | None" = None,
) -> ShardResult:
    """Compute one sweep point exactly as the serial sweep loop would.

    The point runs in this process; a sweep's parallelism is across
    shards, one per fleet worker.  ``workloads`` and ``policy`` pass a
    checkpointed :func:`complexity_sweep`'s own arguments through to
    :func:`measure_point`.
    """
    # Identical stream derivation to the serial loop: spawn all point
    # streams from the sweep seed, take ours.  O(len(values)) int draws —
    # negligible next to the point itself.
    stream = spawn_rngs(spec.seed, len(spec.values))[index]
    tracer = RecordingTracer()
    point = measure_point(
        spec.axis, spec.values[index], stream, n=spec.n, k=spec.k,
        eps=spec.eps, config=spec.config, trials=spec.trials,
        bisection_steps=spec.bisection_steps, backend=spec.backend,
        task=spec.task, workloads=workloads, policy=policy, trace=tracer,
    )
    events = tracer.export()
    samples_total, trials_total = ledger_totals(events)
    return ShardResult(
        index=index,
        point=_point_to_json(point),
        trace=tuple(events),
        samples_total=samples_total,
        trials_total=trials_total,
    )
