"""Parameter sweeps of empirical sample complexity.

The scaling experiments (E4–E6) all do the same thing: fix two of
``(n, k, ε)``, sweep the third, and measure the empirical sample complexity
at each point via the bisection of
:mod:`repro.experiments.estimate`.  This module is that loop as a reusable
API, including the power-law fit used to summarise a sweep's shape.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.core.backends import DEFAULT_BACKEND, backend_budget, validate_backend
from repro.core.closeness import closeness_budget, test_closeness
from repro.core.config import TesterConfig
from repro.core.tester import test_histogram
from repro.distributions import families
from repro.distributions.discrete import DiscreteDistribution
from repro.experiments.estimate import ComplexityEstimate, empirical_sample_complexity
from repro.experiments.workloads import (
    BoundPairedWorkload,
    ground_truth_bounds,
    pair_ground_truth,
)
from repro.observability.trace import NULL_TRACER, Tracer
from repro.robustness.resilience import TrialPolicy
from repro.util.rng import RandomState, ensure_rng, spawn_rngs


@dataclass(frozen=True)
class SweepPoint:
    """One point of a complexity sweep."""

    n: int
    k: int
    eps: float
    estimate: ComplexityEstimate


@dataclass(frozen=True)
class SweepResult:
    """A full sweep plus its fitted power-law exponent."""

    axis: str
    points: list[SweepPoint]
    exponent: float  # slope of log(samples) vs log(axis value)
    #: Optional per-point ground-truth labels (``label_ground_truth=True``):
    #: one ``{"complete": {...}, "far": {...}}`` entry per point with the
    #: certified ``(lower, upper)`` dTV(·, H_k) bounds of each instance.
    #: Never checkpointed — recomputed (memoized) on every run.
    ground_truth: "list[dict[str, dict[str, float]]] | None" = None

    @classmethod
    def fit(cls, axis: str, points: list[SweepPoint]) -> "SweepResult":
        """The sweep of ``points`` with its fitted power-law exponent."""
        xs = [float(getattr(p, axis)) for p in points]
        ys = [p.estimate.samples for p in points]
        exponent = fit_power_law(xs, ys) if len(points) >= 2 else math.nan
        return cls(axis=axis, points=points, exponent=exponent)

    def axis_values(self) -> list[float]:
        return [getattr(p, self.axis) for p in self.points]

    def samples(self) -> list[float]:
        return [p.estimate.samples for p in self.points]


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching points")
    lx, ly = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float))
    slope = float(np.polyfit(lx, ly, 1)[0])
    return slope


@dataclass(frozen=True)
class StaircaseWorkload:
    """Picklable completeness factory: the (n, k) staircase histogram."""

    n: int
    k: int

    def __call__(self, gen: np.random.Generator) -> DiscreteDistribution:
        return families.staircase(self.n, self.k).to_distribution()


@dataclass(frozen=True)
class FarFromHkWorkload:
    """Picklable soundness factory: a certified ε-far sawtooth instance."""

    n: int
    k: int
    eps: float

    def __call__(self, gen: np.random.Generator) -> DiscreteDistribution:
        return families.far_from_hk(self.n, self.k, self.eps, gen)


@dataclass(frozen=True)
class HistogramTester:
    """Picklable tester: one backend at a fixed budget scale.

    Module-level (not a closure) so the process backend of
    :mod:`repro.parallel` can ship it to workers.
    """

    k: int
    eps: float
    config: TesterConfig
    backend: str = DEFAULT_BACKEND

    #: Advertises the ``trace=`` keyword to the trial runner (see
    #: :data:`repro.experiments.runner.Tester`); a class attribute, so the
    #: dataclass stays picklable with unchanged fields.
    supports_trace = True

    def __call__(self, source, trace: Tracer = NULL_TRACER) -> bool:
        return test_histogram(
            source,
            self.k,
            self.eps,
            config=self.config,
            backend=self.backend,
            trace=trace,
        ).accept


@dataclass(frozen=True)
class HistogramTesterFamily:
    """Picklable tester family indexed by budget scale (bisection knob)."""

    k: int
    eps: float
    config: TesterConfig
    backend: str = DEFAULT_BACKEND

    def __call__(self, scale: float) -> HistogramTester:
        return HistogramTester(self.k, self.eps, self.config.scaled(scale), self.backend)


@dataclass(frozen=True)
class PairedClosenessTester:
    """Picklable two-sample tester at a fixed budget scale.

    Judges a :class:`~repro.distributions.sampling.PairedSampleSource` (the
    trial runner builds one whenever a workload factory returns a ``(p, q)``
    tuple).  There is no backend knob: the DKN17 reduction has a single
    implementation on the shared substrate.
    """

    k: int
    eps: float
    config: TesterConfig

    supports_trace = True

    def __call__(self, pair, trace: Tracer = NULL_TRACER) -> bool:
        return test_closeness(
            pair,
            k=self.k,
            eps=self.eps,
            config=self.config,
            trace=trace,
        ).accept


@dataclass(frozen=True)
class ClosenessTesterFamily:
    """Picklable closeness tester family indexed by budget scale."""

    k: int
    eps: float
    config: TesterConfig

    def __call__(self, scale: float) -> PairedClosenessTester:
        return PairedClosenessTester(self.k, self.eps, self.config.scaled(scale))


def _default_workloads(
    n: int, k: int, eps: float
) -> tuple[Callable, Callable]:
    return StaircaseWorkload(n, k), FarFromHkWorkload(n, k, eps)


def _default_paired_workloads(
    n: int, k: int, eps: float
) -> tuple[Callable, Callable]:
    """Default closeness sides: identical staircases / exact-ε shifted pair."""
    return (
        BoundPairedWorkload("identical-staircase", n, k, eps),
        BoundPairedWorkload("shifted-staircase", n, k, eps),
    )


class SweepTask(NamedTuple):
    """What a sweep ``task`` measures."""

    workloads: Callable  # (n, k, eps) -> (complete, far) default factories
    family: Callable  # (k, eps, config, backend) -> tester family
    label: Callable  # (instance, k) -> (lower, upper) ground-truth distance
    budget: Callable  # (n, k, eps, config, backend) -> closed-form sample budget


#: Identity sweeps label each side with certified ``dTV(·, H_k)`` bounds;
#: closeness sweeps with the pair's exact, closed-form ``dTV(p, q)``.
TASKS = {
    "identity": SweepTask(
        _default_workloads,
        HistogramTesterFamily,
        ground_truth_bounds,
        lambda n, k, eps, config, backend: backend_budget(backend, n, k, eps, config),
    ),
    "closeness": SweepTask(
        _default_paired_workloads,
        lambda k, eps, config, backend: ClosenessTesterFamily(k, eps, config),
        lambda pair, k: (pair_ground_truth(*pair),) * 2,
        lambda n, k, eps, config, backend: closeness_budget(n, k, eps, config),
    ),
}


def sweep_task(task: str) -> SweepTask:
    """The :class:`SweepTask` of ``task`` (``ValueError`` when unknown)."""
    if task not in TASKS:
        raise ValueError(f"task must be one of {tuple(TASKS)}, got {task!r}")
    return TASKS[task]


#: Seed-stream tag for ground-truth labelling generators.  Labels get their
#: own deterministic streams (tag + point index) so turning them on never
#: consumes from — or reorders — the per-point trial streams, keeping
#: labelled sweeps byte-identical to unlabelled ones.
_LABEL_STREAM_TAG = 0x6C61_62656C  # b"label"


def _label_point(
    point: SweepPoint,
    make_workloads: Callable[[int, int, float], tuple[Callable, Callable]],
    index: int,
    task: str = "identity",
) -> dict[str, dict[str, float]]:
    """Ground-truth labels for one instance of each workload side."""
    label = sweep_task(task).label
    complete, far = make_workloads(point.n, point.k, point.eps)
    labels: dict[str, dict[str, float]] = {}
    for side, factory in (("complete", complete), ("far", far)):
        gen = np.random.default_rng([_LABEL_STREAM_TAG, index])
        lower, upper = label(factory(gen), point.k)
        labels[side] = {"lower": lower, "upper": upper}
    return labels


def sweep_fingerprint(
    axis: str,
    values: Sequence[float],
    *,
    n: int,
    k: int,
    eps: float,
    trials: int,
    bisection_steps: int,
    config: TesterConfig,
    backend: str,
    seed: int,
    task: str = "identity",
) -> dict[str, Any]:
    """The canonical parameter fingerprint of a sweep.

    The identity a results store (:mod:`repro.distributed`) is bound to,
    computed by :meth:`~repro.distributed.spec.SweepSpec.fingerprint`, so a
    :func:`complexity_sweep` checkpoint and a distributed fleet sweep of
    the same parameters bind the same store.  The backend enters: it
    changes budgets and verdicts.

    ``task`` ("identity" | "closeness") is likewise fingerprint-bearing:
    identity and closeness sweeps draw different streams and measure
    different testers, so a checkpoint or results-store shard of one must
    never be spliced into the other even when every numeric knob matches.
    """
    sweep_task(task)
    return {
        "task": task,
        "axis": axis,
        "values": [float(v) for v in values],
        "n": n,
        "k": k,
        "eps": eps,
        "trials": trials,
        "bisection_steps": bisection_steps,
        "config": asdict(config),
        "backend": backend,
        "seed": seed,
    }


#: Exactly the keys a serialised :class:`SweepPoint` may carry.
_POINT_KEYS = frozenset({"n", "k", "eps", "estimate"})
_ESTIMATE_KEYS = frozenset(ComplexityEstimate.__dataclass_fields__)


def _point_to_json(point: SweepPoint) -> dict[str, Any]:
    return {
        "n": point.n,
        "k": point.k,
        "eps": point.eps,
        "estimate": asdict(point.estimate),
    }


def _point_from_json(data: dict[str, Any]) -> SweepPoint:
    """Rebuild a :class:`SweepPoint`, rejecting malformed checkpoints.

    Unknown keys mean the checkpoint was written by a different (or
    tampered) schema; splicing it in silently could corrupt a resumed
    sweep, so fail loudly instead.
    """
    if not isinstance(data, dict):
        raise ValueError(f"sweep point must be an object, got {type(data).__name__}")
    extra = set(data) - _POINT_KEYS
    missing = _POINT_KEYS - set(data)
    if extra or missing:
        raise ValueError(
            f"malformed sweep point: unknown keys {sorted(extra)}, "
            f"missing keys {sorted(missing)}"
        )
    estimate = data["estimate"]
    if not isinstance(estimate, dict):
        raise ValueError("sweep point 'estimate' must be an object")
    if set(estimate) != _ESTIMATE_KEYS:
        raise ValueError(
            "malformed complexity estimate: unknown keys "
            f"{sorted(set(estimate) - _ESTIMATE_KEYS)}, missing keys "
            f"{sorted(_ESTIMATE_KEYS - set(estimate))}"
        )
    return SweepPoint(
        n=int(data["n"]),
        k=int(data["k"]),
        eps=float(data["eps"]),
        estimate=ComplexityEstimate(**estimate),
    )


def point_instance(
    axis: str, value: float, n: int, k: int, eps: float
) -> tuple[int, int, float]:
    """The ``(n, k, ε)`` instance of the sweep point with ``axis`` at ``value``."""
    if axis == "n":
        return int(value), k, eps
    if axis == "k":
        return n, int(value), eps
    return n, k, float(value)


def measure_point(
    axis: str,
    value: float,
    stream: np.random.Generator,
    *,
    n: int,
    k: int,
    eps: float,
    config: TesterConfig,
    trials: int,
    bisection_steps: int,
    backend: str = DEFAULT_BACKEND,
    task: str = "identity",
    workloads: Callable[[int, int, float], tuple[Callable, Callable]] | None = None,
    policy: TrialPolicy | None = None,
    trace: Tracer = NULL_TRACER,
) -> SweepPoint:
    """Measure one sweep point (``axis`` set to ``value``) from ``stream``.

    The one per-point body behind every sweep executor: the serial loop of
    :func:`complexity_sweep` calls it directly, and
    :func:`repro.distributed.spec.run_shard` calls it under a recording
    tracer, so a point and its ``point`` sub-trace are byte-identical
    whichever executor computed them.
    """
    cur_n, cur_k, cur_eps = point_instance(axis, value, n, k, eps)
    spec = sweep_task(task)
    make_workloads = workloads if workloads is not None else spec.workloads
    complete, far = make_workloads(cur_n, cur_k, cur_eps)
    family = spec.family(cur_k, cur_eps, config, backend)
    with trace.span(
        "point", axis=axis, value=float(value), n=cur_n, k=cur_k, eps=cur_eps
    ):
        estimate = empirical_sample_complexity(
            family,
            complete=complete,
            far=far,
            trials=trials,
            bisection_steps=bisection_steps,
            rng=stream,
            policy=policy,
            trace=trace,
        )
    return SweepPoint(n=cur_n, k=cur_k, eps=cur_eps, estimate=estimate)


def complexity_sweep(
    axis: str,
    values: Sequence[float],
    *,
    n: int = 4000,
    k: int = 4,
    eps: float = 0.3,
    config: TesterConfig | None = None,
    trials: int = 9,
    bisection_steps: int = 5,
    workloads: Callable[[int, int, float], tuple[Callable, Callable]] | None = None,
    rng: RandomState = None,
    checkpoint: "str | os.PathLike | None" = None,
    resume: bool = True,
    policy: TrialPolicy | None = None,
    backend: str = DEFAULT_BACKEND,
    task: str = "identity",
    label_ground_truth: bool = False,
    trace: Tracer = NULL_TRACER,
) -> SweepResult:
    """Sweep one axis (``"n"``, ``"k"`` or ``"eps"``) of the tester's
    empirical sample complexity; other parameters stay fixed.

    ``task`` selects the tester under measurement: ``"identity"`` (the
    default — Algorithm 1's one-sample membership tester) or
    ``"closeness"`` (the two-sample DKN17 tester; workload factories then
    return ``(p, q)`` pairs and the "complete"/"far" sides become
    "p = q" / "dTV(p, q) ≥ ε").  The task is part of the checkpoint
    fingerprint, so identity and closeness checkpoints never cross-resume.

    ``workloads(n, k, eps) -> (complete_factory, far_factory)`` customises
    the instances (defaults: staircase / certified sawtooth for identity;
    identical-staircase / shifted-staircase pairs for closeness).

    ``checkpoint`` names a sqlite results store
    (:class:`~repro.distributed.store.ResultsStore`, the format distributed
    sweeps use) that every completed point is committed to, with its
    sub-trace.  With ``resume=True`` (the default) an existing store of
    this sweep is continued point by point — per-point RNG streams are
    spawned identically on every run, so a resumed sweep reproduces the
    uninterrupted result and trace exactly — and a store bound to a
    different parameter fingerprint is refused with
    :class:`~repro.distributed.store.StoreError`.  With ``resume=False``
    any existing store is deleted first.  Checkpointing requires a
    reproducible integer seed for ``rng``.

    ``policy`` opts every trial loop into fault isolation (see
    :class:`~repro.robustness.resilience.TrialPolicy`).

    This loop runs every point in this process, one after another.  To
    run points in parallel, drain a store with a fleet of worker processes
    (:func:`repro.distributed.distributed_sweep`, ``repro sweep --store
    PATH --worker-procs N``): a point is computed by the same
    :func:`measure_point` on the same stream whichever process runs it, so
    the fleet's result, trace and store are byte-identical to this loop's,
    and a checkpoint written by either executor resumes under the other.

    ``backend`` selects the tester backend ("pods16" | "cdkl22").  It
    changes measured budgets and (on marginal inputs) verdicts, so it
    **is** part of the checkpoint fingerprint: a checkpoint written under
    one backend never resumes under the other.

    ``label_ground_truth`` additionally computes certified
    ``dTV(·, H_k)`` bounds for one representative complete/far instance per
    sweep point (memoized via
    :func:`repro.experiments.workloads.ground_truth_bounds`).  Labels ride
    on :attr:`SweepResult.ground_truth` only: they use their own fixed seed
    stream, never enter checkpoints, and leave the parameter fingerprint
    and per-point trial streams untouched, so labelled and unlabelled runs
    of the same sweep are byte-identical point for point.

    ``trace`` (default: no-op) records one span per sweep point, per
    bisection evaluation, and per trial.  A checkpointed sweep replays each
    point's stored sub-trace, so a resumed or fleet-drained sweep traces
    every point too, byte-identically after stripping wall-clock fields.
    """
    if axis not in ("n", "k", "eps"):
        raise ValueError(f"axis must be one of n/k/eps, got {axis!r}")
    if not values:
        raise ValueError("need at least one axis value")
    spec = sweep_task(task)
    if config is None:
        config = TesterConfig.practical()
    validate_backend(backend)
    make_workloads = workloads if workloads is not None else spec.workloads

    if checkpoint is None:
        streams = spawn_rngs(rng, len(values))
        result = SweepResult.fit(
            axis,
            [
                measure_point(
                    axis, value, stream, n=n, k=k, eps=eps, config=config,
                    trials=trials, bisection_steps=bisection_steps,
                    backend=backend, task=task, workloads=workloads,
                    policy=policy, trace=trace,
                )
                for value, stream in zip(values, streams)
            ],
        )
    else:
        # Lazy: repro.distributed imports this module.
        from repro.distributed import SweepSpec, assemble, create_store, run_shard

        sweep = SweepSpec(
            axis=axis, values=tuple(values), n=n, k=k, eps=eps, trials=trials,
            bisection_steps=bisection_steps, seed=rng, backend=backend,
            task=task, config=config,
        )
        store = create_store(checkpoint, sweep, resume=resume)
        try:
            committed = {row.index for row in store.results()}
            for shard in sweep.shards():
                if shard.index in committed:
                    continue
                # No lease: this run is the store's only writer, so a killed
                # run leaves nothing to expire, and a lease-less commit is
                # first-writer-wins like any other.
                run_shard(
                    sweep, shard.index, workloads=workloads, policy=policy
                ).commit(store, shard.shard_id, "serial")
            result = assemble(store, trace=trace)
        finally:
            store.close()

    if label_ground_truth:
        result = replace(
            result,
            ground_truth=[
                _label_point(point, make_workloads, index, task)
                for index, point in enumerate(result.points)
            ],
        )
    return result
