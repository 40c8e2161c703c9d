"""The trial-execution engine: serial or process-pool backends.

Contract
--------

A *trial procedure* is a picklable callable ``procedure(index, seed) ->
TrialOutcome`` that must be a pure function of its arguments (all
randomness flows through ``seed``, a :class:`numpy.random.SeedSequence`).
:func:`run_trials` maps a procedure over a pre-spawned seed list and
returns outcomes **in trial order**, regardless of completion order, so
any aggregation the caller performs (counts, float sums) is bit-identical
between backends and across worker counts.

Fault model
-----------

Python-level exceptions inside a trial are the *procedure's* business —
the robust runner catches its isolatable errors itself and returns them
inside the :class:`TrialOutcome`.  The engine handles the one failure a
procedure cannot: the worker process dying outright (segfault, OOM kill,
``os._exit``).  A dead worker breaks the whole pool, taking every pending
future with it, so the engine re-runs each affected trial alone in a
fresh single-worker pool: innocent trials recover their exact results
(procedures are deterministic in ``seed``), and the genuinely crashing
trial is either surfaced as a :class:`TrialOutcome` carrying a
``WorkerCrash`` :class:`~repro.robustness.resilience.TrialFailure`
(``isolate_crashes=True``, the robust path) or raised as
:class:`ParallelExecutionError` (the plain path).  A dead worker is a
recorded failure, never a hung sweep.

A procedure that cannot be pickled (a lambda or a closure over local
state) cannot reach the process backend, so asking for ``workers ≥ 2``
with one raises :class:`TypeError` naming it; the serial backend (one
worker, or a single task) runs any callable.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.robustness.resilience import TrialFailure

#: ``procedure(index, payload) -> TrialOutcome`` — the batch-first contract:
#: must be picklable for the process backend and deterministic given its
#: payload (all randomness flows through the payload, never ambient state).
TaskProcedure = Callable[[int, Any], "TrialOutcome"]

#: ``procedure(index, seed) -> TrialOutcome`` — the seed-stream special case
#: of :data:`TaskProcedure` used by repeated-trial estimates.
TrialProcedure = Callable[[int, np.random.SeedSequence], "TrialOutcome"]


class ParallelExecutionError(RuntimeError):
    """A worker process died and the caller did not opt into isolation."""

    def __init__(self, trial: int, detail: str) -> None:
        super().__init__(
            f"worker process died while executing trial {trial}: {detail or 'no detail'}"
            " — run serially to debug, or use the fault-isolating runner"
        )
        self.trial = trial


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one trial: a payload on success, a failure record otherwise.

    ``trace``, when a procedure collects one, is the trial's exported event
    stream (plain dicts — picklable across the process boundary).  The
    caller absorbs these **in trial order**, so an assembled trace is
    byte-identical between the serial and process backends.
    """

    index: int
    value: Any = None
    failure: TrialFailure | None = None
    trace: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def crash_failure(trial: int, detail: str = "") -> TrialFailure:
    """The structured record for a trial whose worker process died."""
    return TrialFailure(
        trial=trial,
        error_type="WorkerCrash",
        message=detail or "worker process terminated abruptly",
        attempts=1,
        elapsed=0.0,
    )


def default_worker_count() -> int:
    """Worker count used for ``workers=0`` ("auto"): one per CPU."""
    return max(1, os.cpu_count() or 1)


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` knob into an effective worker count.

    ``None`` and ``1`` select the serial backend; ``0`` means "auto" (one
    worker per CPU); any other positive integer is taken literally.
    """
    if workers is None:
        return 1
    if not isinstance(workers, (int, np.integer)) or isinstance(workers, bool):
        raise TypeError(f"workers must be an int or None, got {workers!r}")
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    if workers == 0:
        return default_worker_count()
    return int(workers)


def _run_serial(
    procedure: TaskProcedure, payloads: Sequence[Any]
) -> list[TrialOutcome]:
    return [procedure(index, payload) for index, payload in enumerate(payloads)]


def _rerun_isolated(
    procedure: TaskProcedure,
    index: int,
    payload: Any,
    isolate_crashes: bool,
) -> TrialOutcome:
    """Re-run one suspect trial alone in a fresh single-worker pool.

    After a pool break every pending trial looks guilty; giving each its
    own process acquits the innocent (deterministic procedures reproduce
    their exact result) and convicts the crasher without collateral.
    """
    with ProcessPoolExecutor(max_workers=1) as solo:
        future = solo.submit(procedure, index, payload)
        try:
            return future.result()
        except BrokenProcessPool as exc:
            if not isolate_crashes:
                raise ParallelExecutionError(index, str(exc)) from exc
            return TrialOutcome(index=index, failure=crash_failure(index, str(exc)))


def run_tasks(
    procedure: TaskProcedure,
    payloads: Sequence[Any],
    *,
    workers: int | None = None,
    isolate_crashes: bool = False,
) -> list[TrialOutcome]:
    """Execute ``procedure`` over arbitrary payloads, outcomes in task order.

    The batch-first executor: a payload can be a seed, a session batch, or
    any picklable work description.  ``workers`` selects the backend (see
    :func:`resolve_workers`); more than one worker needs a picklable
    ``procedure`` (:class:`TypeError` otherwise).  With
    ``isolate_crashes=True`` a dead worker yields a ``WorkerCrash``
    :class:`TrialOutcome` for the task it was running; otherwise it raises
    :class:`ParallelExecutionError`.  Either way the surviving tasks'
    results are identical to a serial run.
    """
    count = resolve_workers(workers)
    payloads = list(payloads)
    if count <= 1 or len(payloads) <= 1:
        return _run_serial(procedure, payloads)
    try:
        pickle.dumps(procedure)
    except Exception as exc:  # pickle raises a zoo of types
        raise TypeError(
            f"trial procedure {procedure!r} is not picklable, so it cannot run "
            f"on {count} worker processes ({exc!r}); pass a module-level "
            "callable or workers=1"
        ) from exc

    results: list[TrialOutcome | None] = [None] * len(payloads)
    suspects: list[int] = []
    with ProcessPoolExecutor(max_workers=min(count, len(payloads))) as pool:
        futures = {}
        try:
            for index, payload in enumerate(payloads):
                futures[pool.submit(procedure, index, payload)] = index
        except BrokenProcessPool:
            suspects.extend(range(len(futures), len(payloads)))
        futures_wait(list(futures))
        for future, index in futures.items():
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                suspects.append(index)
    for index in sorted(suspects):
        results[index] = _rerun_isolated(
            procedure, index, payloads[index], isolate_crashes
        )
    assert all(outcome is not None for outcome in results)
    return results  # type: ignore[return-value]


def run_trials(
    procedure: TrialProcedure,
    seeds: Sequence[np.random.SeedSequence],
    *,
    workers: int | None = None,
    isolate_crashes: bool = False,
) -> list[TrialOutcome]:
    """Execute ``procedure`` over ``seeds``, returning outcomes in trial order.

    The seed-stream wrapper over :func:`run_tasks` used by repeated-trial
    estimates: each payload is one trial's pre-spawned
    :class:`numpy.random.SeedSequence`.
    """
    return run_tasks(
        procedure, seeds, workers=workers, isolate_crashes=isolate_crashes
    )
