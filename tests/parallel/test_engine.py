"""Tests for the parallel trial-execution engine."""

import os

import numpy as np
import pytest

from repro.parallel.engine import (
    ParallelExecutionError,
    TrialOutcome,
    crash_failure,
    default_worker_count,
    resolve_workers,
    run_trials,
)
from repro.util.rng import seed_sequence_root, spawn_seed_sequences


class DrawOne:
    """Picklable procedure: one uniform draw from the trial's stream."""

    def __call__(self, index, seed):
        gen = np.random.default_rng(seed)
        return TrialOutcome(index=index, value=float(gen.random()))


class CrashOn:
    """Picklable procedure that kills its worker process on one trial."""

    def __init__(self, crash_index):
        self.crash_index = crash_index

    def __call__(self, index, seed):
        if index == self.crash_index and os.getpid() != CrashOn._main_pid:
            os._exit(17)
        gen = np.random.default_rng(seed)
        return TrialOutcome(index=index, value=float(gen.random()))


# Recorded at import so a serial fallback never kills the test process.
CrashOn._main_pid = os.getpid()


class Raises:
    def __call__(self, index, seed):
        raise RuntimeError(f"boom {index}")


class TestResolveWorkers:
    def test_none_and_one_are_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1

    def test_zero_is_auto(self):
        assert resolve_workers(0) == default_worker_count() >= 1

    def test_explicit_count(self):
        assert resolve_workers(3) == 3

    def test_numpy_integer_accepted(self):
        assert resolve_workers(np.int64(2)) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            resolve_workers("4")
        with pytest.raises(TypeError):
            resolve_workers(True)


class TestSeedStreams:
    def test_int_root_reproducible(self):
        a = spawn_seed_sequences(5, 4)
        b = spawn_seed_sequences(5, 4)
        assert [s.entropy for s in a] == [s.entropy for s in b]
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]

    def test_generator_root_advances(self):
        gen = np.random.default_rng(0)
        a = spawn_seed_sequences(gen, 2)
        b = spawn_seed_sequences(gen, 2)
        draws_a = [np.random.default_rng(s).random() for s in a]
        draws_b = [np.random.default_rng(s).random() for s in b]
        assert draws_a != draws_b

    def test_streams_are_independent(self):
        draws = [np.random.default_rng(s).random() for s in spawn_seed_sequences(1, 5)]
        assert len(set(draws)) == 5

    def test_seed_sequence_passthrough(self):
        root = np.random.SeedSequence(9)
        assert seed_sequence_root(root) is root

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seed_sequences(0, -1)


class TestRunTrials:
    def test_serial_order(self):
        out = run_trials(DrawOne(), spawn_seed_sequences(0, 5))
        assert [o.index for o in out] == list(range(5))
        assert all(o.ok for o in out)

    def test_parallel_matches_serial_exactly(self):
        seeds = spawn_seed_sequences(7, 9)
        serial = run_trials(DrawOne(), seeds)
        for workers in (2, 4):
            parallel = run_trials(DrawOne(), seeds, workers=workers)
            assert parallel == serial

    def test_empty_and_single(self):
        assert run_trials(DrawOne(), []) == []
        out = run_trials(DrawOne(), spawn_seed_sequences(0, 1), workers=4)
        assert len(out) == 1

    def test_unpicklable_procedure_raises(self):
        procedure = lambda i, s: TrialOutcome(index=i, value=i)  # noqa: E731
        with pytest.raises(TypeError, match="<lambda>.* is not picklable"):
            run_trials(procedure, spawn_seed_sequences(0, 4), workers=2)
        # The serial backend never pickles, so it still runs any callable.
        out = run_trials(procedure, spawn_seed_sequences(0, 4), workers=1)
        assert [o.value for o in out] == [0, 1, 2, 3]

    def test_procedure_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_trials(Raises(), spawn_seed_sequences(0, 3), workers=2)

    def test_worker_crash_isolated(self):
        seeds = spawn_seed_sequences(3, 6)
        expected = run_trials(DrawOne(), seeds)
        out = run_trials(CrashOn(2), seeds, workers=3, isolate_crashes=True)
        crashed = [o for o in out if not o.ok]
        assert [o.index for o in crashed] == [2]
        assert crashed[0].failure.error_type == "WorkerCrash"
        # every surviving trial recovered its exact serial result
        for o in out:
            if o.ok:
                assert o.value == expected[o.index].value

    def test_worker_crash_raises_without_isolation(self):
        with pytest.raises(ParallelExecutionError) as info:
            run_trials(
                CrashOn(1), spawn_seed_sequences(3, 4), workers=2,
                isolate_crashes=False,
            )
        assert info.value.trial == 1

    def test_crash_failure_record(self):
        failure = crash_failure(5, "sig 9")
        assert failure.trial == 5
        assert failure.error_type == "WorkerCrash"
        assert "sig 9" in failure.message
