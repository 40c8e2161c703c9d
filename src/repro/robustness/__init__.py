"""Fault-tolerant experiment execution.

Two pillars, each exercised by experiment E20 and the robust trial runner
in :mod:`repro.experiments.runner`:

* :mod:`repro.robustness.faults` — corrupted sample streams (Huber
  contamination, out-of-domain samples, stale reads, scheduled failures);
* :mod:`repro.robustness.resilience` — bounded deterministic retry,
  wall-clock deadlines, structured trial-failure isolation.

Long-running sweeps checkpoint into the sqlite results store of
:mod:`repro.distributed.store`.
"""

from repro.robustness.faults import (
    CorruptSampleError,
    FaultConfig,
    FaultInjectingSource,
    InjectedStreamFailure,
)
from repro.robustness.resilience import (
    ISOLATED_ERRORS,
    TRANSIENT_ERRORS,
    Deadline,
    DeadlineSource,
    RetryPolicy,
    TooManyTrialFailures,
    TrialFailure,
    TrialPolicy,
    TrialTimeout,
    run_with_retry,
)

__all__ = [
    "ISOLATED_ERRORS",
    "TRANSIENT_ERRORS",
    "CorruptSampleError",
    "Deadline",
    "DeadlineSource",
    "FaultConfig",
    "FaultInjectingSource",
    "InjectedStreamFailure",
    "RetryPolicy",
    "TooManyTrialFailures",
    "TrialFailure",
    "TrialPolicy",
    "TrialTimeout",
    "run_with_retry",
]
