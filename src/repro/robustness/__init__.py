"""Fault injection and fault handling, in one place.

Two pillars, exercised by experiment E20, the robust trial runner in
:mod:`repro.experiments.runner`, the serve layer and the sweep workers:

* :mod:`repro.robustness.faults` — corrupted sample streams (Huber
  contamination, out-of-domain samples, stale reads, scheduled failures);
* :mod:`repro.robustness.resilience` — bounded deterministic retry,
  circuit breakers (one per serve source, one per sweep worker),
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
    CircuitBreaker,
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
    "CircuitBreaker",
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
