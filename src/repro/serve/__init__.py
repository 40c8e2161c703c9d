"""The always-on service layer: many concurrent test sessions, one core.

``repro.serve`` multiplexes long-lived streams of "is my traffic still a
k-histogram?" queries over the batch-first tester core
(:class:`repro.core.tester.TesterPipeline`):

* :mod:`repro.serve.session` — the per-stream state machine
  (ACCEPTED → SAMPLING → VERDICT / DEGRADED / EVICTED) with per-attempt
  sample ledgers and a session-scoped deadline;
* :mod:`repro.serve.admission` — the global in-flight budget
  (sessions × samples) with token-bucket refill, a bounded wait queue, and
  deterministic load shedding;
* :mod:`repro.serve.breaker` — per-source circuit breakers with scheduled
  re-probes;
* :mod:`repro.serve.batch` — the vectorized final-test executor
  (streams × repeats × domain matrices through one χ² kernel call);
* :mod:`repro.serve.service` — the round-driven event loop tying the above
  together, with retry, circuit breaking and graceful degradation (each
  session calls the projection oracles directly);
* :mod:`repro.serve.chaos` — deterministic fault-schedule replay for the
  ``repro serve --chaos`` drill and the E24 soak benchmark.

Everything is deterministic under a fixed seed: time is virtual (a step
clock advanced by deadline checks and backoff sleeps), per-attempt RNG
streams are spawned from the request seed, and retry jitter is seeded —
two runs of the same request set produce byte-identical reports.
"""

from repro.serve.admission import AdmissionConfig, AdmissionController, Rejection
from repro.serve.batch import compute_final_statistics
from repro.serve.breaker import CircuitBreaker
from repro.serve.chaos import ChaosConfig, build_requests
from repro.serve.service import ServiceConfig, ServiceReport, TesterService
from repro.serve.session import SessionOutcome, SessionState, StreamRequest, StreamSession

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "ChaosConfig",
    "CircuitBreaker",
    "Rejection",
    "ServiceConfig",
    "ServiceReport",
    "SessionOutcome",
    "SessionState",
    "StreamRequest",
    "StreamSession",
    "TesterService",
    "build_requests",
    "compute_final_statistics",
]
