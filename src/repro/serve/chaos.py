"""Deterministic fault-schedule replay for service drills.

``repro serve --chaos`` and the E24 soak benchmark need *reproducible*
adversity: a request population where a configured fraction of sessions
carries a fault, the faults cover every failure mode the service claims to
survive, and the whole schedule is a pure function of the seed.  No
randomness is sampled at service time — every fault is baked into the
:class:`~repro.serve.session.StreamRequest` list up front, so two runs of
the same :class:`ChaosConfig` exercise byte-identical schedules.

Fault kinds cycle deterministically over the faulty sessions:

* ``stream``        — a seeded schedule of injected draw-call failures
  (transient; exercises retry + the circuit breaker — these sessions all
  share the ``flaky`` source);
* ``contamination`` — Huber mixture at 5% (the tester should usually still
  reach a verdict; exercises verdict robustness, not the failure paths);
* ``corruption``    — out-of-domain samples (raises on count draws;
  exercises retry and eviction);
* ``timeout``       — a deadline in virtual ticks too tight for the final
  test (exercises eviction and the partial-pipeline degradation);
* ``projection``    — an injected fast-engine failure in the check stage
  (exercises the dense fallback → DEGRADED path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.backends import BACKENDS, validate_backend
from repro.experiments.workloads import make
from repro.robustness.faults import FaultConfig
from repro.serve.session import StreamRequest

FAULT_KINDS = ("stream", "contamination", "corruption", "timeout", "projection")


@dataclass(frozen=True)
class ChaosConfig:
    """Parameters of one deterministic chaos drill."""

    sessions: int = 40
    n: int = 512
    k: int = 4
    eps: float = 0.3
    fault_rate: float = 0.1
    seed: int = 0
    workloads: tuple = ("staircase", "random-histogram", "uniform", "zipf")
    #: Healthy sessions are spread over this many sources; all ``stream``
    #: fault sessions share one extra ``flaky`` source so repeated failures
    #: there actually trip its breaker.
    healthy_sources: int = 3
    #: Virtual-tick deadline given to ``timeout`` fault sessions (each draw
    #: call reads the virtual clock once, so single digits expire mid-run).
    timeout_ticks: int = 5
    #: Tester backend for the population: one of the registered backends,
    #: or ``"mixed"`` to alternate per session (exercising the same-shape,
    #: different-backend batch-grouping path).
    backend: str = "pods16"

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError(f"sessions must be ≥ 1, got {self.sessions}")
        if self.backend != "mixed":
            validate_backend(self.backend)
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {self.fault_rate}")
        if self.healthy_sources < 1:
            raise ValueError("healthy_sources must be ≥ 1")


def build_requests(config: ChaosConfig) -> list:
    """The deterministic request population for one drill.

    Session ``i`` is faulty iff ``i`` is one of the
    ``round(sessions × fault_rate)`` indices evenly spread over the
    population; its fault kind cycles through :data:`FAULT_KINDS`.  All
    per-session randomness (workload instance parameters) flows through
    ``SeedSequence(config.seed, spawn_key=(i,))``.
    """
    faulty_count = int(round(config.sessions * config.fault_rate))
    stride = config.sessions / faulty_count if faulty_count else 0.0
    faulty_indices = {int(j * stride) for j in range(faulty_count)}

    requests: list[StreamRequest] = []
    fault_cursor = 0
    for i in range(config.sessions):
        workload = config.workloads[i % len(config.workloads)]
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(i,)))
        dist = make(workload, config.n, config.k, config.eps, rng=rng)
        faults = None
        deadline_ticks = None
        projection_fault = False
        source_id = f"src-{i % config.healthy_sources}"
        if i in faulty_indices:
            kind = FAULT_KINDS[fault_cursor % len(FAULT_KINDS)]
            fault_cursor += 1
            if kind == "stream":
                source_id = "flaky"
                faults = FaultConfig().with_failure_schedule(
                    seed=config.seed + i, mean_interval=3.0, horizon=64
                )
            elif kind == "contamination":
                faults = FaultConfig(contamination_rate=0.05)
            elif kind == "corruption":
                faults = FaultConfig(out_of_domain_rate=0.01)
            elif kind == "timeout":
                deadline_ticks = config.timeout_ticks
            else:  # projection
                projection_fault = True
        backend = (
            BACKENDS[i % len(BACKENDS)] if config.backend == "mixed" else config.backend
        )
        requests.append(
            StreamRequest(
                request_id=f"chaos-{i:04d}",
                dist=dist,
                k=config.k,
                eps=config.eps,
                seed=config.seed * 1_000_003 + i,
                source_id=source_id,
                faults=faults,
                deadline_ticks=deadline_ticks,
                projection_fault=projection_fault,
                backend=backend,
            )
        )
    return requests
