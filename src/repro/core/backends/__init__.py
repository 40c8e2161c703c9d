"""Tester backend registry.

The repo ships two implementations of the histogram-testing decision
procedure, selected by the ``backend=`` knob that every identity entry
point (:func:`~repro.core.tester.test_histogram`, the stepped
:class:`~repro.core.tester.TesterPipeline`, ``select_k``, sweeps, the serve
layer, the CLI) threads through:

* ``pods16`` — Algorithm 1 of the source paper (partition → learn → sieve →
  check → final χ² at ``ε' = 13ε/30``).  The fidelity reference: its budget
  and behaviour match the paper's analysis stage for stage.
* ``cdkl22`` — the near-optimal tester in the style of the follow-up work
  the corrigendum points at (Canonne–Diakonikolas–Kane–Liu, arXiv:2207.06596),
  built on the *same* partition/learner/projection/χ² substrate: a
  testing-by-learning reduction with no sieve, a trimmed final statistic,
  and an adaptive two-stage sample schedule.  See
  :mod:`repro.core.backends.cdkl22`.

Both run on the one stepped driver of :mod:`repro.core.pipeline`.  A
backend is a *strategy* class the identity pipeline consults for exactly
the steps that differ: ``budget(n, k, eps, config)``;
``learner_samples(config, intervals, eps)``; ``skip_sieve`` (``None``, or
why there is no sieve stage); the gate ``check(pipeline, span)`` — via
``check_oracle`` (a bool) or ``project_oracle`` (a projection) — which sets
``pipeline.reference`` and returns a rejection reason or ``None``;
``plan_final_test(pipeline)`` → ``(ε', reference pmf, active mask)``; and
``statistic(pipeline, z, plan)`` → ``(statistic, span attrs, reason
prefix)`` with its rule ``escalate(pipeline, plan, statistic, threshold)``
→ an escalated plan, or ``None`` to decide now.

Unlike the projection ``engine`` knob (execution-only, fingerprint-exempt),
the backend changes sample budgets and — on marginal inputs — verdicts, so
it **is** part of experiment checkpoint fingerprints.
"""

from __future__ import annotations

from repro.core.backends.cdkl22 import Cdkl22
from repro.core.backends.pods16 import Pods16
from repro.core.config import TesterConfig

STRATEGIES = {strategy.name: strategy for strategy in (Pods16, Cdkl22)}
BACKENDS = tuple(STRATEGIES)
DEFAULT_BACKEND = "pods16"


def validate_backend(backend: str) -> str:
    """Return ``backend`` if known, raise ``ValueError`` otherwise."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


def backend_strategy(backend: str):
    """The strategy class of a known ``backend`` (``ValueError`` otherwise)."""
    return STRATEGIES[validate_backend(backend)]


def backend_budget(
    backend: str, n: int, k: int, eps: float, config: TesterConfig | None = None
) -> float:
    """Worst-case sample budget of ``backend`` on an ``(n, k, ε)`` instance.

    Single dispatch point so admission control, ledger caps, and the budget
    experiments all price a backend identically.
    """
    return backend_strategy(backend).budget(n, k, eps, config)
