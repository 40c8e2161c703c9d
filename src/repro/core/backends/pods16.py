"""The PODS'16 backend — Algorithm 1 of the source paper.

The stages live in :mod:`repro.core.pipeline` and :mod:`repro.core.tester`,
the closed-form budget in :mod:`repro.core.budget`; this strategy fills in
the backend-specific steps: the ``ε/40`` learner, the sieve, the yes/no
Step-10 check against ``D̂``, and the plain χ² sum at ``ε' = 13ε/30`` on the
kept domain.
"""

from __future__ import annotations

import numpy as np

from repro.core.budget import algorithm1_budget
from repro.core.chi2 import active_mask
from repro.core.config import TesterConfig
from repro.distributions.projection import exists_close_histogram


class Pods16:
    """Algorithm 1 verbatim (see :mod:`repro.core.backends` for the surface)."""

    name = "pods16"
    budget = staticmethod(algorithm1_budget)
    #: The backend sieves (``None``: no reason to skip it).
    skip_sieve = None

    learner_samples = staticmethod(TesterConfig.learner_samples)

    @staticmethod
    def check(pipeline, span) -> str | None:
        """Step 10: is some ``D* ∈ H_k`` within ``ε/60`` of ``D̂`` on the
        kept domain?  The final test then runs against ``D̂`` itself."""
        tolerance = pipeline.config.check_tolerance(pipeline.eps)
        close = exists_close_histogram(
            pipeline.learned.to_pmf(),
            pipeline.partition,
            pipeline.k,
            pipeline.sieve.kept,
            tolerance,
        )
        span.set(close=bool(close))
        pipeline.reference = pipeline.learned
        if close:
            return None
        return (
            f"no k-histogram within {tolerance:.4g} "
            "of the learned distribution on the kept domain"
        )

    @staticmethod
    def plan_final_test(pipeline) -> tuple[float, np.ndarray, np.ndarray]:
        """``(ε', reference pmf, active mask)``: ``D̂`` restricted to the
        kept domain at ``ε' = 13ε/30``."""
        eps_final = pipeline.config.final_eps(pipeline.eps)
        kept_points = pipeline.partition.restrict_mask(np.flatnonzero(pipeline.sieve.kept))
        ref = pipeline.reference.to_pmf()
        mask = active_mask(ref, eps_final, pipeline.config.chi2_truncation, kept_points)
        return eps_final, ref, mask

    @staticmethod
    def statistic(pipeline, z: np.ndarray, plan) -> tuple[float, dict, str]:
        """``(statistic, span attrs, reason prefix)``: the plain sum."""
        statistic = float(z.sum())
        return statistic, {}, f"final χ² statistic {statistic:.4g}"

    @staticmethod
    def escalate(pipeline, plan, statistic: float, threshold: float):
        """Algorithm 1 always decides in one batch."""
        return None
