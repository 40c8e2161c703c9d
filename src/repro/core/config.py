"""Constant profiles for Algorithm 1.

The paper states its algorithm with worst-case constants (e.g. the χ²
tester's ``m ≥ 20000·√n/ε²`` from [ADK15], ``b = 20·k·log k/ε``, learning
accuracy ``ε/60``).  Those make every stated guarantee hold verbatim but are
wildly conservative in practice.  :class:`TesterConfig` exposes every
constant; two built-in profiles are provided:

* :meth:`TesterConfig.paper` — the literal constants of the paper.  Use for
  fidelity checks; sample budgets are astronomically large but, since all
  testers operate on Poissonized/multinomial *count vectors*, still cheap to
  simulate.
* :meth:`TesterConfig.practical` — the calibrated profile used by the
  experiment suite.  Structure and threshold *ratios* are preserved (the
  completeness/soundness separation arguments go through with the same
  margins); only the absolute multipliers shrink.  `EXPERIMENTS.md` records
  the calibration reasoning.

Derived quantities (``b``, per-stage sample sizes, thresholds) are computed
by methods here so that every stage of the algorithm and the closed-form
budget module agree on a single source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


def _log2k(k: int) -> float:
    """``log₂ k`` clamped below at 1 (the paper treats small k separately)."""
    return max(1.0, math.log2(max(k, 2)))


@dataclass(frozen=True)
class TesterConfig:
    """Every tunable constant of Algorithm 1, with derived-size helpers."""

    profile: str
    #: ``b = partition_b_factor · k · log₂k / ε`` (paper: 20).
    partition_b_factor: float
    #: APPROXPART draws ``partition_sample_factor · b · ln(b + e)`` samples.
    partition_sample_factor: float
    #: Learning accuracy ``ε_learn = ε · learner_eps_fraction`` (paper: 1/60).
    learner_eps_fraction: float
    #: Learner draws ``learner_sample_factor · K / ε_learn²`` samples.
    learner_sample_factor: float
    #: χ² runs draw ``chi2_sample_factor · √n / param²`` (paper: 20000).
    chi2_sample_factor: float
    #: Final test accepts iff ``Z ≤ m · ε'² · chi2_accept_fraction``
    #: (between the 1/500 completeness and 1/5 soundness expectations).
    chi2_accept_fraction: float
    #: ``A_ε`` truncation: keep i with ``D̂(i) ≥ chi2_truncation · param / n``
    #: (paper: 1/50).
    chi2_truncation: float
    #: Final χ² test parameter ``ε' = final_eps_fraction · ε`` (paper: 13/30).
    final_eps_fraction: float
    #: Step-10 check tolerance ``check_tolerance_fraction · ε`` (paper: 1/60).
    check_tolerance_fraction: float
    #: Sieve scale ``α = sieve_alpha_fraction · ε`` (paper: "ε/C, C large").
    sieve_alpha_fraction: float
    #: Phase-A removal: ``Z_j > sieve_heavy_factor · m · α²`` (paper: 10).
    sieve_heavy_factor: float
    #: Phase-B early accept: ``Z < sieve_accept_factor · m · α²`` (paper: 10).
    sieve_accept_factor: float
    #: Phase-B removal target: keep ``Σ Z_j ≤ sieve_residual_factor · m·α²``
    #: (paper: 2).
    sieve_residual_factor: float
    #: Phase-B runs at most ``ceil(log₂ k) + 1`` rounds (scaled by this).
    sieve_rounds_factor: float
    #: Draw fresh samples for every sieve round (the corrigendum-safe mode);
    #: ``False`` reuses one batch across rounds (the paper-literal reading
    #: whose analysis the PODS'23 corrigendum flags).
    fresh_sieve_samples: bool
    #: Median-amplification repeats for each χ² statistic batch
    #: (``None`` → derive from ``δ = 1/(10(k+1))`` as in §3.2.1).
    chi2_repeats: int | None
    #: Global multiplier applied to every stage's sample size — the knob the
    #: empirical-sample-complexity experiments bisect over.
    budget_scale: float = 1.0
    #: Ablation switch: skip the sieving stage entirely (keep every
    #: interval).  This is the naive testing-by-learning pipeline whose
    #: completeness the paper's Section 1.3 predicts must fail on
    #: breakpoint-misaligned histograms — kept for experiment E15.
    sieve_enabled: bool = True
    #: Default worker count for trial-parallel experiment loops driven by
    #: this config (``None``/1 → serial, 0 → one per CPU, N → N worker
    #: processes).  Execution-only: results are bit-identical at any value,
    #: so it never enters budgets, thresholds, or checkpoint fingerprints.
    workers: int | None = None
    #: -- cdkl22 backend constants (see :mod:`repro.core.backends.cdkl22`) --
    #: Learning accuracy ``ε_learn = ε · cdkl22_learner_eps_fraction``.  The
    #: testing-by-learning reduction only needs ``D̂`` accurate enough to
    #: project onto ``H_k``, not to survive per-interval sieving, so this is
    #: much coarser than ``learner_eps_fraction`` — the learner is the
    #: n-independent term of the budget, so coarsening it matters at small n.
    cdkl22_learner_eps_fraction: float = 1.0 / 16.0
    #: Upper cap on the final test's ``ε'/ε`` ratio.  The effective ratio is
    #: ``min(cap, 1 − trimmed-mass share − truncation share)`` and never
    #: below the pods16 ratio (``final_eps_fraction``) — see
    #: :meth:`cdkl22_final_eps`.
    cdkl22_final_eps_fraction: float = 0.85
    #: Testing-by-learning gate: reject at the check stage when the learned
    #: ``D̂`` is farther than ``cdkl22_check_fraction · ε`` from ``H_k``
    #: (breakpoints on partition borders).  Generous by design: it only has
    #: to pass clear completeness cases (learn error + boundary snapping
    #: ≈ 0.3ε), while grossly non-histogram inputs exit sample-free.
    cdkl22_check_fraction: float = 0.5
    #: The trimmed final statistic drops the top
    #: ``ceil(cdkl22_trim_factor · (k−1))`` per-interval statistics — a
    #: k-histogram has at most ``k−1`` breakpoint intervals, which is exactly
    #: the contamination the pods16 sieve spends ``Θ(√n/α²)`` samples to
    #: remove and the trim removes for free.
    cdkl22_trim_factor: float = 1.0
    #: Only intervals with reference mass ≤ ``cdkl22_trim_mass_factor / b``
    #: are trim-eligible: an adversary cannot hide farness in a heavy
    #: interval, so the trim discards at most
    #: ``trim_count · factor / b`` of TV evidence (absorbed by ε').
    cdkl22_trim_mass_factor: float = 3.0
    #: Adaptive schedule: when the stage-0 statistic lands within
    #: ``cdkl22_guard_sigmas · √(2·|A_ε|)`` of the threshold, redraw fresh
    #: counts at ``cdkl22_escalation_factor × m`` and decide there.
    cdkl22_escalation_factor: float = 3.0
    cdkl22_guard_sigmas: float = 3.0
    #: -- closeness (two-sample, DKN17) constants ---------------------------
    #: (see :mod:`repro.core.closeness`)
    #: Accept iff the paired statistic ``Z ≤ closeness_accept_fraction·m·ε'²``
    #: — same role as ``chi2_accept_fraction`` but for the CDVV14-style
    #: paired statistic whose far-side expectation is ``≥ 2·m·ε'²`` by
    #: Cauchy–Schwarz on the kept (flattened) domain.
    closeness_accept_fraction: float = 1.0 / 2.0
    #: Final paired test distance parameter ``ε' = fraction·ε``; the partition
    #: flattening and the per-stream sieve each eat a slice of ε, mirroring
    #: the one-sample budget split.
    closeness_final_eps_fraction: float = 13.0 / 30.0
    #: Sample-free gate: reject when the two *learned* flattened histograms
    #: are farther than ``closeness_check_fraction·ε`` apart in TV on the
    #: jointly-kept domain — generous by design, like ``cdkl22_check_fraction``.
    closeness_check_fraction: float = 0.5

    #: Multiplicative factors: must be strictly positive (a zero or negative
    #: factor silently produces nonsense budgets downstream).
    _POSITIVE_FIELDS = (
        "partition_b_factor",
        "partition_sample_factor",
        "learner_sample_factor",
        "chi2_sample_factor",
        "sieve_heavy_factor",
        "sieve_accept_factor",
        "sieve_residual_factor",
        "sieve_rounds_factor",
        "budget_scale",
        "cdkl22_trim_mass_factor",
        "cdkl22_guard_sigmas",
    )
    #: Fractions of ε (or of an expectation): must lie in (0, 1].
    _FRACTION_FIELDS = (
        "learner_eps_fraction",
        "chi2_accept_fraction",
        "chi2_truncation",
        "final_eps_fraction",
        "check_tolerance_fraction",
        "sieve_alpha_fraction",
        "cdkl22_learner_eps_fraction",
        "cdkl22_final_eps_fraction",
        "cdkl22_check_fraction",
        "closeness_accept_fraction",
        "closeness_final_eps_fraction",
        "closeness_check_fraction",
    )

    def __post_init__(self) -> None:
        for name in self._POSITIVE_FIELDS:
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        for name in self._FRACTION_FIELDS:
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if self.chi2_repeats is not None and self.chi2_repeats < 1:
            raise ValueError(f"chi2_repeats must be positive, got {self.chi2_repeats}")
        if self.cdkl22_trim_factor < 0:
            raise ValueError(
                f"cdkl22_trim_factor must be non-negative, got {self.cdkl22_trim_factor}"
            )
        if self.cdkl22_escalation_factor < 1.0:
            raise ValueError(
                "cdkl22_escalation_factor must be at least 1, "
                f"got {self.cdkl22_escalation_factor}"
            )
        if self.workers is not None:
            if isinstance(self.workers, bool) or not isinstance(self.workers, int):
                raise ValueError(f"workers must be an int or None, got {self.workers!r}")
            if self.workers < 0:
                raise ValueError(f"workers must be non-negative, got {self.workers}")

    def with_workers(self, workers: int | None) -> "TesterConfig":
        """A copy with a different default worker count (execution-only)."""
        return replace(self, workers=workers)

    # -- profiles -----------------------------------------------------------

    @classmethod
    def paper(cls, **overrides: object) -> "TesterConfig":
        """The literal constants from the paper (and [ADK15])."""
        config = cls(
            profile="paper",
            partition_b_factor=20.0,
            partition_sample_factor=1.0,
            learner_eps_fraction=1.0 / 60.0,
            learner_sample_factor=1.0,
            chi2_sample_factor=20000.0,
            chi2_accept_fraction=1.0 / 10.0,
            chi2_truncation=1.0 / 50.0,
            final_eps_fraction=13.0 / 30.0,
            check_tolerance_fraction=1.0 / 60.0,
            sieve_alpha_fraction=1.0 / 33.0,
            sieve_heavy_factor=10.0,
            sieve_accept_factor=10.0,
            sieve_residual_factor=2.0,
            sieve_rounds_factor=1.0,
            fresh_sieve_samples=True,
            chi2_repeats=None,
        )
        return replace(config, **overrides) if overrides else config

    @classmethod
    def practical(cls, **overrides: object) -> "TesterConfig":
        """Calibrated profile: same structure, laptop-scale multipliers.

        Threshold-ratio invariants preserved from the paper's analysis:

        * learning χ² error ≪ final accept threshold:
          ``10·ε_learn² ≈ ε²/160 < ε'²·fraction ≈ ε²/42`` ✓ (Markov 10×
          slack included);
        * sieve residual ≪ final accept threshold: sieve-accept guarantees
          kept χ² ≲ ``accept_factor·α² = ε²/50``, below the final
          threshold with the learning margin absorbing the rest;
        * soundness expectation ≫ threshold: ``4·ε'² ≫ ε'²·fraction``;
        * noise floor: the χ² statistic has std ≈ ``√(2n)`` near the null,
          so the accept threshold ``(factor/8)·√n`` needs
          ``factor ≥ ~34`` to sit several σ above it — 64 gives ≈ 5.6σ.
        """
        config = cls(
            profile="practical",
            partition_b_factor=4.0,
            partition_sample_factor=8.0,
            learner_eps_fraction=1.0 / 40.0,
            learner_sample_factor=1.0,
            chi2_sample_factor=64.0,
            chi2_accept_fraction=1.0 / 8.0,
            chi2_truncation=1.0 / 50.0,
            final_eps_fraction=13.0 / 30.0,
            check_tolerance_fraction=1.0 / 15.0,
            sieve_alpha_fraction=1.0 / 20.0,
            sieve_heavy_factor=10.0,
            sieve_accept_factor=8.0,
            sieve_residual_factor=2.0,
            sieve_rounds_factor=1.0,
            fresh_sieve_samples=True,
            chi2_repeats=1,
        )
        return replace(config, **overrides) if overrides else config

    def scaled(self, budget_scale: float) -> "TesterConfig":
        """A copy with a different global budget multiplier."""
        if budget_scale <= 0:
            raise ValueError(f"budget scale must be positive, got {budget_scale}")
        return replace(self, budget_scale=budget_scale)

    # -- derived quantities --------------------------------------------------

    def partition_b(self, k: int, eps: float) -> float:
        """The APPROXPART parameter ``b`` (paper: ``20·k·log k/ε``)."""
        check_k_eps(k, eps)
        return self.partition_b_factor * k * _log2k(k) / eps

    def partition_samples(self, k: int, eps: float) -> int:
        """Sample budget of the partitioning stage, ``O(b log b)``."""
        b = self.partition_b(k, eps)
        return max(1, math.ceil(self.budget_scale * self.partition_sample_factor * b * math.log(b + math.e)))

    def learner_eps(self, eps: float) -> float:
        """Learning accuracy parameter passed to LEARNER."""
        return eps * self.learner_eps_fraction

    def learner_samples(self, num_intervals: int, eps: float) -> int:
        """Sample budget of the learning stage, ``O(K/ε_learn²)``."""
        if num_intervals < 1:
            raise ValueError("need at least one interval")
        eps_learn = self.learner_eps(eps)
        return max(
            1,
            math.ceil(
                self.budget_scale * self.learner_sample_factor * num_intervals / eps_learn**2
            ),
        )

    def chi2_samples(self, n: int, param: float) -> int:
        """Sample budget of one χ² batch at accuracy ``param``."""
        if n < 1:
            raise ValueError("domain size must be positive")
        if param <= 0:
            raise ValueError("accuracy parameter must be positive")
        return max(
            1, math.ceil(self.budget_scale * self.chi2_sample_factor * math.sqrt(n) / param**2)
        )

    def sieve_alpha(self, eps: float) -> float:
        """The sieve's χ² scale parameter α."""
        return eps * self.sieve_alpha_fraction

    def sieve_rounds(self, k: int) -> int:
        """Maximum number of Phase-B rounds, ``O(log k)``."""
        return max(1, math.ceil(self.sieve_rounds_factor * _log2k(k)) + 1)

    def chi2_repeat_count(self, k: int) -> int:
        """Median-amplification repeats per χ² batch."""
        if self.chi2_repeats is not None:
            if self.chi2_repeats < 1:
                raise ValueError("chi2_repeats must be positive")
            return self.chi2_repeats
        # Paper: failure probability δ = 1/(10(k+1)) per batch.
        from repro.util.stats import amplification_repeats

        return amplification_repeats(1.0 / (10.0 * (k + 1)), base_success=0.9)

    def final_eps(self, eps: float) -> float:
        """The final χ² test's distance parameter ``ε'``."""
        return eps * self.final_eps_fraction

    def check_tolerance(self, eps: float) -> float:
        """Step-10 tolerance for closeness of ``D̂`` to ``H_k`` on ``G``."""
        return eps * self.check_tolerance_fraction

    # -- cdkl22 backend derived quantities ----------------------------------

    def cdkl22_learner_eps(self, eps: float) -> float:
        """Learning accuracy of the cdkl22 testing-by-learning reduction."""
        return eps * self.cdkl22_learner_eps_fraction

    def cdkl22_learner_samples(self, num_intervals: int, eps: float) -> int:
        """Learner budget at the coarser cdkl22 accuracy, ``O(K/ε_learn²)``."""
        if num_intervals < 1:
            raise ValueError("need at least one interval")
        eps_learn = self.cdkl22_learner_eps(eps)
        return max(
            1,
            math.ceil(
                self.budget_scale * self.learner_sample_factor * num_intervals / eps_learn**2
            ),
        )

    def cdkl22_trim_count(self, k: int) -> int:
        """How many light intervals the trimmed statistic may drop."""
        check_k_eps(k, 1.0)
        return int(math.ceil(self.cdkl22_trim_factor * max(0, k - 1)))

    def cdkl22_trim_mass_cap(self, k: int, eps: float) -> float:
        """Reference-mass ceiling for trim eligibility (``factor / b``)."""
        return self.cdkl22_trim_mass_factor / self.partition_b(k, eps)

    def cdkl22_final_eps(self, k: int, eps: float) -> float:
        """The cdkl22 final test's effective distance parameter ``ε'``.

        The reference ``D*`` lies in ``H_k``, so soundness keeps the full
        ``ε`` minus what the statistic provably cannot see: the trimmed
        intervals' mass (≤ ``trim_count · trim_mass_factor / b``) and the
        ``A_ε`` truncation tail.  Capped above by
        ``cdkl22_final_eps_fraction`` and below by the pods16 ratio — the
        backend is never run with a weaker final test than pods16's.
        """
        trimmed_share = (
            self.cdkl22_trim_count(k) * self.cdkl22_trim_mass_factor
        ) / (self.partition_b(k, eps) * eps)
        fraction = min(
            self.cdkl22_final_eps_fraction, 1.0 - trimmed_share - self.chi2_truncation
        )
        return max(self.final_eps(eps), fraction * eps)

    def cdkl22_check_tolerance(self, eps: float) -> float:
        """Testing-by-learning gate tolerance for ``dTV(D̂, H_k)``."""
        return eps * self.cdkl22_check_fraction

    def cdkl22_escalated_m(self, m: float) -> int:
        """Stage-1 batch size after an ambiguous stage-0 statistic."""
        if m <= 0:
            raise ValueError(f"batch size must be positive, got {m}")
        return int(math.ceil(self.cdkl22_escalation_factor * m))

    # -- closeness (two-sample) derived quantities ---------------------------

    def closeness_final_eps(self, eps: float) -> float:
        """The paired final test's distance parameter ``ε'``."""
        return eps * self.closeness_final_eps_fraction

    def closeness_check_tolerance(self, eps: float) -> float:
        """Sample-free gate tolerance for ``dTV(p̂_flat, q̂_flat)`` on the
        jointly-kept domain."""
        return eps * self.closeness_check_fraction

    def closeness_samples(self, n: int, param: float) -> int:
        """Per-stream budget of one paired closeness batch at accuracy
        ``param``.  Same ``√n/param²`` shape as :meth:`chi2_samples` — on a
        flattened (b-interval) domain the DKN17 reduction runs the CDVV14
        closeness tester whose small-sample regime is ``Θ(√n/ε²)``."""
        return self.chi2_samples(n, param)


# Pytest collects classes named Test*; this is a config object, not a suite.
TesterConfig.__test__ = False  # type: ignore[attr-defined]


def check_k_eps(k: int, eps: float) -> None:
    """Raise ``ValueError`` unless ``k ≥ 1`` and ``ε ∈ (0, 1]``."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
