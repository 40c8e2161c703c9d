"""Closed-form sample-complexity formulas.

Two families live here:

* the *theorem* formulas — unit-constant versions of the asymptotic bounds
  of this paper and the prior work it compares against (used by experiment
  E1 to chart the landscape and crossovers exactly as Section 1.2 describes
  them);
* the *implementation* budget — the exact number of samples Algorithm 1
  draws under a given :class:`~repro.core.config.TesterConfig`, summed over
  its stages (kept in lockstep with the implementation; tests assert the
  tester's measured usage matches this formula).
"""

from __future__ import annotations

import math

from repro.core.config import TesterConfig, _log2k, check_k_eps


def theorem_upper_bound(n: int, k: int, eps: float) -> float:
    """Theorem 3.1 (unit constants):
    ``√n/ε²·log k + k/ε³·log²k + k/ε·log(k/ε)``."""
    check_instance(n, k, eps)
    logk = _log2k(k)
    return (
        math.sqrt(n) / eps**2 * logk
        + k / eps**3 * logk**2
        + k / eps * math.log2(max(2.0, k / eps))
    )


def theorem_lower_bound(n: int, k: int, eps: float) -> float:
    """Theorem 1.2 (unit constants): ``√n/ε² + k/(ε·log k)``."""
    check_instance(n, k, eps)
    return math.sqrt(n) / eps**2 + k / (eps * _log2k(k))


def paninski_lower_bound(n: int, eps: float) -> float:
    """Proposition 4.1 / [Pan08] (unit constants): ``√n/ε²``."""
    check_instance(n, 1, eps)
    return math.sqrt(n) / eps**2


def support_size_lower_bound(k: int, eps: float) -> float:
    """Proposition 4.2 / [VV10] (unit constants): ``k/(ε·log k)``."""
    check_instance(1, k, eps)
    return k / (eps * _log2k(k))


def ilr12_budget(n: int, k: int, eps: float) -> float:
    """[ILR12] upper bound (unit constants): ``√(kn)/ε⁵ · log n``."""
    check_instance(n, k, eps)
    return math.sqrt(k * n) / eps**5 * math.log2(max(2, n))


def cdgr16_budget(n: int, k: int, eps: float) -> float:
    """[CDGR16] upper bound (unit constants): ``√(kn)/ε³ · log n``."""
    check_instance(n, k, eps)
    return math.sqrt(k * n) / eps**3 * math.log2(max(2, n))


def learn_offline_budget(n: int, eps: float) -> float:
    """The trivial baseline: learn everything, project offline — ``Θ(n/ε²)``."""
    check_instance(n, 1, eps)
    return n / eps**2


def algorithm1_budget(
    n: int, k: int, eps: float, config: TesterConfig | None = None
) -> float:
    """Exact worst-case sample usage of this implementation of Algorithm 1.

    Sums the budgets of every stage (partition, learn, sieve with its
    maximum round count, final test), each amplified by the configured
    repeat count.  The tester can use *less* (the sieve may finish early or
    reject), never more.
    """
    check_instance(n, k, eps)
    if config is None:
        config = TesterConfig.practical()
    if k >= n:
        return 0.0
    partition = config.partition_samples(k, eps)
    b = config.partition_b(k, eps)
    worst_intervals = int(4 * b + 2)  # greedy APPROXPART bound (see E12)
    learner = config.learner_samples(worst_intervals, eps)
    repeats = config.chi2_repeat_count(k)
    sieve_batches = 1 + config.sieve_rounds(k)  # phase A + phase-B rounds
    if not config.fresh_sieve_samples:
        sieve_batches = 1
    if not config.sieve_enabled:
        sieve_batches = 0
    sieve = sieve_batches * repeats * config.chi2_samples(n, config.sieve_alpha(eps))
    final = repeats * config.chi2_samples(n, config.final_eps(eps))
    return float(partition + learner + sieve + final)


def capped_source(
    dist,
    n: int,
    k: int,
    eps: float,
    *,
    config: TesterConfig | None = None,
    slack: float = 1.5,
    rng=None,
):
    """A :class:`~repro.distributions.sampling.SampleSource` hard-capped at
    ``slack ×`` the closed-form worst-case budget of Algorithm 1.

    Any configuration that tries to draw past the cap — a runaway bisection,
    a mis-scaled profile, a bug reintroducing sample reuse — raises
    :class:`~repro.distributions.sampling.SampleBudgetExceeded` immediately
    instead of simulating forever.
    """
    from repro.distributions.sampling import SampleSource

    if slack <= 0:
        raise ValueError(f"slack must be positive, got {slack}")
    # Ceil exactly once: the cap is an integer from here on, so budget
    # enforcement and ledger reconciliation never compare floats.
    cap = math.ceil(slack * algorithm1_budget(n, k, eps, config))
    if cap <= 0:
        raise ValueError(f"degenerate budget cap {cap} for n={n}, k={k}")
    return SampleSource(dist, rng, max_samples=cap)


def budget_table_row(n: int, k: int, eps: float) -> dict:
    """One row of the experiment-E1 landscape table."""
    return {
        "n": n,
        "k": k,
        "eps": eps,
        "this_paper_ub": theorem_upper_bound(n, k, eps),
        "lower_bound": theorem_lower_bound(n, k, eps),
        "ilr12": ilr12_budget(n, k, eps),
        "cdgr16": cdgr16_budget(n, k, eps),
        "learn_offline": learn_offline_budget(n, eps),
    }


def check_instance(n: int, k: int, eps: float) -> None:
    """Raise ``ValueError`` unless ``(n, k, ε)`` is a valid test instance."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    check_k_eps(k, eps)
