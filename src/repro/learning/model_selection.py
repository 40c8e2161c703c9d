"""Model selection: find the smallest ``k`` that fits (the intro's pipeline).

Section 1.1 motivates the tester as a *model-selection* primitive: "one can
iteratively run such an algorithm (e.g., by doubling search) to look for the
smallest corresponding k", then hand that ``k`` to an agnostic learner for
an optimal conciseness/accuracy trade-off.  This module is that pipeline.

The search doubles ``k`` until the tester accepts, then binary-searches the
last octave.  Each tester invocation is majority-amplified so the whole
search (``O(log k*)`` calls) succeeds with the requested confidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.backends import DEFAULT_BACKEND
from repro.core.config import TesterConfig
from repro.core.tester import test_histogram
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.histogram import Histogram
from repro.distributions.sampling import SampleSource, as_source
from repro.learning.merge import learn_histogram_agnostic
from repro.util.rng import RandomState
from repro.util.stats import amplification_repeats, majority


@dataclass(frozen=True)
class ModelSelectionResult:
    """Outcome of the select-then-learn pipeline."""

    k: int
    histogram: Histogram
    tests_run: int
    samples_used: float
    accepted_trace: dict  # k -> bool, every tested value


def _amplified_test(
    source: SampleSource,
    k: int,
    eps: float,
    config: TesterConfig,
    repeats: int,
    backend: str = DEFAULT_BACKEND,
) -> bool:
    verdicts = [
        test_histogram(source, k, eps, config=config, backend=backend).accept
        for _ in range(repeats)
    ]
    return majority(verdicts)


def select_k(
    dist: DiscreteDistribution | SampleSource,
    eps: float,
    *,
    k_max: int | None = None,
    config: TesterConfig | None = None,
    confidence: float = 0.9,
    repeats: int | None = None,
    rng: RandomState = None,
    backend: str = DEFAULT_BACKEND,
) -> ModelSelectionResult:
    """Doubling + binary search for the smallest accepted ``k``, then learn.

    Returns the selected ``k`` and the learned k-histogram.  The guarantee
    mirrors the intro's discussion: the selected ``k*`` satisfies
    ``dTV(D, H_{k*}) < ε`` (it was accepted) while ``H_{k*/2}`` was rejected,
    i.e. ``k*`` is within a factor 2 of the smallest ε-sufficient model.

    Raises ``ValueError`` if even ``k_max`` is rejected (no histogram model
    of permitted size fits the data at this ε).
    """
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    source = as_source(dist, rng)
    if config is None:
        config = TesterConfig.practical()
    if k_max is None:
        k_max = source.n
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")

    if repeats is None:
        # Each amplified call must survive a union bound over O(log k_max)
        # calls; derive the repeat count from the target confidence.  Pass
        # an explicit ``repeats`` (e.g. 3) to trade confidence for budget.
        calls_bound = max(2, 2 * (k_max.bit_length() + 1))
        per_call_delta = (1.0 - confidence) / calls_bound
        repeats = amplification_repeats(per_call_delta)
    elif repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")

    start = source.samples_drawn
    trace: dict[int, bool] = {}
    tests = 0

    # Doubling phase.
    k = 1
    accepted_k: int | None = None
    while True:
        probe = min(k, k_max)
        ok = _amplified_test(source, probe, eps, config, repeats, backend)
        trace[probe] = ok
        tests += 1
        if ok:
            accepted_k = probe
            break
        if probe == k_max:
            raise ValueError(
                f"no k <= k_max={k_max} accepted at eps={eps}: "
                "the distribution has no permissible histogram model"
            )
        k *= 2

    # Binary search inside (last rejected, accepted_k].
    lo = accepted_k // 2 + 1 if accepted_k > 1 else 1
    hi = accepted_k
    while lo < hi:
        mid = (lo + hi) // 2
        ok = _amplified_test(source, mid, eps, config, repeats, backend)
        trace[mid] = ok
        tests += 1
        if ok:
            hi = mid
        else:
            lo = mid + 1
    selected = hi

    histogram = learn_histogram_agnostic(source, selected, eps)
    return ModelSelectionResult(
        k=selected,
        histogram=histogram,
        tests_run=tests,
        samples_used=source.samples_drawn - start,
        accepted_trace=trace,
    )
