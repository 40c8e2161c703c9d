"""Named workloads — the scenarios the experiments (and examples) run on.

The paper's motivation is database-flavoured (histograms as selectivity
summaries, [Koo80, PIHS96, JKM+98, …]); the registry mirrors that: each
workload is an attribute-value distribution a query optimiser might meet,
tagged with its ground truth relative to ``H_k``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.distributions import families
from repro.distributions.discrete import DiscreteDistribution
from repro.util.rng import RandomState, ensure_rng


@dataclass(frozen=True)
class Workload:
    """A named, reproducible distribution scenario."""

    name: str
    description: str
    #: ``factory(n, k, eps, rng)`` — instantiate at the experiment's scale.
    factory: Callable[[int, int, float, np.random.Generator], DiscreteDistribution]
    #: Whether the instance is in ``H_k`` ("complete"), certified ε-far
    #: ("far"), or in between ("ambiguous" — excluded from pass/fail stats).
    nature: str


def _staircase(n: int, k: int, eps: float, gen: np.random.Generator) -> DiscreteDistribution:
    return families.staircase(n, k).to_distribution()


def _random_hist(n: int, k: int, eps: float, gen: np.random.Generator) -> DiscreteDistribution:
    return families.random_histogram(n, k, gen, min_width=max(1, n // (8 * k))).to_distribution()


def _spiky_hist(n: int, k: int, eps: float, gen: np.random.Generator) -> DiscreteDistribution:
    return families.random_histogram(n, k, gen, concentration=0.3).to_distribution()


def _uniform(n: int, k: int, eps: float, gen: np.random.Generator) -> DiscreteDistribution:
    return families.uniform(n)


def _sawtooth_uniform(n: int, k: int, eps: float, gen: np.random.Generator) -> DiscreteDistribution:
    return families.far_from_hk(n, k, eps, gen)


def _sawtooth_staircase(n: int, k: int, eps: float, gen: np.random.Generator) -> DiscreteDistribution:
    # Perturb a coarse histogram (k//2 pieces keeps enough perturbable pairs)
    base = families.staircase(n, max(1, k // 2), ratio=1.5)
    return families.far_from_hk(n, k, eps, gen, base=base)


def _paninski(n: int, k: int, eps: float, gen: np.random.Generator) -> DiscreteDistribution:
    from repro.lowerbounds.paninski import paninski_instance

    even_n = n - (n % 2)
    c = min(6.0, 0.9 / eps)
    return paninski_instance(even_n, eps, gen, c=c).embed(n)


def _zipf(n: int, k: int, eps: float, gen: np.random.Generator) -> DiscreteDistribution:
    return families.zipf(n, alpha=1.0)


def _bimodal(n: int, k: int, eps: float, gen: np.random.Generator) -> DiscreteDistribution:
    return families.discretized_gaussian_mixture(
        n, centers=[0.25, 0.7], widths=[0.05, 0.1], weights=[0.45, 0.55]
    )


#: The registry.  "complete" workloads are exact k-histograms; "far"
#: workloads are certified ε-far from H_k by construction; "ambiguous"
#: workloads have ground truth depending on (n, k, ε) and are used with
#: explicitly computed distances.
REGISTRY: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "uniform",
            "flat attribute (e.g. hash-distributed keys); the 1-histogram",
            _uniform,
            "complete",
        ),
        Workload(
            "staircase",
            "price-band style attribute: k geometric steps",
            _staircase,
            "complete",
        ),
        Workload(
            "random-histogram",
            "random k-piece attribute profile (Dirichlet masses)",
            _random_hist,
            "complete",
        ),
        Workload(
            "spiky-histogram",
            "random k-piece profile with concentrated (spiky) masses",
            _spiky_hist,
            "complete",
        ),
        Workload(
            "sawtooth-uniform",
            "paired ±δ perturbation of uniform; certified ε-far from H_k",
            _sawtooth_uniform,
            "far",
        ),
        Workload(
            "sawtooth-staircase",
            "paired perturbation of a coarse staircase; certified ε-far",
            _sawtooth_staircase,
            "far",
        ),
        Workload(
            "paninski",
            "the Q_ε lower-bound family (far from H_k for k < n/3)",
            _paninski,
            "far",
        ),
        Workload(
            "zipf",
            "Zipfian product popularity (smooth decay; distance to H_k varies)",
            _zipf,
            "ambiguous",
        ),
        Workload(
            "bimodal",
            "two-segment customer-age mixture (smooth; distance varies)",
            _bimodal,
            "ambiguous",
        ),
    ]
}


def get_workload(name: str) -> Workload:
    """Look up a workload by name (raising with the available names)."""
    if name not in REGISTRY:
        raise KeyError(f"unknown workload {name!r}; available: {sorted(REGISTRY)}")
    return REGISTRY[name]


def make(name: str, n: int, k: int, eps: float, rng: RandomState = None) -> DiscreteDistribution:
    """Instantiate a named workload at the given scale."""
    return get_workload(name).factory(n, k, eps, ensure_rng(rng))


@dataclass(frozen=True)
class BoundWorkload:
    """A named workload bound to a scale: a picklable per-trial factory.

    The trial runner accepts any ``factory(gen) -> DiscreteDistribution``;
    lambdas closing over (n, k, ε) cannot cross a process boundary, so the
    parallel paths (``repro bench``, E-benchmarks) bind the scale in this
    module-level class instead.
    """

    name: str
    n: int
    k: int
    eps: float

    def __call__(self, gen: np.random.Generator) -> DiscreteDistribution:
        return get_workload(self.name).factory(self.n, self.k, self.eps, gen)


#: Memoized ground-truth labels, keyed by (pmf bytes, shape, dtype, k).
#: Sweeps re-label the same instance once per point; the cache is bounded so
#: long sweeps over many distinct instances cannot grow memory without limit.
_GROUND_TRUTH_CACHE: "OrderedDict[tuple, tuple[float, float]]" = OrderedDict()
_GROUND_TRUTH_CACHE_SIZE = 128


def ground_truth_bounds(
    dist: DiscreteDistribution | np.ndarray, k: int
) -> tuple[float, float]:
    """Certified ``(lower, upper)`` bounds on ``dTV(p, H_k)``, memoized.

    The key is the pmf's raw bytes plus ``k``, so repeated labelling of the
    same workload instance (e.g. once per sweep point across trials) costs
    one projection, not many.  The cache is LRU-bounded at
    ``_GROUND_TRUTH_CACHE_SIZE`` entries.  Labels are pure functions of the
    pmf — nothing here touches RNG streams or checkpoint fingerprints.
    """
    from repro.distributions.projection import histogram_distance_bounds

    pmf = np.ascontiguousarray(
        dist.pmf if isinstance(dist, DiscreteDistribution) else np.asarray(dist, float)
    )
    from repro.observability.metrics import get_metrics

    # Shape and dtype are part of the key: two arrays with identical raw
    # bytes but different shape or dtype (e.g. a float32 pmf whose bytes
    # happen to coincide with half of a float64 one) must never collide.
    key = (pmf.tobytes(), pmf.shape, pmf.dtype.str, int(k))
    cached = _GROUND_TRUTH_CACHE.get(key)
    if cached is not None:
        _GROUND_TRUTH_CACHE.move_to_end(key)
        get_metrics().counter("workloads.ground_truth_cache", result="hit").inc()
        return cached
    get_metrics().counter("workloads.ground_truth_cache", result="miss").inc()
    bounds = histogram_distance_bounds(pmf, int(k))
    _GROUND_TRUTH_CACHE[key] = bounds
    if len(_GROUND_TRUTH_CACHE) > _GROUND_TRUTH_CACHE_SIZE:
        _GROUND_TRUTH_CACHE.popitem(last=False)
    return bounds


# -- two-sample (closeness) workloads ----------------------------------------

PmfPair = "tuple[DiscreteDistribution, DiscreteDistribution]"


@dataclass(frozen=True)
class PairedWorkload:
    """A named, reproducible two-distribution scenario for closeness
    testing.  ``nature`` is "close" (``p = q``, a sound tester must accept)
    or "far" (``dTV(p, q) ≥ ε`` exactly by construction)."""

    name: str
    description: str
    #: ``factory(n, k, eps, rng) -> (p, q)`` at the experiment's scale.
    factory: Callable[[int, int, float, np.random.Generator], tuple]
    nature: str


def _identical_staircase(n, k, eps, gen):
    d = families.staircase(n, k).to_distribution()
    return d, d


def _identical_random(n, k, eps, gen):
    d = families.random_histogram(n, k, gen, min_width=max(1, n // (8 * k))).to_distribution()
    return d, d


def _shifted_staircase(n, k, eps, gen):
    p, q, _ = families.closeness_pair(n, k, eps)
    return p.to_distribution(), q.to_distribution()


def _offset_combs(n, k, eps, gen):
    # Two combs in antiphase: both exact 2·teeth-histograms, far apart.
    teeth = max(1, k // 2)
    p = families.two_level_comb(n, teeth)
    q = DiscreteDistribution(p.pmf[::-1].copy())
    return p, q


def _lower_bound_pair(n, k, eps, gen):
    even_n = n - (n % 2)
    p, q, _ = families.closeness_lower_bound_pair(even_n, min(eps, 0.49), gen)
    return p.embed(n), q.embed(n)


CLOSENESS_REGISTRY: dict[str, PairedWorkload] = {
    w.name: w
    for w in [
        PairedWorkload(
            "identical-staircase",
            "two streams of the same k-step price-band attribute",
            _identical_staircase,
            "close",
        ),
        PairedWorkload(
            "identical-random",
            "two streams of one random k-piece profile",
            _identical_random,
            "close",
        ),
        PairedWorkload(
            "shifted-staircase",
            "staircase vs staircase with ε mass moved between piece pairs "
            "(exact dTV = ε; flattening-proof)",
            _shifted_staircase,
            "far",
        ),
        PairedWorkload(
            "offset-combs",
            "two antiphase heavy/light combs (exact 2·teeth-histograms)",
            _offset_combs,
            "far",
        ),
        PairedWorkload(
            "flattening-blind",
            "uniform vs within-pair ±δ perturbation: dTV = ε but invisible "
            "to any interval flattening (the promise-violation lower bound)",
            _lower_bound_pair,
            "far",
        ),
    ]
}


def get_paired_workload(name: str) -> PairedWorkload:
    """Look up a closeness workload by name (raising with the names)."""
    if name not in CLOSENESS_REGISTRY:
        raise KeyError(
            f"unknown paired workload {name!r}; available: {sorted(CLOSENESS_REGISTRY)}"
        )
    return CLOSENESS_REGISTRY[name]


def make_pair(
    name: str, n: int, k: int, eps: float, rng: RandomState = None
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Instantiate a named paired workload at the given scale."""
    return get_paired_workload(name).factory(n, k, eps, ensure_rng(rng))


@dataclass(frozen=True)
class BoundPairedWorkload:
    """A paired workload bound to a scale: a picklable per-trial factory
    returning ``(p, q)`` (the two-sample sibling of
    :class:`BoundWorkload`)."""

    name: str
    n: int
    k: int
    eps: float

    def __call__(
        self, gen: np.random.Generator
    ) -> tuple[DiscreteDistribution, DiscreteDistribution]:
        return get_paired_workload(self.name).factory(self.n, self.k, self.eps, gen)


def pair_ground_truth(
    p: DiscreteDistribution | np.ndarray, q: DiscreteDistribution | np.ndarray
) -> float:
    """Exact ``dTV(p, q)`` — for pairs the ground truth is closed-form
    (no projection DP needed), so no cache either."""
    pp = p.pmf if isinstance(p, DiscreteDistribution) else np.asarray(p, float)
    qq = q.pmf if isinstance(q, DiscreteDistribution) else np.asarray(q, float)
    if pp.shape != qq.shape:
        raise ValueError("pair pmfs cover different domains")
    return 0.5 * float(np.abs(pp - qq).sum())


def completeness_workloads() -> list[Workload]:
    """All workloads whose instances are exact k-histograms."""
    return [w for w in REGISTRY.values() if w.nature == "complete"]


def soundness_workloads() -> list[Workload]:
    """All workloads whose instances are certified ε-far from ``H_k``."""
    return [w for w in REGISTRY.values() if w.nature == "far"]
