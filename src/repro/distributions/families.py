"""Synthetic distribution families used as workloads.

Completeness-side families are exact ``k``-histograms (so a sound tester
must accept).  Soundness-side families either carry an analytic farness
certificate (the paired-perturbation construction below, following the
Paninski argument the paper adapts in Proposition 4.1) or are certified far
by the projection DP (:mod:`repro.distributions.projection`).
"""

from __future__ import annotations

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.histogram import Histogram
from repro.util.intervals import Partition
from repro.util.rng import RandomState, ensure_rng


def uniform(n: int) -> DiscreteDistribution:
    """The uniform distribution (the 1-histogram)."""
    return DiscreteDistribution.uniform(n)


def random_histogram(
    n: int,
    k: int,
    rng: RandomState = None,
    *,
    min_width: int = 1,
    concentration: float = 1.0,
) -> Histogram:
    """A random ``k``-histogram: random breakpoints, Dirichlet piece masses.

    Piece masses are drawn ``Dirichlet(concentration, …)``; lower
    concentration produces spikier histograms.  The result has *exactly*
    ``k`` pieces in its stored partition (adjacent pieces may collide in
    value with probability zero).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if min_width < 1 or min_width * k > n:
        raise ValueError(f"cannot fit {k} pieces of width >= {min_width} in [0, {n})")
    gen = ensure_rng(rng)
    # Choose k-1 interior breakpoints leaving room for min_width everywhere:
    # pick from the "slack" positions then re-inflate.
    slack = n - k * min_width
    interior = np.sort(gen.choice(slack + 1, size=k - 1, replace=True))
    bounds = np.concatenate(([0], interior + min_width * np.arange(1, k), [n]))
    partition = Partition(np.unique(bounds))
    masses = gen.dirichlet(np.full(len(partition), concentration))
    return Histogram.from_masses(partition, masses)


def staircase(n: int, k: int, *, ratio: float = 2.0) -> Histogram:
    """A deterministic ``k``-histogram with geometrically decaying steps.

    Piece ``j`` has per-point value proportional to ``ratio**(-j)``; equal
    piece widths.  A reproducible, strongly non-uniform completeness case.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    partition = Partition.equal_width(n, k)
    values = ratio ** -np.arange(len(partition), dtype=np.float64)
    masses = values * partition.lengths()
    return Histogram.from_masses(partition, masses / masses.sum())


def zipf(n: int, alpha: float = 1.0) -> DiscreteDistribution:
    """Zipf/power-law: ``D(i) ∝ (i+1)^(-alpha)``.

    The canonical database frequency skew; not a k-histogram for any small
    k, so a natural soundness-side workload (certify farness with the
    projection DP at the chosen ``n``, ``k``).
    """
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    return DiscreteDistribution.from_weights((np.arange(1, n + 1, dtype=np.float64)) ** -alpha)


def geometric(n: int, decay: float = 0.99) -> DiscreteDistribution:
    """Truncated geometric: ``D(i) ∝ decay^i`` — smooth monotone decay."""
    if not 0 < decay <= 1:
        raise ValueError(f"decay must be in (0, 1], got {decay}")
    return DiscreteDistribution.from_weights(decay ** np.arange(n, dtype=np.float64))


def discretized_gaussian_mixture(
    n: int,
    centers: list[float],
    widths: list[float],
    weights: list[float] | None = None,
) -> DiscreteDistribution:
    """A mixture of discretised Gaussians (centers/widths in [0, 1] units).

    Smooth multi-modal shapes — e.g. the bimodal attribute-value profiles
    query optimisers see — that are far from coarse histograms but close to
    fine ones.
    """
    if len(centers) != len(widths) or not centers:
        raise ValueError("need matching non-empty centers and widths")
    if weights is None:
        weights = [1.0] * len(centers)
    if len(weights) != len(centers) or min(weights) < 0 or sum(weights) <= 0:
        raise ValueError("weights must be non-negative with positive total")
    grid = (np.arange(n) + 0.5) / n
    pmf = np.zeros(n)
    for center, width, weight in zip(centers, widths, weights):
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        pmf += weight * np.exp(-0.5 * ((grid - center) / width) ** 2)
    return DiscreteDistribution.from_weights(pmf)


def paired_perturbation(
    base: Histogram | DiscreteDistribution,
    epsilon: float,
    rng: RandomState = None,
    *,
    deterministic: bool = False,
) -> tuple[DiscreteDistribution, float]:
    """Perturb a histogram by ``±δ`` on consecutive pairs *within pieces*,
    returning the perturbed distribution and a certified lower bound on its
    TV distance to ``H_k`` (valid for every ``k`` up to a pair-count limit).

    This generalises Paninski's family (Proposition 4.1): pair up adjacent
    points inside each constant piece and move ``δ = 2ε'/n`` of probability
    from one to the other (sign per pair random, or alternating when
    ``deterministic``).  Any ``D* ∈ H_k`` must equalise all but ``k − 1``
    pairs, paying ``2δ`` per equalised pair, so

        ``dTV(result, H_k) ≥ (P − (k − 1)) · δ``

    where ``P`` is the number of perturbed pairs.  The second return value
    is ``P·δ`` — callers subtract ``(k−1)·δ`` for their ``k`` via
    :func:`certified_distance_to_hk`.

    Draw contract: one ``gen.random()`` uniform per perturbed pair, piece
    by piece left to right; a piece below ``δ`` (skipped) draws nothing.
    A uniform ``< 0.5`` (``deterministic``: an even ``q``, no draws) puts
    ``+δ`` on the pair's left point, otherwise ``−δ``.
    """
    hist = base if isinstance(base, Histogram) else Histogram.from_pmf(base.pmf)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    gen = ensure_rng(rng)
    pmf = hist.to_pmf()
    n = len(pmf)
    delta = 2.0 * epsilon / n
    pairs = 0
    bounds = hist.partition.boundaries.tolist()
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if pmf[start] < delta:
            continue  # cannot perturb without going negative
        usable = (stop - start) // 2
        flip = np.arange(usable) % 2 == 1 if deterministic else gen.random(usable) >= 0.5
        step = np.where(flip, -delta, delta)
        pmf[start : stop - 1 : 2] += step
        pmf[start + 1 : stop : 2] -= step
        pairs += usable
    if pairs == 0:
        raise ValueError("base histogram too concentrated to perturb at this epsilon")
    return DiscreteDistribution(pmf), pairs * delta


def certified_distance_to_hk(pair_mass: float, pairs_delta: float, k: int) -> float:
    """Lower bound ``dTV(D, H_k) ≥ pair_mass − (k − 1)·δ`` from the paired
    construction; ``pair_mass = P·δ`` and ``pairs_delta = δ``."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return max(0.0, pair_mass - (k - 1) * pairs_delta)


def far_from_hk(
    n: int,
    k: int,
    epsilon: float,
    rng: RandomState = None,
    *,
    base: Histogram | None = None,
) -> DiscreteDistribution:
    """A distribution certified to be at TV distance ≥ ``epsilon`` from
    ``H_k``, built by paired perturbation of a base histogram.

    The perturbation amplitude is chosen so the *certified* distance (after
    accounting for the ``k − 1`` pairs a k-histogram may leave unequalised)
    still clears ``epsilon``.
    """
    if base is None:
        base = Histogram.from_pmf(np.full(n, 1.0 / n))
    if base.n != n:
        raise ValueError("base histogram has the wrong domain size")
    lengths = base.partition.lengths()
    usable_pairs = int((lengths // 2).sum())
    if usable_pairs <= k - 1:
        raise ValueError(f"not enough perturbable pairs ({usable_pairs}) for k={k}")
    # Certified distance is (P − (k − 1))·δ, so pick δ to land exactly on
    # epsilon, then check every piece can absorb that amplitude.
    delta = epsilon / (usable_pairs - (k - 1))
    too_light = np.flatnonzero((lengths >= 2) & (base.values < delta))
    if len(too_light):
        j = int(too_light[0])
        raise ValueError(
            f"piece {j} has per-point mass {base.values[j]:.3g} < delta "
            f"{delta:.3g}; epsilon too large for this base/k"
        )
    target = delta * n / 2.0
    perturbed, pair_mass = paired_perturbation(base, target, rng)
    certified = certified_distance_to_hk(pair_mass, delta, k)
    if certified < epsilon - 1e-9:
        raise AssertionError(
            f"construction certifies {certified:.4g} < requested {epsilon}"
        )
    return perturbed


def closeness_pair(
    n: int,
    k: int,
    epsilon: float,
    *,
    ratio: float = 1.3,
) -> tuple[Histogram, Histogram, float]:
    """Two exact ``k``-histograms on the same partition at *exact* TV
    distance ``epsilon`` — the certified-far instance family for two-sample
    closeness testing (DKN17).

    ``p`` is the :func:`staircase`; ``q`` moves ``epsilon`` of probability
    mass between consecutive piece pairs (piece ``2i`` donates, piece
    ``2i+1`` receives), so both stay ``k``-histograms on the same partition
    and ``dTV(p, q) = ½·Σ_j |P_j − Q_j| = epsilon`` exactly.  Crucially the
    distance lives at *piece* granularity, so any interval refinement of
    the pieces (in particular the union-sample ``APPROXPART`` partition)
    preserves it under flattening — unlike the within-pair perturbations of
    :func:`paired_perturbation`, which flattening erases (see
    :func:`closeness_lower_bound_pair`).

    Returns ``(p, q, exact_tv)``.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k < 2:
        raise ValueError("closeness_pair needs k >= 2 (one piece cannot donate)")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    p = staircase(n, k, ratio=ratio)
    masses = p.piece_masses()
    pairs = len(masses) // 2
    delta = epsilon / pairs
    donors = masses[0 : 2 * pairs : 2]
    if donors.min() <= delta:
        raise ValueError(
            f"epsilon={epsilon} too large: smallest donor piece holds "
            f"{donors.min():.4g} <= per-pair transfer {delta:.4g}; lower "
            "epsilon or bring ratio closer to 1"
        )
    q_masses = masses.copy()
    q_masses[0 : 2 * pairs : 2] -= delta
    q_masses[1 : 2 * pairs + 1 : 2] += delta
    q = Histogram.from_masses(p.partition, q_masses)
    exact_tv = 0.5 * float(np.abs(p.to_pmf() - q.to_pmf()).sum())
    return p, q, exact_tv


def closeness_lower_bound_pair(
    n: int,
    epsilon: float,
    rng: RandomState = None,
) -> tuple[DiscreteDistribution, DiscreteDistribution, float]:
    """The Paninski-style *lower-bound* pair for closeness testing.

    ``p`` is uniform; ``q`` moves ``δ = 2ε/n`` between the two halves of
    every consecutive pair of points (random signs), so
    ``dTV(p, q) = epsilon`` exactly — but every pair's *total* mass is
    unchanged, so any flattening at granularity coarser than single points
    sees two identical distributions.  This is the construction showing the
    histogram *promise* is load-bearing: ``q`` is an n-histogram, not a
    k-histogram, and the DKN17 interval reduction is provably blind to it
    (the tester must accept at the promised k; only the raw-domain
    degenerate regime can reject).  Returns ``(p, q, exact_tv)``.
    """
    if n < 2 or n % 2:
        raise ValueError(f"need even n >= 2, got {n}")
    if not 0 < epsilon < 0.5:
        # δ = 2ε/n must keep 1/n − δ non-negative.
        raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
    gen = ensure_rng(rng)
    pmf = np.full(n, 1.0 / n)
    delta = 2.0 * epsilon / n
    signs = np.where(gen.random(n // 2) < 0.5, 1.0, -1.0)
    perturbed = pmf.copy()
    perturbed[0::2] += signs * delta
    perturbed[1::2] -= signs * delta
    q = DiscreteDistribution(perturbed)
    exact_tv = 0.5 * float(np.abs(pmf - perturbed).sum())
    return DiscreteDistribution(pmf), q, exact_tv


def two_level_comb(n: int, teeth: int, contrast: float = 3.0) -> DiscreteDistribution:
    """A comb alternating heavy/light blocks: an exact ``2·teeth``-histogram.

    Useful both as a completeness case for ``k = 2·teeth`` and a soundness
    case for ``k' ≪ teeth`` (certify with the projection DP).
    """
    if teeth < 1 or 2 * teeth > n:
        raise ValueError(f"need 1 <= teeth <= n/2, got teeth={teeth}, n={n}")
    if contrast <= 1.0:
        raise ValueError(f"contrast must exceed 1, got {contrast}")
    labels = Partition.equal_width(n, 2 * teeth).membership()
    weights = np.where(labels % 2 == 0, contrast, 1.0)
    return DiscreteDistribution.from_weights(weights)


def sparse_support(n: int, support_size: int, rng: RandomState = None) -> DiscreteDistribution:
    """Uniform over a random size-``support_size`` subset of the domain.

    The shape of the support-size lower-bound instances (Section 4.2): its
    histogram complexity is governed by ``cover`` of the support.
    """
    if not 1 <= support_size <= n:
        raise ValueError(f"need 1 <= support_size <= n, got {support_size}")
    gen = ensure_rng(rng)
    points = gen.choice(n, size=support_size, replace=False)
    pmf = np.zeros(n)
    pmf[points] = 1.0 / support_size
    return DiscreteDistribution(pmf, validate=False)
