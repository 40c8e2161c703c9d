"""Fault-injecting sample sources.

The corrigendum's lesson is that sample-stream subtleties can silently
invalidate an analysis.  This module makes such subtleties *injectable*: a
:class:`FaultInjectingSource` wraps any
:class:`~repro.distributions.sampling.SampleSource` and corrupts its stream
under a configurable :class:`FaultConfig` — so the experiment suite can
measure how Algorithm 1's guarantees degrade under contamination (experiment
E20) and so the trial-isolation machinery of
:mod:`repro.experiments.runner` has realistic failures to isolate.

Fault models
------------

* **Huber ε-contamination** — each sample is independently replaced, with
  probability ``contamination_rate``, by a draw from a contaminating
  distribution ``Q`` (an adversarial instance, or uniform noise by default).
  The delivered stream is i.i.d. from the mixture
  ``(1 − r)·D + r·Q``; count-vector draws realise the mixture *exactly*
  (binomial splitting for multinomial draws, Poisson thinning for
  Poissonized draws), so the model stays cheap even at paper-profile sample
  sizes.
* **Out-of-domain corruption** — samples are replaced, with probability
  ``out_of_domain_rate``, by indices ``≥ n`` (bit-flips, schema drift,
  upstream bugs).  Sequential draws deliver the corrupt indices and let the
  consumer crash (``counts_from_samples`` raises); count-vector draws raise
  :class:`CorruptSampleError` whenever at least one corrupted sample lands
  in the batch, modelling the downstream crash directly.
* **Duplication / staleness** — each sequentially-drawn sample is replaced,
  with probability ``duplication_rate``, by its predecessor in the stream (a
  stale read).  This violates independence without changing marginals much —
  exactly the kind of sample *reuse* the corrigendum is about.  Count-vector
  draws have no stream order, so this model applies to :meth:`draw` only.
* **Injected stream failures** — a deterministic (seeded) schedule of draw
  *calls* that raise :class:`InjectedStreamFailure` instead of returning.
  Failures are transient: the failed call consumes its slot in the
  schedule, so a retry with a fresh call proceeds.

Fault decisions consume a dedicated RNG stream, never the wrapped source's:
with every rate at zero and no schedule, the wrapper is a byte-identical
passthrough (same seed ⇒ same samples as the bare source).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.sampling import SampleSource, SourceProxy, charge_units
from repro.observability.metrics import get_metrics
from repro.util.rng import RandomState, ensure_rng


class InjectedStreamFailure(RuntimeError):
    """A scheduled, transient stream failure fired on this draw call."""

    def __init__(self, call: int) -> None:
        super().__init__(f"injected stream failure on draw call #{call}")
        self.call = call


class CorruptSampleError(RuntimeError):
    """A count-vector draw included out-of-domain (corrupted) samples."""

    def __init__(self, corrupted: int, requested: float) -> None:
        super().__init__(
            f"{corrupted} of ~{requested:,.0f} samples fell outside the domain"
        )
        self.corrupted = corrupted
        self.requested = requested


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultConfig:
    """Configuration of every fault model (all off by default)."""

    #: Huber contamination rate ``r``: P[sample replaced by contaminant].
    contamination_rate: float = 0.0
    #: The contaminating distribution ``Q`` (``None`` → uniform over the
    #: wrapped domain; pass an adversarial instance for worst-case studies).
    contaminant: DiscreteDistribution | None = None
    #: P[sample replaced by an out-of-domain index].
    out_of_domain_rate: float = 0.0
    #: P[sequential sample replaced by its predecessor (stale read)].
    duplication_rate: float = 0.0
    #: 1-based draw-call numbers that raise :class:`InjectedStreamFailure`.
    fail_at_draws: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        _check_rate("contamination_rate", self.contamination_rate)
        _check_rate("out_of_domain_rate", self.out_of_domain_rate)
        _check_rate("duplication_rate", self.duplication_rate)
        object.__setattr__(self, "fail_at_draws", frozenset(self.fail_at_draws))
        if any(c < 1 for c in self.fail_at_draws):
            raise ValueError("fail_at_draws entries are 1-based call numbers")

    @property
    def is_noop(self) -> bool:
        """True when every fault model is disabled (exact passthrough)."""
        return (
            self.contamination_rate == 0.0
            and self.out_of_domain_rate == 0.0
            and self.duplication_rate == 0.0
            and not self.fail_at_draws
        )

    def with_failure_schedule(
        self, seed: int, mean_interval: float, horizon: int
    ) -> "FaultConfig":
        """A copy with a deterministic seeded failure schedule.

        Failure call numbers are generated by i.i.d. geometric gaps with the
        given mean, up to ``horizon`` calls — same seed, same schedule.
        """
        if mean_interval < 1:
            raise ValueError(f"mean_interval must be ≥ 1, got {mean_interval}")
        if horizon < 1:
            raise ValueError(f"horizon must be positive, got {horizon}")
        gen = np.random.default_rng(seed)
        calls: list[int] = []
        position = 0
        while True:
            position += int(gen.geometric(1.0 / mean_interval))
            if position > horizon:
                break
            calls.append(position)
        return replace(self, fail_at_draws=frozenset(calls))


class FaultInjectingSource(SourceProxy):
    """A :class:`SampleSource` serving a corrupted view of another source.

    Budget accounting passes through to the wrapped source
    (:class:`~repro.distributions.sampling.SourceProxy`): corrupted samples
    still cost budget — the tester cannot tell them apart.  Fault
    randomness comes from a separate stream (``fault_rng``), keeping the
    base stream untouched.
    """

    def __init__(
        self,
        source: SampleSource,
        config: FaultConfig,
        fault_rng: RandomState = None,
    ) -> None:
        super().__init__(source)
        self._faults = config
        self._fault_rng = ensure_rng(fault_rng)
        self._calls = 0
        self._last_sample: int | None = None
        if config.contaminant is not None and config.contaminant.n != source.n:
            raise ValueError(
                f"contaminant domain {config.contaminant.n} != source domain {source.n}"
            )
        self._contaminant = (
            config.contaminant
            if config.contaminant is not None
            else DiscreteDistribution.uniform(source.n)
        )

    # -- fault machinery ----------------------------------------------------

    def _tick(self) -> None:
        self._calls += 1
        if self._calls in self._faults.fail_at_draws:
            get_metrics().counter("faults.injected_failures").inc()
            raise InjectedStreamFailure(self._calls)

    def _corrupt_sequential(self, clean: np.ndarray) -> np.ndarray:
        """Apply per-sample faults to a sequentially-drawn batch.

        Order: contamination, then out-of-domain corruption, then
        duplication (a stale read repeats whatever was *delivered* before
        it, corrupted or not).
        """
        m = len(clean)
        if m == 0:
            return clean
        out = np.array(clean)
        cfg = self._faults
        if cfg.contamination_rate > 0.0:
            mask = self._fault_rng.random(m) < cfg.contamination_rate
            hits = int(mask.sum())
            if hits:
                out[mask] = self._contaminant.sample(hits, self._fault_rng)
        if cfg.out_of_domain_rate > 0.0:
            mask = self._fault_rng.random(m) < cfg.out_of_domain_rate
            hits = int(mask.sum())
            if hits:
                out[mask] = self.n + self._fault_rng.integers(
                    0, max(1, self.n), size=hits
                )
        if cfg.duplication_rate > 0.0:
            first = out[0] if self._last_sample is None else self._last_sample
            prev = np.concatenate(([first], out[:-1]))
            mask = self._fault_rng.random(m) < cfg.duplication_rate
            out[mask] = prev[mask]
        self._last_sample = int(out[-1])
        return out

    def _check_corruption(self, corrupted: int, requested: float) -> None:
        if corrupted > 0:
            get_metrics().counter("faults.corrupt_batches").inc()
            raise CorruptSampleError(corrupted, requested)

    # -- draw paths ---------------------------------------------------------

    def draw(self, m: int) -> np.ndarray:
        self._tick()
        clean = self._base.draw(m)
        if self._faults.is_noop:
            return clean
        return self._corrupt_sequential(clean)

    def draw_counts(self, m: int) -> np.ndarray:
        self._tick()
        cfg = self._faults
        if cfg.is_noop:
            return self._base.draw_counts(m)
        if m < 0:
            raise ValueError(f"sample size must be non-negative, got {m}")
        # Reach into the wrapped source's accounting so the *full* batch is
        # budget-checked up front, then charge the contaminated remainder
        # after the clean sub-batch was served (friend-module access).
        self._base._check_budget(m)
        if cfg.out_of_domain_rate > 0.0:
            corrupted = int(self._fault_rng.binomial(m, cfg.out_of_domain_rate))
            self._check_corruption(corrupted, m)
        # Exact Huber mixture by binomial splitting: of the m samples,
        # Binomial(m, r) are contaminant draws, the rest are clean.
        bad = (
            int(self._fault_rng.binomial(m, cfg.contamination_rate))
            if cfg.contamination_rate > 0.0
            else 0
        )
        counts = self._base.draw_counts(m - bad)
        self._base._record(bad)
        if bad:
            counts = counts + self._contaminant.sample_counts(bad, self._fault_rng)
        return counts

    def draw_counts_poissonized(self, m: float) -> np.ndarray:
        self._tick()
        cfg = self._faults
        if cfg.is_noop:
            return self._base.draw_counts_poissonized(m)
        if m < 0:
            raise ValueError(f"expected sample size must be non-negative, got {m}")
        self._base._check_budget(m)
        if cfg.out_of_domain_rate > 0.0:
            corrupted = int(self._fault_rng.poisson(m * cfg.out_of_domain_rate))
            self._check_corruption(corrupted, m)
        # Exact Huber mixture by Poisson thinning:
        # Poisson(m·mix) = Poisson((1−r)·m·D) + Poisson(r·m·Q).
        # Charge the contaminant share as the *remainder* against ceil(m),
        # so the wrapped batch bills exactly what a clean batch would —
        # ceiling both halves independently could over-charge by one.
        rate = cfg.contamination_rate
        clean = (1.0 - rate) * m
        counts = self._base.draw_counts_poissonized(clean)
        self._base._record(charge_units(m) - charge_units(clean))
        if rate > 0.0:
            counts = counts + self._contaminant.sample_counts_poissonized(
                rate * m, self._fault_rng
            )
        return counts
