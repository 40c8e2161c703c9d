"""Sample access discipline.

Testing algorithms must only see i.i.d. samples, never the pmf.  To keep
that honest (and to account sample budgets exactly, which the whole
evaluation revolves around), every tester in this library draws through a
:class:`SampleSource` — a wrapper around a distribution that exposes *only*
sampling operations and counts every sample drawn.

Accounting is **integer-exact**: every charge is coerced through
:func:`charge_units` (``ceil`` for fractional Poissonized expectations), so
``samples_drawn`` is an exact integer that per-stage ledgers can
reconcile without tolerance (see :mod:`repro.observability.ledger`).  A
source is the sampling oracle plus that one counter: ``n``,
``samples_drawn``, the three draw paths, and an optional ``max_samples=``
cap enforced by :class:`SampleBudgetExceeded`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.util.rng import RandomState, child_rng, ensure_rng


def counts_from_samples(samples: np.ndarray, n: int) -> np.ndarray:
    """Occurrence counts ``N_i`` over the domain ``{0, …, n-1}``.

    Counting dispatches the ``sampling.counts_from_samples`` op.
    """
    from repro.kernels import dispatch

    samples = np.asarray(samples, dtype=np.int64)
    if len(samples) and (samples.min() < 0 or samples.max() >= n):
        raise ValueError("samples outside the domain")
    return dispatch("sampling.counts_from_samples")(samples, n)


def charge_units(m: float) -> int:
    """The integer budget charge for a requested draw size.

    Exact draws pass through unchanged; fractional Poissonized expectations
    round *up* — the conservative direction for a budget (never under-bill
    against the cap), and the only choice that keeps per-stage ledger sums
    integer-exact.
    """
    if m < 0:
        raise ValueError(f"sample size must be non-negative, got {m}")
    return int(math.ceil(m))


class SampleBudgetExceeded(RuntimeError):
    """A draw would push a capped source past its ``max_samples`` limit.

    Raised *before* any samples are served, so a capped source never
    over-delivers: a runaway configuration fails fast instead of simulating
    forever.  The serve layer caps every attempt at a slack multiple of its
    backend's closed-form budget.
    """

    def __init__(self, requested: int, drawn: int, max_samples: int) -> None:
        super().__init__(
            f"sample budget exhausted: draw of {requested:,d} would bring the "
            f"total to {drawn + requested:,d}, over the cap of "
            f"{max_samples:,d} — raise max_samples or shrink the "
            "configuration (see repro.core.budget.algorithm1_budget)"
        )
        self.requested = requested
        self.drawn = drawn
        self.max_samples = max_samples


class SampleSource:
    """Sample-only access to an unknown distribution, with budget accounting.

    ``poissonized`` draws report the *expected* number of samples to the
    budget (the standard accounting under the Poissonization trick: the
    realised ``Poisson(m)`` count concentrates around ``m``); a fractional
    expectation is charged as ``ceil(m)`` so the books stay integral.

    ``max_samples`` optionally caps the total: a draw that would exceed it
    raises :class:`SampleBudgetExceeded` before serving anything.
    """

    def __init__(
        self,
        dist: DiscreteDistribution,
        rng: RandomState = None,
        *,
        max_samples: float | None = None,
    ) -> None:
        self._dist = dist
        self._rng = ensure_rng(rng)
        self._init_accounting(max_samples)

    # -- budget accounting (shared with every SampleSource subclass) -------

    def _init_accounting(self, max_samples: float | None) -> None:
        if max_samples is not None and max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        # A fractional cap is ceiled once here; everything downstream is int.
        self._max_samples = None if max_samples is None else charge_units(max_samples)
        self._drawn = 0

    def _check_budget(self, m: float) -> None:
        units = charge_units(m)
        if self._max_samples is not None and self._drawn + units > self._max_samples:
            raise SampleBudgetExceeded(units, self._drawn, self._max_samples)

    def _record(self, m: float) -> None:
        self._drawn += charge_units(m)

    def _charge(self, m: float) -> None:
        self._check_budget(m)
        self._record(m)

    @property
    def n(self) -> int:
        """Domain size (public knowledge in the testing model)."""
        return self._dist.n

    @property
    def samples_drawn(self) -> int:
        """Samples charged so far (ceiled expected counts for Poisson
        draws).  Always an exact integer."""
        return self._drawn

    def draw(self, m: int) -> np.ndarray:
        """``m`` i.i.d. samples as domain indices."""
        self._charge(m)
        return self._dist.sample(m, self._rng)

    def draw_counts(self, m: int) -> np.ndarray:
        """Occurrence counts of ``m`` i.i.d. samples."""
        self._charge(m)
        return self._dist.sample_counts(m, self._rng)

    def draw_counts_poissonized(self, m: float) -> np.ndarray:
        """Independent per-element counts ``N_i ~ Poisson(m · D(i))``."""
        self._charge(m)
        return self._dist.sample_counts_poissonized(m, self._rng)


class SourceProxy(SampleSource):
    """A :class:`SampleSource` serving (a view of) another source's stream.

    Budget accounting is the wrapped source's, so ``samples_drawn`` and
    ``max_samples`` enforcement behave exactly as for the bare source.
    Subclasses (the fault-injecting and deadline wrappers) supply the draw
    paths.
    """

    def __init__(self, base: SampleSource) -> None:
        self._base = base

    @property
    def n(self) -> int:
        return self._base.n

    @property
    def samples_drawn(self) -> int:
        return self._base.samples_drawn


class _JointBudgetStream(SampleSource):
    """One stream of a :class:`PairedSampleSource`.

    Draws are served by the underlying per-stream source (so fault-injecting
    or deadline wrappers compose unchanged: pass a wrapped source into the
    pair), but every charge is checked against — and recorded into — the
    pair's *joint* budget in addition to this stream's own counter.  The
    stream's own counter is the accounting surface of record for the pair:
    it is charged before delegation, so ``pair.samples_drawn`` stays
    integer-exact even when the base source faults mid-draw.
    """

    def __init__(self, pair: "PairedSampleSource", base: SampleSource) -> None:
        self._pair = pair
        self._base = base
        self._init_accounting(None)

    @property
    def n(self) -> int:
        return self._base.n

    def _charge(self, m: float) -> None:
        units = charge_units(m)
        self._pair._check_joint(units)
        self._record(units)
        self._pair._record_joint(units)

    def draw(self, m: int) -> np.ndarray:
        self._charge(m)
        return self._base.draw(m)

    def draw_counts(self, m: int) -> np.ndarray:
        self._charge(m)
        return self._base.draw_counts(m)

    def draw_counts_poissonized(self, m: float) -> np.ndarray:
        self._charge(m)
        return self._base.draw_counts_poissonized(m)


class PairedSampleSource:
    """Two per-stream sample sources sharing one joint budget.

    The two-sample closeness tester (:mod:`repro.core.closeness`) draws from
    two unknown distributions ``p`` and ``q``.  The quantity the
    sample-complexity experiments measure — and the quantity a
    :class:`~repro.observability.ledger.SampleLedger` reconciles — is the
    *sum* over both streams, so the pair enforces one joint ``max_samples``
    cap while each stream keeps its own ``samples_drawn`` counter.

    Either side may be a raw :class:`DiscreteDistribution` (sampled through a
    child stream of ``rng``) or an existing :class:`SampleSource` (e.g. a
    fault-injecting or deadline wrapper), whose own per-source cap, if any,
    stays enforced underneath the joint one.
    """

    def __init__(
        self,
        p: DiscreteDistribution | SampleSource,
        q: DiscreteDistribution | SampleSource,
        rng: RandomState = None,
        *,
        max_samples: float | None = None,
    ) -> None:
        if isinstance(p, SampleSource) and isinstance(q, SampleSource):
            if rng is not None:
                raise ValueError("cannot reseed existing SampleSources")
        else:
            rng = ensure_rng(rng)
        base_p = p if isinstance(p, SampleSource) else SampleSource(p, child_rng(rng))
        base_q = q if isinstance(q, SampleSource) else SampleSource(q, child_rng(rng))
        if base_p.n != base_q.n:
            raise ValueError(
                f"paired sources must share a domain, got n={base_p.n} and n={base_q.n}"
            )
        if max_samples is not None and max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self._max_samples = None if max_samples is None else charge_units(max_samples)
        self._drawn = 0
        self.p = _JointBudgetStream(self, base_p)
        self.q = _JointBudgetStream(self, base_q)

    # -- joint accounting ---------------------------------------------------

    def _check_joint(self, units: int) -> None:
        if self._max_samples is not None and self._drawn + units > self._max_samples:
            raise SampleBudgetExceeded(units, self._drawn, self._max_samples)

    def _record_joint(self, units: int) -> None:
        self._drawn += units

    @property
    def n(self) -> int:
        """Shared domain size of both streams."""
        return self.p.n

    @property
    def samples_drawn(self) -> int:
        """Joint total over both streams (always an exact integer; always
        equals ``p.samples_drawn + q.samples_drawn``)."""
        return self._drawn


def as_source(
    dist: DiscreteDistribution | SampleSource, rng: RandomState = None
) -> SampleSource:
    """Normalise tester input: wrap a raw distribution into a source.

    When ``dist`` is already a source, ``rng`` must be None (the source owns
    its stream).
    """
    if isinstance(dist, SampleSource):
        if rng is not None:
            raise ValueError("cannot reseed an existing SampleSource")
        return dist
    return SampleSource(dist, rng)
