"""Two-sample closeness testing of histogram distributions (DKN17).

Given sample access to *two* unknown distributions ``p`` and ``q`` on
``[n]``, both promised to be k-histograms, decide ``p = q`` versus
``dTV(p, q) ≥ ε``.  Following Diakonikolas–Kane–Nikishkin
(arXiv:1703.01913), the tester reduces the domain from ``n`` points to
``b = O(k log k / ε)`` intervals and runs a paired closeness test there —
the "few bins are enough" phenomenon carried over to two samples:

1. **Partition** — ``APPROXPART`` on the *union* sample (half the budget
   from each stream), so interval guarantees hold for ``(p + q)/2`` and
   therefore, up to a factor 2, for both streams at once.
2. **Learn** — the Lemma 3.5 χ² learner per stream on the shared partition.
3. **Sieve** — the Algorithm 1 sieve per stream against its own learned
   flattening; under the histogram promise each stream's breakpoint
   intervals are discarded.  The jointly-kept set is the intersection.
4. **Check** — sample-free gate: if the two learned flattenings are already
   far apart in TV on the jointly-kept domain, reject without drawing.
5. **Test** — the CDVV14 paired statistic on the *interval* counts
   (flattening makes closeness of ``p̃, q̃`` exactly closeness of the
   interval-mass vectors):

       ``Z = Σ_{j kept} ((X_j − Y_j)² − X_j − Y_j) / (X_j + Y_j)``

   with ``X_j, Y_j ~ Poisson(m·P_j), Poisson(m·Q_j)`` independent.  Under
   ``p = q`` every term has mean exactly zero; when the flattened TV
   distance is ≥ ε', Cauchy–Schwarz gives ``E[Z] ≳ 2·m·ε'²``.  Accept iff
   ``Z ≤ closeness_accept_fraction · m · ε'²``.

The per-stream budget of the final test is ``O(√B/ε'²)`` for ``B`` kept
intervals — *sublinear in n through b*, which is the head-to-head E28
measures against running the one-sample tester twice.

Sampling goes exclusively through a
:class:`~repro.distributions.sampling.PairedSampleSource`: one joint
``max_samples`` cap and one :class:`~repro.observability.ledger.SampleLedger`
reconciled — integer equality over the *sum* of both streams — on every
exit path, including mid-flight :meth:`ClosenessPipeline.abort`.

Degenerate regime: when ``2b + 2 ≥ n/2`` the partition would be almost all
singletons, so the pipeline skips straight to the paired test on the
singleton partition (the plain CDVV14 tester on the raw domain), mirroring
the one-sample plug-in fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.chi2 import Chi2Result, median_paired_interval_statistics
from repro.core.config import TesterConfig
from repro.core.learner import learn_histogram
from repro.core.partition import approx_partition
from repro.core.sieve import SieveResult, sieve_intervals
from repro.core.tester import _finish, _StageLog
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.histogram import Histogram
from repro.distributions.sampling import PairedSampleSource, SampleSource
from repro.observability.ledger import SampleLedger
from repro.observability.metrics import get_metrics
from repro.observability.trace import NULL_TRACER, Tracer
from repro.util.intervals import Partition
from repro.util.rng import RandomState

#: Canonical stage order of the closeness pipeline (a strict subset of the
#: one-sample ``STAGE_ORDER``; early-exit verdicts record a prefix).
CLOSENESS_STAGE_ORDER = ("partition", "learn", "sieve", "check", "chi2")


def closeness_budget(
    n: int, k: int, eps: float, config: TesterConfig | None = None
) -> float:
    """Worst-case *joint* sample usage (both streams summed) of
    :func:`test_closeness` under ``config``.

    Mirrors :func:`~repro.core.budget.algorithm1_budget`: one union-sample
    partition, then learner/sieve per stream, then the paired final test at
    ``O(√B/ε'²)`` per stream on the ``B ≤ 4b + 2`` interval domain.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if config is None:
        config = TesterConfig.practical()
    repeats = config.chi2_repeat_count(k)
    eps_final = config.closeness_final_eps(eps)
    b = config.partition_b(k, eps)
    if 2.0 * b + 2.0 >= n / 2.0:
        # Degenerate regime: paired plug-in on the singleton partition.
        return float(2 * repeats * config.closeness_samples(n, eps_final))
    partition = config.partition_samples(k, eps)
    worst_intervals = int(4 * b + 2)  # greedy APPROXPART bound (see E12)
    learner = 2 * config.learner_samples(worst_intervals, eps)
    sieve_batches = 1 + config.sieve_rounds(k)
    if not config.fresh_sieve_samples:
        sieve_batches = 1
    if not config.sieve_enabled:
        sieve_batches = 0
    sieve = 2 * sieve_batches * repeats * config.chi2_samples(n, config.sieve_alpha(eps))
    final = 2 * repeats * config.closeness_samples(worst_intervals, eps_final)
    return float(partition + learner + sieve + final)


@dataclass(frozen=True)
class ClosenessVerdict:
    """The closeness tester's decision, with a full two-stream audit trail."""

    accept: bool
    stage: str  # "trivial" | "sieve" | "check" | "chi2"
    reason: str
    #: Joint samples over both streams; ledger-reconciled (integer equality)
    #: against ``Σ stage_samples`` on every exit path.
    samples_used: int
    samples_p: int
    samples_q: int
    k: int
    eps: float
    partition: Optional[Partition] = None
    learned_p: Optional[Histogram] = None
    learned_q: Optional[Histogram] = None
    sieve_p: Optional[SieveResult] = None
    sieve_q: Optional[SieveResult] = None
    chi2: Optional[Chi2Result] = None
    #: Integer *joint* samples drawn per executed stage; sums exactly to
    #: ``samples_used``.
    stage_samples: dict = field(default_factory=dict)
    stage_timings: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.accept


@dataclass(frozen=True)
class ClosenessFinalPlan:
    """Parameters of the paired final test (per-stream rate ``m``)."""

    m: float
    repeats: int
    eps_final: float
    #: Boolean mask over the partition's *intervals* — the jointly-kept set.
    mask: np.ndarray


class _UnionDraw:
    """Duck-typed source for ``APPROXPART`` over the union sample.

    ``draw_counts(m)`` serves ``ceil(m/2)`` draws from ``p`` and
    ``floor(m/2)`` from ``q`` and sums the count vectors — samples from the
    mixture ``(p + q)/2`` up to the one-sample rounding, with both halves
    charged to the pair's joint budget.
    """

    def __init__(self, pair: PairedSampleSource) -> None:
        self._pair = pair

    @property
    def n(self) -> int:
        return self._pair.n

    def draw_counts(self, m: int) -> np.ndarray:
        half = m // 2
        return self._pair.p.draw_counts(m - half) + self._pair.q.draw_counts(half)


def as_paired_source(
    p: DiscreteDistribution | SampleSource | PairedSampleSource,
    q: DiscreteDistribution | SampleSource | None,
    rng: RandomState = None,
) -> PairedSampleSource:
    """Normalise tester input: wrap two distributions/sources into a pair.

    When ``p`` is already a :class:`PairedSampleSource`, ``q`` and ``rng``
    must be ``None`` (the pair owns its streams and budget).
    """
    if isinstance(p, PairedSampleSource):
        if q is not None:
            raise ValueError("q must be None when p is already a PairedSampleSource")
        if rng is not None:
            raise ValueError("cannot reseed an existing PairedSampleSource")
        return p
    if q is None:
        raise ValueError("closeness testing needs two distributions")
    if isinstance(p, SampleSource) and isinstance(q, SampleSource):
        return PairedSampleSource(p, q)
    return PairedSampleSource(p, q, rng)


class ClosenessPipeline:
    """Stepped (batch-first) execution of the DKN17 closeness tester.

    Mirrors :class:`~repro.core.tester.TesterPipeline`'s stepping protocol::

        pipeline = ClosenessPipeline(p, q, k, eps, config=..., trace=...)
        verdict = pipeline.prepare()            # trivial short-circuit
        if verdict is None:
            pipeline.run_partition()
            pipeline.run_learn()
            verdict = pipeline.run_sieve()      # may reject
        if verdict is None:
            verdict = pipeline.run_check()      # may reject (sample-free)
        if verdict is None:
            plan = pipeline.begin_final_test()
            counts_p, counts_q = pipeline.draw_final_counts()
            z = median_paired_interval_statistics(
                counts_p, counts_q, pipeline.partition, plan.mask
            )
            verdict = pipeline.finish_final_test(z)

    A caller abandoning the pipeline mid-flight must call :meth:`abort` so
    any open stage's partial draws land in the ledger and the joint
    reconciliation still balances.
    """

    __test__ = False  # "Test"-infixed product class; not a pytest suite

    def __init__(
        self,
        p: DiscreteDistribution | SampleSource | PairedSampleSource,
        q: DiscreteDistribution | SampleSource | None = None,
        k: int = 1,
        eps: float = 0.25,
        *,
        config: TesterConfig | None = None,
        rng: RandomState = None,
        trace: Tracer = NULL_TRACER,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        self.k = k
        self.eps = eps
        self.config = config if config is not None else TesterConfig.practical()
        self.trace = trace
        self.pair = as_paired_source(p, q, rng)
        self.n = self.pair.n
        self.start = self.pair.samples_drawn
        self._start_p = self.pair.p.samples_drawn
        self._start_q = self.pair.q.samples_drawn
        self.partition: Partition | None = None
        self.learned_p: Histogram | None = None
        self.learned_q: Histogram | None = None
        self.sieve_p: SieveResult | None = None
        self.sieve_q: SieveResult | None = None
        self._b: float | None = None
        self._degenerate = False
        self._ledger: SampleLedger | None = None
        self._log: _StageLog | None = None
        self._final = None
        self._plan: ClosenessFinalPlan | None = None

    # -- admission metadata --------------------------------------------------

    def budget_cap(self) -> int | None:
        """The joint sample cap for this instance (``None`` only when the
        trivial ``n = 1`` regime applies)."""
        if self.n <= 1:
            return 0
        return int(math.ceil(closeness_budget(self.n, self.k, self.eps, self.config)))

    # -- stepped stages ------------------------------------------------------

    def prepare(self) -> ClosenessVerdict | None:
        """Dispatch the degenerate regimes; set up the joint ledger otherwise."""
        n, k, eps = self.n, self.k, self.eps
        if n <= 1:
            # Both distributions are the point mass on the single element.
            ledger = SampleLedger()
            samples_used = _finish(
                self.trace, ledger, self.pair.samples_drawn - self.start
            )
            return ClosenessVerdict(
                accept=True,
                stage="trivial",
                reason="n=1: both distributions are the same point mass",
                samples_used=samples_used,
                samples_p=self.pair.p.samples_drawn - self._start_p,
                samples_q=self.pair.q.samples_drawn - self._start_q,
                k=k,
                eps=eps,
            )
        b = self.config.partition_b(k, eps)
        if 2.0 * b + 2.0 >= n / 2.0:
            # Degenerate regime b = Ω(n): the adaptive partition would be
            # almost all singletons, so flattening buys nothing — run the
            # paired test directly on the singleton partition.  Outside the
            # closeness_budget formula's main branch, so the cap matches.
            self._degenerate = True
            self.partition = Partition.singletons(n)
        else:
            self._b = b
        self._ledger = SampleLedger(budget_cap=self.budget_cap())
        self._log = _StageLog(self.pair, self.trace, self._ledger)
        return None

    def run_partition(self) -> None:
        """Stage 1: ``APPROXPART`` over the union sample.

        In the degenerate regime the singleton partition is already fixed
        and no stage is opened (no span, no ledger entry, zero samples).
        """
        if self._degenerate:
            return
        with self._log.stage("partition", b=int(self._b)) as span:
            self.partition = approx_partition(
                _UnionDraw(self.pair),
                self._b,
                self.config.partition_samples(self.k, self.eps),
            )
            span.set(intervals=len(self.partition))

    def run_learn(self) -> None:
        """Stage 2: the χ² learner per stream on the shared partition."""
        if self._degenerate:
            return
        num_samples = self.config.learner_samples(len(self.partition), self.eps)
        with self._log.stage("learn"):
            self.learned_p = learn_histogram(
                self.pair.p, self.partition, num_samples, self.trace
            )
            self.learned_q = learn_histogram(
                self.pair.q, self.partition, num_samples, self.trace
            )

    def run_sieve(self) -> ClosenessVerdict | None:
        """Stage 3: the Algorithm 1 sieve per stream; either may reject.

        A sieve rejection means the stream's samples are inconsistent with
        *any* flattening on the shared partition — under the histogram
        promise this is the w.p.-1/10 failure branch, and the tester rejects
        (the promise is violated, so any answer is permissible; rejecting
        surfaces the anomaly).
        """
        if self._degenerate:
            kept = np.ones(len(self.partition), dtype=bool)
            none_removed = np.empty(0, dtype=np.int64)
            self.sieve_p = self.sieve_q = SieveResult(
                rejected=False,
                reason="degenerate regime: singleton partition, nothing to sieve",
                kept=kept,
                removed=none_removed,
                rounds=0,
                samples_used=0,
                final_statistic=float("nan"),
            )
            return None
        with self._log.stage("sieve") as span:
            self.sieve_p = sieve_intervals(
                self.pair.p, self.learned_p, self.k, self.eps, self.config, self.trace
            )
            if not self.sieve_p.rejected:
                self.sieve_q = sieve_intervals(
                    self.pair.q, self.learned_q, self.k, self.eps, self.config, self.trace
                )
            span.set(
                rejected_p=self.sieve_p.rejected,
                rejected_q=bool(self.sieve_q.rejected) if self.sieve_q else False,
                removed=(
                    self.sieve_p.num_removed
                    + (self.sieve_q.num_removed if self.sieve_q else 0)
                ),
            )
        for name, result in (("p", self.sieve_p), ("q", self.sieve_q)):
            if result is not None and result.rejected:
                return self._exit(
                    accept=False,
                    stage="sieve",
                    reason=f"stream {name}: {result.reason}",
                )
        return None

    def run_check(self) -> ClosenessVerdict | None:
        """Stage 4: sample-free gate on the learned flattenings.

        Rejects when ``dTV(p̂, q̂)`` restricted to the jointly-kept domain
        already exceeds the (generous) gate — each learner is ε/40-accurate
        under the promise, so ``p = q`` implies a learned distance ≈ ε/20,
        far below the 0.5ε gate; clearly-far pairs exit here sample-free.
        """
        if self._degenerate:
            return None
        kept = self.kept_intervals
        kept_points = self.partition.restrict_mask(list(np.flatnonzero(kept)))
        tolerance = self.config.closeness_check_tolerance(self.eps)
        with self._log.stage("check") as span:
            diff = np.abs(self.learned_p.to_pmf() - self.learned_q.to_pmf())
            distance = 0.5 * float(diff[kept_points].sum())
            close = distance <= tolerance
            span.set(close=bool(close), distance=distance)
        if not close:
            return self._exit(
                accept=False,
                stage="check",
                reason=(
                    f"learned flattenings are {distance:.4g} apart in TV on "
                    f"the jointly-kept domain (> {tolerance:.4g})"
                ),
            )
        return None

    @property
    def kept_intervals(self) -> np.ndarray:
        """The jointly-kept interval mask (intersection of both sieves)."""
        return self.sieve_p.kept & self.sieve_q.kept

    # -- stage 5: paired final test, stepped ---------------------------------

    def begin_final_test(self) -> ClosenessFinalPlan:
        """Open the chi2 stage and fix the paired test parameters.

        The per-stream rate ``m`` scales with ``√B`` for ``B`` kept
        intervals — the domain reduction is what makes closeness cheaper
        than two identity tests.  No ``A_ε`` truncation mask is needed: the
        paired terms are exactly mean-zero under the null regardless of the
        cell masses, and empty cells contribute zero by construction.
        """
        kept = self.kept_intervals
        num_kept = max(1, int(kept.sum()))
        eps_final = self.config.closeness_final_eps(self.eps)
        self._plan = ClosenessFinalPlan(
            m=self.config.closeness_samples(num_kept, eps_final),
            repeats=self.config.chi2_repeat_count(self.k),
            eps_final=eps_final,
            mask=kept,
        )
        self._final = self._log.begin("chi2")
        return self._plan

    def draw_final_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Draw the per-stream ``(repeats, n)`` Poissonized count matrices.

        Draw order is fixed (per repeat: stream p, then stream q) so the
        joint budget depletes evenly and replays are byte-identical.
        """
        plan = self._plan
        counts_p, counts_q = [], []
        for _ in range(plan.repeats):
            counts_p.append(self.pair.p.draw_counts_poissonized(plan.m))
            counts_q.append(self.pair.q.draw_counts_poissonized(plan.m))
        return np.stack(counts_p), np.stack(counts_q)

    def finish_final_test(self, z_per_interval: np.ndarray) -> ClosenessVerdict:
        """Threshold the (externally computed) paired statistics."""
        z_per_interval = np.asarray(z_per_interval, dtype=np.float64)
        plan = self._plan
        handle = self._final
        statistic = float(z_per_interval.sum())
        threshold = (
            self.config.closeness_accept_fraction * plan.m * plan.eps_final**2
        )
        chi2 = Chi2Result(
            accept=statistic <= threshold,
            statistic=statistic,
            threshold=threshold,
            m=plan.m,
            interval_statistics=z_per_interval,
            samples_used=self.pair.samples_drawn - handle.mark,
        )
        handle.span.set(
            statistic=chi2.statistic, threshold=chi2.threshold, accept=chi2.accept
        )
        self._final = None
        self._log.end(handle)
        reason = (
            f"paired closeness statistic {chi2.statistic:.4g} "
            f"{'<=' if chi2.accept else '>'} threshold {chi2.threshold:.4g}"
        )
        return self._exit(accept=chi2.accept, stage="chi2", reason=reason, chi2=chi2)

    @property
    def final_plan(self) -> ClosenessFinalPlan | None:
        return self._plan

    @property
    def final_in_flight(self) -> bool:
        return self._final is not None

    def close_final_test(self) -> None:
        """Close an open chi2 stage without a verdict (failure path)."""
        if self._final is not None:
            handle, self._final = self._final, None
            self._log.end(handle)

    def abort(self) -> int:
        """Abandon the pipeline mid-flight and reconcile what was drawn.

        Same contract as the one-sample pipeline: closes any open stage and
        demands exact integer reconciliation of the *joint* draw total.
        """
        self.close_final_test()
        samples = self.pair.samples_drawn - self.start
        if self._ledger is None:
            return samples  # failed before prepare(): nothing was drawn
        return _finish(self.trace, self._ledger, samples)

    # -- drivers -------------------------------------------------------------

    def run(self) -> ClosenessVerdict:
        """Run every stage in order (the single-call driver)."""
        verdict = self.prepare()
        if verdict is None:
            self.run_partition()
            self.run_learn()
            verdict = self.run_sieve()
        if verdict is None:
            verdict = self.run_check()
        if verdict is None:
            plan = self.begin_final_test()
            try:
                counts_p, counts_q = self.draw_final_counts()
                z = median_paired_interval_statistics(
                    counts_p, counts_q, self.partition, plan.mask
                )
            except BaseException:
                self.close_final_test()
                raise
            verdict = self.finish_final_test(z)
        return verdict

    def _exit(
        self,
        accept: bool,
        stage: str,
        reason: str,
        chi2: Chi2Result | None = None,
    ) -> ClosenessVerdict:
        samples_used = _finish(
            self.trace, self._ledger, self.pair.samples_drawn - self.start
        )
        return ClosenessVerdict(
            accept=accept,
            stage=stage,
            reason=reason,
            samples_used=samples_used,
            samples_p=self.pair.p.samples_drawn - self._start_p,
            samples_q=self.pair.q.samples_drawn - self._start_q,
            k=self.k,
            eps=self.eps,
            partition=self.partition,
            learned_p=self.learned_p,
            learned_q=self.learned_q,
            sieve_p=self.sieve_p,
            sieve_q=self.sieve_q,
            chi2=chi2,
            stage_samples=dict(self._log.stage_samples),
            stage_timings=dict(self._log.stage_timings),
        )


def test_closeness(
    source_p: DiscreteDistribution | SampleSource | PairedSampleSource,
    source_q: DiscreteDistribution | SampleSource | None = None,
    k: int = 1,
    eps: float = 0.25,
    *,
    config: TesterConfig | None = None,
    rng: RandomState = None,
    trace: Tracer = NULL_TRACER,
) -> ClosenessVerdict:
    """Test whether two unknown k-histogram distributions are equal.

    A thin wrapper over :class:`ClosenessPipeline` — construct it, run every
    stage in order, count the verdict.

    Parameters
    ----------
    source_p, source_q:
        The two unknown distributions — raw
        :class:`~repro.distributions.discrete.DiscreteDistribution` objects
        (wrapped into a :class:`~repro.distributions.sampling.PairedSampleSource`
        with ``rng``), existing per-stream sources (fault-injecting wrappers
        compose), or a ready-made pair as ``source_p`` with
        ``source_q=None``.
    k:
        The histogram-pieces promise on both distributions.
    eps:
        The TV-distance proximity parameter.
    config:
        Constant profile; defaults to :meth:`TesterConfig.practical`.
    trace:
        Observability sink; one span per stage plus a final ``ledger``
        event reconciling the joint draws of both streams.

    Returns
    -------
    ClosenessVerdict
        ``accept`` ≈ "``p = q``" (w.p. ≥ 2/3 when true); ``not accept`` ≈
        "``dTV(p, q) ≥ ε``" (w.p. ≥ 2/3 when true, under the promise).
    """
    pipeline = ClosenessPipeline(
        source_p,
        source_q,
        k,
        eps,
        config=config,
        rng=rng,
        trace=trace,
    )
    with trace.span(
        "test_closeness", n=pipeline.n, k=k, eps=eps, task="closeness"
    ) as run_span:
        verdict = pipeline.run()
        run_span.set(
            accept=verdict.accept,
            stage=verdict.stage,
            samples_used=verdict.samples_used,
        )
    get_metrics().counter(
        "closeness.verdicts", stage=verdict.stage, accept=verdict.accept
    ).inc()
    return verdict


# The public name begins with "test_", which pytest would otherwise collect
# from any test module importing it.
test_closeness.__test__ = False  # type: ignore[attr-defined]


class ClosenessTester:
    """Object-style façade over :func:`test_closeness` (one configuration,
    many trials) — the closeness sibling of
    :class:`~repro.core.tester.HistogramTester`."""

    def __init__(
        self,
        k: int,
        eps: float,
        config: TesterConfig | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        self.k = k
        self.eps = eps
        self.config = config if config is not None else TesterConfig.practical()

    def test(
        self,
        p: DiscreteDistribution | SampleSource | PairedSampleSource,
        q: DiscreteDistribution | SampleSource | None = None,
        rng: RandomState = None,
        trace: Tracer = NULL_TRACER,
    ) -> ClosenessVerdict:
        """Run one paired test; see :func:`test_closeness`."""
        return test_closeness(
            p,
            q,
            self.k,
            self.eps,
            config=self.config,
            rng=rng,
            trace=trace,
        )

    def expected_samples(self, n: int) -> float:
        """Closed-form joint budget estimate on a size-``n`` domain."""
        return closeness_budget(n, self.k, self.eps, self.config)
