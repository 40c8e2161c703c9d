"""Algorithm 1 — the k-histogram tester (Theorem 3.1), end to end.

Pipeline (paper line numbers in brackets):

1. **Partition** [3]: ``APPROXPART`` with ``b = Θ(k log k / ε)``.
2. **Learn** [4]: the Lemma 3.5 χ² learner on that partition → ``D̂``.
3. **Sieve** [6–8]: discard up to ``O(k log k)`` suspect intervals via
   per-interval χ² statistics; may already reject.
4. **Check** [10]: is some ``D* ∈ H_k`` within ``ε/60`` of ``D̂`` in TV
   restricted to the kept domain ``G``? (dynamic programming).
5. **Test** [13]: the [ADK15] χ²-vs-TV tester of ``D`` against ``D̂`` on
   ``G`` with parameter ``ε' = 13ε/30``.

The tester draws samples exclusively through a
:class:`~repro.distributions.sampling.SampleSource`, so the reported
``samples_used`` is exact and auditable: every executed stage is entered in
a :class:`~repro.observability.ledger.SampleLedger`, which is reconciled —
integer equality, no tolerance — against the source's draw counter on
*every* exit path before a :class:`Verdict` is returned.
``Verdict.stage_samples`` is that ledger's per-stage view, and the same
per-stage marks feed the trace spans and ``stage_timings``, so a
``--trace`` run and the verdict can never disagree.

The core is *batch-first*: :class:`TesterPipeline` runs on the stepped
driver of :mod:`repro.core.pipeline`, so a service multiplexing many
sessions (:mod:`repro.serve`) can pause every session at the final χ² test
and compute a whole batch of statistics in one vectorized pass;
:func:`test_histogram` runs the same steps in order, so the two paths
cannot drift.  Two *backends* plug into it (:mod:`repro.core.backends`):
``pods16`` is Algorithm 1 verbatim as above; ``cdkl22`` is the near-optimal
testing-by-learning variant (no sieve, projection gate, trimmed statistic,
adaptive two-stage schedule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.backends import (
    DEFAULT_BACKEND,
    backend_budget,
    backend_strategy,
    validate_backend,
)
from repro.core.chi2 import Chi2Result, median_interval_statistics
from repro.core.config import TesterConfig, check_k_eps
from repro.core.learner import learn_histogram
from repro.core.pipeline import FinalTestPlan, SteppedPipeline
from repro.core.sieve import SieveResult, sieve_intervals
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.histogram import Histogram
from repro.distributions.sampling import SampleSource, as_source
from repro.observability.trace import NULL_TRACER, Tracer
from repro.util.intervals import Partition
from repro.util.rng import RandomState

#: Canonical stage order of the pipeline (used by the CLI stage table and
#: trace summaries; early-exit verdicts record a prefix of it).
STAGE_ORDER = ("partition", "learn", "sieve", "check", "chi2", "plugin")


@dataclass(frozen=True)
class Verdict:
    """The tester's decision, with a full audit trail."""

    accept: bool
    stage: str  # "trivial" | "sieve" | "check" | "chi2" | "plugin"
    reason: str
    samples_used: int
    k: int
    eps: float
    partition: Optional[Partition] = None
    learned: Optional[Histogram] = None
    sieve: Optional[SieveResult] = None
    chi2: Optional[Chi2Result] = None
    #: Integer samples drawn per executed stage; sums *exactly* to
    #: ``samples_used`` (ledger-reconciled on every exit path).
    stage_samples: dict = field(default_factory=dict)
    #: Wall-clock seconds per stage (partition/learn/sieve/check/chi2),
    #: recorded with ``time.perf_counter``; purely observational — no
    #: decision depends on it.
    stage_timings: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.accept


class TesterPipeline(SteppedPipeline):
    """Stepped (batch-first) execution of Algorithm 1 over one source.

    Supplies the one-sample stage bodies of the shared driver
    (:class:`~repro.core.pipeline.SteppedPipeline`) and delegates the
    backend-specific steps to the ``backend`` strategy.  The final
    statistics of ``draw_final_counts()`` are
    ``median_interval_statistics(counts, plan.m, plan.reference_pmf,
    pipeline.partition, plan.mask)`` for the current ``plan =
    pipeline.final_plan``.
    """

    root_span = "test"
    verdict_counter = "tester.verdicts"

    def __init__(
        self,
        dist: DiscreteDistribution | SampleSource,
        k: int,
        eps: float,
        *,
        config: TesterConfig | None = None,
        rng: RandomState = None,
        backend: str = DEFAULT_BACKEND,
        trace: Tracer = NULL_TRACER,
    ) -> None:
        self.strategy = backend_strategy(backend)
        self.backend = backend
        self.source = as_source(dist, rng)
        super().__init__(self.source, k, eps, config=config, trace=trace)
        self.learned: Histogram | None = None
        self.sieve: SieveResult | None = None
        #: The final test's reference, fixed by the check gate (``D̂`` for
        #: pods16, the projection ``D* ∈ H_k`` for cdkl22).  Only the check
        #: sets it, so serve reads it to tell whether an attempt's check ran.
        self.reference: Histogram | None = None

    def budget_cap(self) -> int | None:
        """The backend's sample cap for this instance (``None`` when the
        trivial/plugin regimes apply and the formula does not)."""
        if self.k >= self.n:
            return 0
        b = self.config.partition_b(self.k, self.eps)
        if 2.0 * b + 2.0 >= self.n / 2.0:
            return None
        return int(self.strategy.budget(self.n, self.k, self.eps, self.config))

    # -- stage bodies ---------------------------------------------------------

    def _trivial_reason(self) -> str | None:
        # H_k for k >= n is all of Δ([n]): accept without drawing a sample.
        if self.k >= self.n:
            return f"k={self.k} >= n={self.n}: every distribution is an n-histogram"
        return None

    def _prepare_degenerate(self, b: float) -> Verdict:
        # Degenerate regime k·log k/ε = Ω(n): the partition would be almost
        # all singletons and Algorithm 1's budget exceeds the trivial one.
        # The paper's efficiency case is k = o(n) (Section 1.1: "one can
        # always … compute the closest histogram offline from O(n) data
        # points"); do exactly that here.  The plug-in draws Θ(n) samples,
        # outside the Algorithm 1 budget formula, so its ledger is uncapped.
        from repro.baselines.learn_offline import learn_offline_test

        self._open_ledger(None)
        with self._log.stage("plugin"):
            plugin = learn_offline_test(self.source, self.k, self.eps)
        return self._exit(
            accept=plugin.accept,
            stage="plugin",
            reason=(
                f"b={b:.0f} ~ n={self.n}: plug-in fallback; empirical distance "
                f"{plugin.plugin_distance:.4g} vs threshold {plugin.threshold:.4g}"
            ),
        )

    def _partition_source(self) -> SampleSource:
        return self.source

    def _learn(self) -> None:
        num_samples = self.strategy.learner_samples(self.config, len(self.partition), self.eps)
        self.learned = learn_histogram(self.source, self.partition, num_samples, self.trace)

    def _sieve(self) -> str | None:
        if self.strategy.skip_sieve is not None:
            self.sieve = SieveResult.keep_all(len(self.partition), self.strategy.skip_sieve)
            return None
        with self._log.stage("sieve") as span:
            if self.config.sieve_enabled:
                self.sieve = sieve_intervals(
                    self.source, self.learned, self.k, self.eps, self.config, self.trace
                )
            else:
                # Ablation mode (E15): keep everything; the breakpoint intervals'
                # chi2 mass flows straight into the final test.
                self.sieve = SieveResult.keep_all(
                    len(self.partition), "sieve disabled by configuration"
                )
            span.set(
                rounds=self.sieve.rounds,
                removed=self.sieve.num_removed,
                rejected=self.sieve.rejected,
            )
        return self.sieve.reason if self.sieve.rejected else None

    def _check(self, span) -> str | None:
        return self.strategy.check(self, span)

    def _final_test_plan(self) -> FinalTestPlan:
        eps_final, reference_pmf, mask = self.strategy.plan_final_test(self)
        return FinalTestPlan(
            m=self.config.chi2_samples(self.n, eps_final),
            repeats=self.config.chi2_repeat_count(self.k),
            eps_final=eps_final,
            reference_pmf=reference_pmf,
            mask=mask,
        )

    def draw_final_counts(self) -> np.ndarray:
        """Draw the ``(repeats, n)`` Poissonized count matrix for the test."""
        plan = self._plan
        # The per-repeat loop is deliberate: batching the draws would change
        # the RNG call sequence and with it every verdict.
        return np.stack(
            [self.source.draw_counts_poissonized(plan.m) for _ in range(plan.repeats)]
        )

    def _final_statistics(self, counts: np.ndarray) -> np.ndarray:
        plan = self._plan
        return median_interval_statistics(
            counts, plan.m, plan.reference_pmf, self.partition, plan.mask
        )

    def _decide(self, z: np.ndarray, plan: FinalTestPlan):
        statistic, attrs, prefix = self.strategy.statistic(self, z, plan)
        threshold = self.config.chi2_accept_fraction * plan.m * plan.eps_final * plan.eps_final
        escalated = self.strategy.escalate(self, plan, statistic, threshold)
        if escalated is not None:
            self._plan = escalated
            return None
        return statistic, threshold, attrs, prefix

    def _verdict(self, **fields) -> Verdict:
        return Verdict(learned=self.learned, sieve=self.sieve, **fields)

    def _root_attrs(self) -> dict:
        return {"backend": self.backend}


def test_histogram(
    dist: DiscreteDistribution | SampleSource,
    k: int,
    eps: float,
    *,
    config: TesterConfig | None = None,
    rng: RandomState = None,
    backend: str = DEFAULT_BACKEND,
    trace: Tracer = NULL_TRACER,
) -> Verdict:
    """Test whether the unknown distribution is a ``k``-histogram.

    A thin wrapper over :class:`TesterPipeline` — construct it, run every
    stage in order, count the verdict.

    Parameters
    ----------
    dist:
        The unknown distribution — either a raw
        :class:`~repro.distributions.discrete.DiscreteDistribution` (wrapped
        into a sample source with ``rng``) or an existing
        :class:`~repro.distributions.sampling.SampleSource`.  The tester
        only ever draws samples.
    k:
        The number of histogram pieces being tested for.
    eps:
        The TV-distance proximity parameter.
    config:
        Constant profile; defaults to :meth:`TesterConfig.practical`.
    backend:
        Which decision procedure runs ("pods16" | "cdkl22"; see
        :mod:`repro.core.backends`).  It changes budgets and (on marginal
        inputs) verdicts, so experiment checkpoints fingerprint it.
    trace:
        Observability sink (default: the no-op tracer).  A
        :class:`~repro.observability.trace.RecordingTracer` captures one
        span per stage, per-round sieve spans, and a final ``ledger``
        event reconciling every draw.

    Returns
    -------
    Verdict
        ``accept`` ≈ "``D ∈ H_k``" (guaranteed w.p. ≥ 2/3 when true);
        ``not accept`` ≈ "``dTV(D, H_k) ≥ ε``" (w.p. ≥ 2/3 when true).
    """
    return TesterPipeline(
        dist,
        k,
        eps,
        config=config,
        rng=rng,
        backend=backend,
        trace=trace,
    ).run_traced()


# The public name begins with "test_", which pytest would otherwise collect
# from any test module importing it.
test_histogram.__test__ = False  # type: ignore[attr-defined]


class HistogramTester:
    """Object-style façade over :func:`test_histogram`.

    Convenient when running many trials with one configuration::

        tester = HistogramTester(k=8, eps=0.2)
        verdict = tester.test(dist, rng=seed)
    """

    def __init__(
        self,
        k: int,
        eps: float,
        config: TesterConfig | None = None,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        check_k_eps(k, eps)
        self.k = k
        self.eps = eps
        self.config = config if config is not None else TesterConfig.practical()
        self.backend = validate_backend(backend)

    def test(
        self,
        dist: DiscreteDistribution | SampleSource,
        rng: RandomState = None,
        trace: Tracer = NULL_TRACER,
    ) -> Verdict:
        """Run one test; see :func:`test_histogram`."""
        return test_histogram(
            dist,
            self.k,
            self.eps,
            config=self.config,
            rng=rng,
            backend=self.backend,
            trace=trace,
        )

    def expected_samples(self, n: int) -> float:
        """Closed-form estimate of the sample budget on a size-``n`` domain."""
        return backend_budget(self.backend, n, self.k, self.eps, self.config)
