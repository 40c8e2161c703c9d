"""End-to-end tests for Algorithm 1 (Theorem 3.1).

Statistical assertions use 12–20 trials with generous margins; at the
observed per-trial success rates (≥ 0.95 on these workloads) each
assertion's flake probability is below 1e-6 (Chernoff; see
``repro.util.stats.chernoff_flake_bound``).
"""

import numpy as np
import pytest

from repro.core.budget import algorithm1_budget
from repro.core.config import TesterConfig
from repro.core.tester import HistogramTester, Verdict, test_histogram
from repro.distributions import families
from repro.distributions.sampling import SampleSource


N, K, EPS = 3000, 5, 0.3
CFG = TesterConfig.practical()


def accept_rate(make_dist, k=K, eps=EPS, trials=12, config=CFG, seed0=0):
    hits = 0
    for seed in range(trials):
        dist = make_dist(np.random.default_rng(seed))
        hits += test_histogram(dist, k, eps, config=config, rng=1000 + seed).accept
    return hits / trials


class TestCompleteness:
    def test_staircase(self):
        rate = accept_rate(lambda g: families.staircase(N, K).to_distribution())
        assert rate >= 0.75

    def test_random_histograms(self):
        rate = accept_rate(
            lambda g: families.random_histogram(N, K, g, min_width=N // (8 * K)).to_distribution()
        )
        assert rate >= 0.75

    def test_uniform_any_k(self):
        for k in (1, 2, 7):
            assert test_histogram(families.uniform(N), k, EPS, config=CFG, rng=5).accept

    def test_smaller_k_distribution_accepted_at_larger_k(self):
        # H_2 ⊂ H_5: a 2-histogram must be accepted when testing H_5.
        dist = families.staircase(N, 2, ratio=4.0).to_distribution()
        rate = accept_rate(lambda g: dist)
        assert rate >= 0.75


class TestSoundness:
    def test_sawtooth_uniform(self):
        rate = accept_rate(lambda g: families.far_from_hk(N, K, EPS, g))
        assert rate <= 0.25

    def test_sawtooth_staircase_base(self):
        base = families.staircase(N, 2, ratio=1.5)
        rate = accept_rate(lambda g: families.far_from_hk(N, K, EPS, g, base=base))
        assert rate <= 0.25

    def test_paninski_family(self):
        from repro.lowerbounds.paninski import paninski_instance

        rate = accept_rate(lambda g: paninski_instance(N, EPS / 2, g, c=3.0), eps=EPS / 2)
        assert rate <= 0.25

    def test_many_pieces_vs_small_k(self):
        # A strong 12-step staircase is far from H_2.
        from repro.distributions.projection import unconstrained_l1_distance

        dist = families.staircase(N, 12, ratio=2.0).to_distribution()
        eps = 0.2
        assert unconstrained_l1_distance(dist.pmf[: 2048], 2) >= 0  # sanity on shape
        rate = accept_rate(lambda g: dist, k=2, eps=eps)
        assert rate <= 0.25


class TestMechanics:
    def test_trivial_k_geq_n(self):
        v = test_histogram(families.uniform(10), 10, 0.5, rng=0)
        assert v.accept and v.stage == "trivial" and v.samples_used == 0

    def test_plugin_fallback_regime(self):
        # k·log k/eps comparable to n triggers the plug-in path.
        v = test_histogram(families.uniform(64), 20, 0.2, config=CFG, rng=0)
        assert v.stage in ("plugin", "trivial")
        assert v.accept

    def test_plugin_fallback_soundness(self):
        dist = families.far_from_hk(200, 3, 0.4, rng=1)
        v = test_histogram(dist, 40, 0.4, config=CFG, rng=2)
        assert v.stage == "plugin"
        assert not v.accept

    def test_verdict_fields_populated(self):
        dist = families.staircase(N, K).to_distribution()
        v = test_histogram(dist, K, EPS, config=CFG, rng=3)
        assert isinstance(v, Verdict)
        assert v.partition is not None and v.learned is not None
        assert v.sieve is not None
        assert set(v.stage_samples) >= {"partition", "learn", "sieve"}
        assert bool(v) == v.accept

    def test_samples_within_budget_formula(self):
        dist = families.staircase(N, K).to_distribution()
        bound = algorithm1_budget(N, K, EPS, config=CFG)
        for seed in range(5):
            v = test_histogram(dist, K, EPS, config=CFG, rng=seed)
            assert v.samples_used <= bound * 1.01

    def test_stage_samples_sum_exactly(self):
        # Integer-exact accounting: the per-stage ledger must reconcile with
        # the verdict total to the unit, not approximately.
        dist = families.staircase(N, K).to_distribution()
        v = test_histogram(dist, K, EPS, config=CFG, rng=4)
        assert isinstance(v.samples_used, int)
        assert all(isinstance(s, int) for s in v.stage_samples.values())
        assert sum(v.stage_samples.values()) == v.samples_used

    def test_stage_timings_populated(self):
        dist = families.staircase(N, K).to_distribution()
        v = test_histogram(dist, K, EPS, config=CFG, rng=4)
        assert set(v.stage_timings) >= {"partition", "learn", "sieve", "check"}
        assert all(t >= 0.0 for t in v.stage_timings.values())

    def test_accepts_sample_source(self):
        src = SampleSource(families.uniform(N), rng=0)
        v = test_histogram(src, 1, 0.4, config=CFG)
        assert v.samples_used == pytest.approx(src.samples_drawn)

    def test_validation(self):
        with pytest.raises(ValueError):
            test_histogram(families.uniform(10), 0, 0.3)
        with pytest.raises(ValueError):
            test_histogram(families.uniform(10), 2, 1.5)

    def test_budget_scale_knob(self):
        dist = families.staircase(N, K).to_distribution()
        small = test_histogram(dist, K, EPS, config=CFG.scaled(0.25), rng=5)
        full = test_histogram(dist, K, EPS, config=CFG, rng=6)
        assert small.samples_used < full.samples_used


class TestSieveDisabled:
    """The sieve_enabled=False ablation config (used by experiment E15)."""

    NO_SIEVE = TesterConfig.practical(sieve_enabled=False)

    def test_skips_sieve_stage(self):
        dist = families.uniform(N)
        v = test_histogram(dist, 2, EPS, config=self.NO_SIEVE, rng=0)
        assert v.stage_samples["sieve"] == 0.0
        assert v.sieve is not None and v.sieve.num_removed == 0

    def test_uniform_still_accepted(self):
        # No breakpoints -> nothing for the sieve to do -> still complete.
        assert test_histogram(families.uniform(N), 1, EPS, config=self.NO_SIEVE, rng=1).accept

    def test_misaligned_histogram_now_rejected(self):
        """The Section 1.3 failure mode: without the sieve the breakpoint
        intervals' chi2 blow-up rejects true histograms."""
        dist = families.staircase(N, K, ratio=3.0).to_distribution()
        accepts = sum(
            test_histogram(dist, K, EPS, config=self.NO_SIEVE, rng=s).accept
            for s in range(8)
        )
        assert accepts <= 4  # completeness collapses

    def test_soundness_retained(self):
        hits = 0
        for s in range(8):
            far = families.far_from_hk(N, K, EPS, rng=s)
            hits += not test_histogram(far, K, EPS, config=self.NO_SIEVE, rng=60 + s).accept
        assert hits >= 6

    def test_budget_excludes_sieve(self):
        assert algorithm1_budget(N, K, EPS, self.NO_SIEVE) < algorithm1_budget(N, K, EPS, CFG)


class TestFacade:
    def test_histogram_tester_object(self):
        tester = HistogramTester(K, EPS, CFG)
        v = tester.test(families.staircase(N, K).to_distribution(), rng=0)
        assert isinstance(v, Verdict)
        assert tester.expected_samples(N) == algorithm1_budget(N, K, EPS, config=CFG)

    def test_facade_validation(self):
        with pytest.raises(ValueError):
            HistogramTester(0, 0.3)
        with pytest.raises(ValueError):
            HistogramTester(2, 0.0)

    def test_default_config_is_practical(self):
        assert HistogramTester(2, 0.3).config.profile == "practical"


class TestReproducibility:
    def test_same_seed_same_verdict(self):
        dist = families.staircase(N, K).to_distribution()
        a = test_histogram(dist, K, EPS, config=CFG, rng=42)
        b = test_histogram(dist, K, EPS, config=CFG, rng=42)
        assert a.accept == b.accept
        assert a.samples_used == b.samples_used
        assert a.stage == b.stage
