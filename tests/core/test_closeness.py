"""Unit tests for the DKN17 two-sample closeness tester.

Statistical calibration lives in ``tests/calibration``; here we pin the
pipeline mechanics: regime dispatch (trivial / degenerate / main path),
verdict accounting (joint total = per-stream split = stage sums, all exact
integers), budget-formula validation, the stepped protocol including
mid-flight abort, and the input-normalisation contract of
``as_paired_source``.
"""

import numpy as np
import pytest

from repro.core.closeness import (
    CLOSENESS_STAGE_ORDER,
    ClosenessPipeline,
    ClosenessTester,
    as_paired_source,
    closeness_budget,
    test_closeness,
)
from repro.core.config import TesterConfig
from repro.distributions import families
from repro.distributions.sampling import PairedSampleSource, SampleSource
from repro.experiments.workloads import make_pair

CFG = TesterConfig.practical()


def _pair(name, n, k, eps, seed=0):
    return make_pair(name, n, k, eps, np.random.default_rng(seed))


class TestClosenessBudget:
    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="n must be positive"):
            closeness_budget(0, 2, 0.3)
        with pytest.raises(ValueError, match="k must be at least 1"):
            closeness_budget(100, 0, 0.3)
        for bad_eps in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="eps"):
                closeness_budget(100, 2, bad_eps)

    def test_degenerate_regime_is_paired_plugin(self):
        """When 2b+2 ≥ n/2 the budget is exactly two plug-in streams."""
        n, k, eps = 400, 4, 0.3
        assert 2 * CFG.partition_b(k, eps) + 2 >= n / 2
        repeats = CFG.chi2_repeat_count(k)
        eps_final = CFG.closeness_final_eps(eps)
        expected = 2 * repeats * CFG.closeness_samples(n, eps_final)
        assert closeness_budget(n, k, eps, CFG) == float(expected)

    def test_main_regime_sublinear_in_n(self):
        """The point of the reduction: on the main path the final test costs
        O(√b), so doubling n moves the budget by far less than 2×."""
        at_4k = closeness_budget(4000, 6, 0.3, CFG)
        at_8k = closeness_budget(8000, 6, 0.3, CFG)
        assert at_8k < 1.5 * at_4k

    def test_verdict_within_budget(self):
        p, q = _pair("identical-staircase", 2000, 4, 0.4)
        v = test_closeness(p, q, 4, 0.4, config=CFG, rng=0)
        assert v.samples_used <= closeness_budget(2000, 4, 0.4, CFG)


class TestRegimeDispatch:
    def test_trivial_single_point_domain(self):
        p = families.uniform(1)
        v = test_closeness(p, families.uniform(1), 3, 0.5, config=CFG, rng=0)
        assert v.accept and v.stage == "trivial"
        assert v.samples_used == 0
        assert v.samples_p == 0 and v.samples_q == 0
        assert v.stage_samples == {}

    def test_degenerate_skips_reduction_stages(self):
        """2b+2 ≥ n/2: paired plug-in on singletons, one chi2 stage only."""
        p, q = _pair("flattening-blind", 400, 4, 0.3)
        v = test_closeness(p, q, 4, 0.3, config=CFG, rng=0)
        assert v.stage == "chi2" and not v.accept
        assert set(v.stage_samples) == {"chi2"}
        assert len(v.partition) == 400  # singletons
        assert v.sieve_p.rounds == 0 and v.sieve_p.samples_used == 0
        assert v.sieve_p.kept.all()

    def test_degenerate_budget_is_exact(self):
        """The degenerate path draws exactly its closed-form budget."""
        p, q = _pair("flattening-blind", 400, 4, 0.3)
        v = test_closeness(p, q, 4, 0.3, config=CFG, rng=0)
        assert v.samples_used == int(closeness_budget(400, 4, 0.3, CFG))

    def test_main_path_runs_every_stage(self):
        p, q = _pair("identical-staircase", 2000, 4, 0.4)
        v = test_closeness(p, q, 4, 0.4, config=CFG, rng=0)
        assert v.stage == "chi2" and v.accept
        assert list(v.stage_samples) == list(CLOSENESS_STAGE_ORDER)
        assert v.partition is not None and len(v.partition) < 2000
        assert v.learned_p is not None and v.learned_q is not None

    def test_check_stage_rejects_far_pair_sample_free(self):
        p, q = _pair("shifted-staircase", 2000, 4, 0.4)
        v = test_closeness(p, q, 4, 0.4, config=CFG, rng=0)
        assert not v.accept and v.stage == "check"
        assert v.stage_samples["check"] == 0  # the gate draws nothing
        assert v.chi2 is None

    @pytest.mark.parametrize("bad_stream", ["p", "q"])
    def test_sieve_rejects_promise_violating_stream(self, bad_stream):
        """A non-histogram stream fails its own sieve, and the reason names
        the offending stream."""
        hist = families.staircase(2000, 4).to_distribution()
        sawtooth = families.far_from_hk(2000, 4, 0.4, np.random.default_rng(0))
        p, q = (sawtooth, hist) if bad_stream == "p" else (hist, sawtooth)
        v = test_closeness(p, q, 4, 0.4, config=CFG, rng=0)
        assert not v.accept and v.stage == "sieve"
        assert v.reason.startswith(f"stream {bad_stream}:")


class TestVerdictAccounting:
    """The satellite contract: integer-exact joint accounting on every path."""

    CASES = {
        "chi2-accept": ("identical-staircase", 2000, 4, 0.4),
        "check-reject": ("shifted-staircase", 2000, 4, 0.4),
        "degenerate": ("flattening-blind", 400, 4, 0.3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_joint_split_and_stage_sums_agree(self, case):
        name, n, k, eps = self.CASES[case]
        p, q = _pair(name, n, k, eps)
        v = test_closeness(p, q, k, eps, config=CFG, rng=0)
        assert isinstance(v.samples_used, int)
        assert v.samples_used == v.samples_p + v.samples_q
        assert sum(v.stage_samples.values()) == v.samples_used
        assert all(
            isinstance(s, int) and not isinstance(s, bool)
            for s in v.stage_samples.values()
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pair_source_agrees_with_verdict(self, case):
        name, n, k, eps = self.CASES[case]
        pair = PairedSampleSource(*_pair(name, n, k, eps), np.random.default_rng(0))
        v = test_closeness(pair, k=k, eps=eps, config=CFG)
        assert pair.samples_drawn == v.samples_used
        assert pair.p.samples_drawn == v.samples_p
        assert pair.q.samples_drawn == v.samples_q

    def test_streams_split_roughly_evenly(self):
        """Partition halves the union draw; learner/sieve/final are
        symmetric — neither stream should dominate."""
        p, q = _pair("identical-staircase", 2000, 4, 0.4)
        v = test_closeness(p, q, 4, 0.4, config=CFG, rng=0)
        assert abs(v.samples_p - v.samples_q) <= 1 + 0.01 * v.samples_used

    def test_verdict_bool_is_accept(self):
        p, q = _pair("identical-staircase", 2000, 4, 0.4)
        v = test_closeness(p, q, 4, 0.4, config=CFG, rng=0)
        assert bool(v) is v.accept is True
        p, q = _pair("shifted-staircase", 2000, 4, 0.4)
        assert not test_closeness(p, q, 4, 0.4, config=CFG, rng=0)


class TestSteppedPipeline:
    def _pipeline(self, name="identical-staircase", n=2000, k=4, eps=0.4):
        p, q = _pair(name, n, k, eps)
        return ClosenessPipeline(p, q, k, eps, config=CFG, rng=0)

    def test_validates_arguments(self):
        p, q = _pair("identical-staircase", 2000, 4, 0.4)
        with pytest.raises(ValueError, match="k must be at least 1"):
            ClosenessPipeline(p, q, 0, 0.4, config=CFG, rng=0)
        with pytest.raises(ValueError, match="eps"):
            ClosenessPipeline(p, q, 4, 0.0, config=CFG, rng=0)

    def test_stepped_matches_run(self):
        from repro.core.chi2 import median_paired_interval_statistics

        whole = self._pipeline().run()
        pipeline = self._pipeline()
        assert pipeline.prepare() is None
        pipeline.run_partition()
        pipeline.run_learn()
        assert pipeline.run_sieve() is None
        assert pipeline.run_check() is None
        plan = pipeline.begin_final_test()
        assert pipeline.final_in_flight
        counts_p, counts_q = pipeline.draw_final_counts()
        assert counts_p.shape == counts_q.shape == (plan.repeats, pipeline.n)
        z = median_paired_interval_statistics(
            counts_p, counts_q, pipeline.partition, plan.mask
        )
        stepped = pipeline.finish_final_test(z)
        assert not pipeline.final_in_flight
        assert (stepped.accept, stepped.stage) == (whole.accept, whole.stage)
        assert stepped.samples_used == whole.samples_used
        assert stepped.chi2.statistic == whole.chi2.statistic

    def test_budget_cap_trivial_and_main(self):
        assert ClosenessPipeline(
            families.uniform(1), families.uniform(1), 2, 0.3, config=CFG, rng=0
        ).budget_cap() == 0
        pipeline = self._pipeline()
        assert pipeline.budget_cap() == int(
            np.ceil(closeness_budget(2000, 4, 0.4, CFG))
        )

    def test_abort_mid_sieve_reconciles(self):
        """Abandoning after partial stages still balances the joint ledger."""
        pipeline = self._pipeline()
        assert pipeline.prepare() is None
        pipeline.run_partition()
        pipeline.run_learn()
        drawn = pipeline.pair.samples_drawn
        assert drawn > 0
        assert pipeline.abort() == drawn

    def test_abort_with_final_test_in_flight(self):
        pipeline = self._pipeline()
        pipeline.prepare()
        pipeline.run_partition()
        pipeline.run_learn()
        pipeline.run_sieve()
        pipeline.run_check()
        pipeline.begin_final_test()
        pipeline.draw_final_counts()
        assert pipeline.final_in_flight
        assert pipeline.abort() == pipeline.pair.samples_drawn
        assert not pipeline.final_in_flight

    def test_abort_before_prepare_is_zero(self):
        assert self._pipeline().abort() == 0


class TestAsPairedSource:
    def test_wraps_two_distributions(self):
        pair = as_paired_source(families.uniform(8), families.uniform(8), 0)
        assert isinstance(pair, PairedSampleSource)
        assert pair.n == 8

    def test_wraps_two_sources(self):
        gen = np.random.default_rng(0)
        p = SampleSource(families.uniform(8), gen)
        q = SampleSource(families.uniform(8), gen)
        pair = as_paired_source(p, q, None)
        assert pair.p._base is p and pair.q._base is q

    def test_passthrough_pair(self):
        pair = PairedSampleSource(
            families.uniform(8), families.uniform(8), np.random.default_rng(0)
        )
        assert as_paired_source(pair, None, None) is pair

    def test_rejects_pair_with_q(self):
        pair = PairedSampleSource(
            families.uniform(8), families.uniform(8), np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="q must be None"):
            as_paired_source(pair, families.uniform(8), None)

    def test_rejects_pair_with_rng(self):
        pair = PairedSampleSource(
            families.uniform(8), families.uniform(8), np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="cannot reseed"):
            as_paired_source(pair, None, 7)

    def test_rejects_missing_q(self):
        with pytest.raises(ValueError, match="two distributions"):
            as_paired_source(families.uniform(8), None, 0)


class TestClosenessTesterFacade:
    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            ClosenessTester(0, 0.3)
        with pytest.raises(ValueError, match="eps"):
            ClosenessTester(2, 1.5)

    def test_matches_function_form(self):
        tester = ClosenessTester(4, 0.4, CFG)
        p, q = _pair("identical-staircase", 2000, 4, 0.4)
        via_facade = tester.test(p, q, rng=0)
        p, q = _pair("identical-staircase", 2000, 4, 0.4)
        via_function = test_closeness(p, q, 4, 0.4, config=CFG, rng=0)
        assert via_facade.accept == via_function.accept
        assert via_facade.samples_used == via_function.samples_used

    def test_expected_samples_is_budget(self):
        tester = ClosenessTester(4, 0.4, CFG)
        assert tester.expected_samples(2000) == closeness_budget(2000, 4, 0.4, CFG)


class TestDeterminism:
    @pytest.mark.parametrize(
        "name", ["identical-staircase", "shifted-staircase", "flattening-blind"]
    )
    def test_same_seed_same_verdict(self, name):
        n = 400 if name == "flattening-blind" else 2000
        runs = []
        for _ in range(2):
            p, q = _pair(name, n, 4, 0.4 if n == 2000 else 0.3)
            v = test_closeness(
                p, q, 4, 0.4 if n == 2000 else 0.3, config=CFG, rng=17
            )
            runs.append((v.accept, v.stage, v.samples_used, dict(v.stage_samples)))
        assert runs[0] == runs[1]
