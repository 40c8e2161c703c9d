"""Tests for the closed-form sample-complexity formulas."""

import pytest

from repro.core.budget import (
    algorithm1_budget,
    budget_table_row,
    cdgr16_budget,
    ilr12_budget,
    learn_offline_budget,
    paninski_lower_bound,
    support_size_lower_bound,
    theorem_lower_bound,
    theorem_upper_bound,
)
from repro.core.config import TesterConfig


class TestTheoremFormulas:
    def test_upper_bound_scalings(self):
        # sqrt(n) in the first term.
        big = theorem_upper_bound(4_000_000, 2, 0.1)
        small = theorem_upper_bound(1_000_000, 2, 0.1)
        assert big / small == pytest.approx(2.0, rel=0.15)
        # ~linear in k for the k-dominated regime.
        assert theorem_upper_bound(100, 512, 0.1) / theorem_upper_bound(100, 256, 0.1) > 1.8

    def test_lower_bound_below_upper(self):
        for n in (10**3, 10**6, 10**9):
            for k in (2, 16, 128):
                for eps in (0.05, 0.25):
                    assert theorem_lower_bound(n, k, eps) <= theorem_upper_bound(n, k, eps)

    def test_lower_bound_components(self):
        n, k, eps = 10**6, 64, 0.1
        assert theorem_lower_bound(n, k, eps) == pytest.approx(
            paninski_lower_bound(n, eps) + support_size_lower_bound(k, eps)
        )

    def test_decoupling_story(self):
        """Section 1.2's point: the new bound decouples n and k, the old
        ones don't — at large n with moderate k, this paper wins by a
        growing factor over both ILR12 and CDGR16."""
        k, eps = 16, 0.1
        for n in (10**6, 10**8):
            ours = theorem_upper_bound(n, k, eps)
            assert ilr12_budget(n, k, eps) > 10 * ours
            assert cdgr16_budget(n, k, eps) > 3 * ours
        # and the advantage grows with n:
        ratio_small = cdgr16_budget(10**6, k, eps) / theorem_upper_bound(10**6, k, eps)
        ratio_big = cdgr16_budget(10**10, k, eps) / theorem_upper_bound(10**10, k, eps)
        assert ratio_big > ratio_small

    def test_sublinear_vs_learn_offline(self):
        # The whole point: o(n) vs Θ(n).
        n = 10**8
        assert theorem_upper_bound(n, 8, 0.1) < learn_offline_budget(n, 0.1) / 100

    def test_ilr12_worse_eps_dependence(self):
        n, k = 10**6, 8
        ratio_coarse = ilr12_budget(n, k, 0.2) / cdgr16_budget(n, k, 0.2)
        ratio_fine = ilr12_budget(n, k, 0.02) / cdgr16_budget(n, k, 0.02)
        assert ratio_fine == pytest.approx(100 * ratio_coarse, rel=0.01)  # eps^-2 gap

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem_upper_bound(0, 2, 0.1)
        with pytest.raises(ValueError):
            theorem_upper_bound(10, 0, 0.1)
        with pytest.raises(ValueError):
            theorem_upper_bound(10, 2, 0.0)


class TestImplementationBudget:
    def test_matches_measured_usage(self):
        from repro.core.tester import test_histogram
        from repro.distributions import families

        n, k, eps = 2000, 4, 0.3
        cfg = TesterConfig.practical()
        bound = algorithm1_budget(n, k, eps, config=cfg)
        v = test_histogram(families.staircase(n, k).to_distribution(), k, eps, config=cfg, rng=0)
        assert v.samples_used <= bound
        # and the bound is not absurdly loose (within ~4x of actual usage).
        assert bound <= 4 * v.samples_used

    def test_trivial_regime_zero(self):
        assert algorithm1_budget(10, 20, 0.3) == 0.0

    def test_scales_with_budget_scale(self):
        cfg = TesterConfig.practical()
        assert algorithm1_budget(10_000, 4, 0.2, cfg.scaled(2.0)) == pytest.approx(
            2 * algorithm1_budget(10_000, 4, 0.2, cfg), rel=0.01
        )

    def test_reuse_mode_cheaper(self):
        fresh = algorithm1_budget(10_000, 8, 0.2, TesterConfig.practical())
        reuse = algorithm1_budget(
            10_000, 8, 0.2, TesterConfig.practical(fresh_sieve_samples=False)
        )
        assert reuse < fresh

    def test_table_row_keys(self):
        row = budget_table_row(1000, 4, 0.1)
        assert set(row) == {
            "n", "k", "eps", "this_paper_ub", "lower_bound", "ilr12", "cdgr16", "learn_offline",
        }
