"""Tests for the SampleSource access discipline."""

import numpy as np
import pytest

from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.sampling import (
    PairedSampleSource,
    SampleBudgetExceeded,
    SampleSource,
    as_source,
    counts_from_samples,
)


class TestCountsFromSamples:
    def test_basic(self):
        counts = counts_from_samples(np.array([0, 2, 2, 1]), 4)
        assert counts.tolist() == [1, 1, 2, 0]

    def test_empty(self):
        assert counts_from_samples(np.array([], dtype=np.int64), 3).tolist() == [0, 0, 0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            counts_from_samples(np.array([3]), 3)
        with pytest.raises(ValueError):
            counts_from_samples(np.array([-1]), 3)


class TestSampleSource:
    def test_budget_accounting(self):
        src = SampleSource(DiscreteDistribution.uniform(10), rng=0)
        src.draw(100)
        src.draw_counts(50)
        src.draw_counts_poissonized(25.5)
        # Fractional Poissonized expectations are billed as ceil(m): the
        # ledger keeps integer-exact accounting and never under-charges.
        assert src.samples_drawn == 176
        assert isinstance(src.samples_drawn, int)

    def test_negative_draws_raise(self):
        src = SampleSource(DiscreteDistribution.uniform(4), rng=0)
        with pytest.raises(ValueError):
            src.draw(-1)
        with pytest.raises(ValueError):
            src.draw_counts(-1)
        with pytest.raises(ValueError):
            src.draw_counts_poissonized(-0.5)

    def test_n_exposed(self):
        assert SampleSource(DiscreteDistribution.uniform(7)).n == 7

    def test_permuted_source_marginals(self):
        # The Section-4.2 reduction samples the relabelled distribution.
        d = DiscreteDistribution(np.array([0.9, 0.05, 0.05]))
        sigma = np.array([2, 0, 1])
        src = SampleSource(d.permute(sigma), rng=1)
        counts = src.draw_counts(20_000)
        # Mass 0.9 moved to position sigma[0] = 2.  4+ sigma margin.
        assert counts[2] / 20_000 == pytest.approx(0.9, abs=0.02)


class TestBudgetCap:
    def test_cap_raises_typed_error(self):
        src = SampleSource(DiscreteDistribution.uniform(4), rng=0, max_samples=100)
        src.draw(90)
        with pytest.raises(SampleBudgetExceeded) as info:
            src.draw(11)
        assert info.value.requested == 11
        assert info.value.drawn == 90.0
        assert info.value.max_samples == 100.0
        # The failed draw served (and charged) nothing.
        assert src.samples_drawn == 90.0
        src.draw(10)  # exactly the cap is allowed

    def test_cap_applies_to_all_draw_kinds(self):
        src = SampleSource(DiscreteDistribution.uniform(4), rng=0, max_samples=10)
        with pytest.raises(SampleBudgetExceeded):
            src.draw_counts(11)
        with pytest.raises(SampleBudgetExceeded):
            src.draw_counts_poissonized(10.5)

    def test_uncapped_by_default(self):
        src = SampleSource(DiscreteDistribution.uniform(4), rng=0)
        src.draw(10**6)

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            SampleSource(DiscreteDistribution.uniform(4), max_samples=0)


class TestPairedSampleSource:
    """Joint budget over two streams: the accounting surface of the
    closeness tester (the paired-budget satellite of this PR)."""

    def _pair(self, **kwargs):
        return PairedSampleSource(
            DiscreteDistribution.uniform(6),
            DiscreteDistribution.uniform(6),
            rng=0,
            **kwargs,
        )

    def test_each_stream_keeps_its_own_audit_trail(self):
        pair = self._pair()
        pair.p.draw(30)
        pair.q.draw_counts(12)
        pair.q.draw_counts_poissonized(7.5)
        assert pair.p.samples_drawn == 30
        assert pair.q.samples_drawn == 20  # ceil(7.5) billed

    def test_joint_total_is_the_stream_sum(self):
        pair = self._pair()
        pair.p.draw(30)
        pair.q.draw(12)
        assert pair.samples_drawn == 42
        assert pair.samples_drawn == pair.p.samples_drawn + pair.q.samples_drawn
        assert isinstance(pair.samples_drawn, int)

    def test_one_joint_cap_governs_both_streams(self):
        pair = self._pair(max_samples=100)
        pair.p.draw(60)
        pair.q.draw(30)
        with pytest.raises(SampleBudgetExceeded) as info:
            pair.q.draw(11)  # fine per-stream, over jointly
        assert info.value.drawn == 90
        assert info.value.max_samples == 100
        # The refused draw charged nothing anywhere.
        assert pair.samples_drawn == 90
        assert pair.q.samples_drawn == 30
        pair.p.draw(10)  # exactly the joint cap is allowed

    def test_stream_max_samples_reports_the_joint_cap(self):
        pair = self._pair(max_samples=50)
        for stream in (pair.p, pair.q):
            with pytest.raises(SampleBudgetExceeded) as info:
                stream.draw(51)
            assert info.value.max_samples == 50
        self._pair().p.draw(10**6)  # uncapped by default

    def test_charge_first_survives_faulting_base(self):
        """Streams charge before delegating, so the joint invariant
        ``pair.samples_drawn == p + q`` holds even when a wrapped base
        source faults mid-draw."""

        class FaultingSource(SampleSource):
            def draw_counts(self, m):
                self._charge(m)
                raise RuntimeError("injected mid-draw fault")

        pair = PairedSampleSource(
            FaultingSource(DiscreteDistribution.uniform(6), rng=0),
            SampleSource(DiscreteDistribution.uniform(6), rng=1),
        )
        pair.q.draw(10)
        with pytest.raises(RuntimeError, match="injected"):
            pair.p.draw_counts(5)
        assert pair.samples_drawn == pair.p.samples_drawn + pair.q.samples_drawn

    def test_underlying_per_source_cap_stays_enforced(self):
        capped = SampleSource(DiscreteDistribution.uniform(6), rng=0, max_samples=10)
        pair = PairedSampleSource(
            capped, SampleSource(DiscreteDistribution.uniform(6), rng=1)
        )
        with pytest.raises(SampleBudgetExceeded):
            pair.p.draw(11)
        pair.q.draw(11)  # the other stream is unaffected

    def test_domains_must_match(self):
        with pytest.raises(ValueError, match="share a domain"):
            PairedSampleSource(
                DiscreteDistribution.uniform(4),
                DiscreteDistribution.uniform(5),
                rng=0,
            )

    def test_existing_sources_cannot_be_reseeded(self):
        with pytest.raises(ValueError, match="cannot reseed"):
            PairedSampleSource(
                SampleSource(DiscreteDistribution.uniform(4), rng=0),
                SampleSource(DiscreteDistribution.uniform(4), rng=1),
                rng=2,
            )

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError, match="max_samples must be positive"):
            self._pair(max_samples=0)

    def test_seeded_pair_is_reproducible(self):
        a, b = self._pair(), self._pair()
        assert np.array_equal(a.p.draw(20), b.p.draw(20))
        assert np.array_equal(a.q.draw(20), b.q.draw(20))


class TestAsSource:
    def test_wraps_distribution(self):
        src = as_source(DiscreteDistribution.uniform(5), rng=0)
        assert isinstance(src, SampleSource)

    def test_passes_source_through(self):
        src = SampleSource(DiscreteDistribution.uniform(5), rng=0)
        assert as_source(src) is src

    def test_rejects_reseeding_a_source(self):
        src = SampleSource(DiscreteDistribution.uniform(5), rng=0)
        with pytest.raises(ValueError):
            as_source(src, rng=1)
