"""Tests for the fault-injecting sample source."""

import numpy as np
import pytest

from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.sampling import (
    SampleBudgetExceeded,
    SampleSource,
    counts_from_samples,
)
from repro.robustness.faults import (
    CorruptSampleError,
    FaultConfig,
    FaultInjectingSource,
    InjectedStreamFailure,
)


def _pair(n=32, seed=7, config=FaultConfig(), max_samples=None):
    """A bare source and a fault-wrapped source over identical streams."""
    dist = DiscreteDistribution.uniform(n)
    bare = SampleSource(dist, rng=seed, max_samples=max_samples)
    wrapped = FaultInjectingSource(
        SampleSource(dist, rng=seed, max_samples=max_samples), config, fault_rng=99
    )
    return bare, wrapped


class TestConfigValidation:
    def test_rates_bounded(self):
        with pytest.raises(ValueError):
            FaultConfig(contamination_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(out_of_domain_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(duplication_rate=2.0)

    def test_schedule_one_based(self):
        with pytest.raises(ValueError):
            FaultConfig(fail_at_draws=frozenset({0}))

    def test_noop_detection(self):
        assert FaultConfig().is_noop
        assert not FaultConfig(contamination_rate=0.1).is_noop
        assert not FaultConfig(fail_at_draws=frozenset({3})).is_noop

    def test_seeded_schedule_deterministic(self):
        a = FaultConfig().with_failure_schedule(5, mean_interval=4, horizon=100)
        b = FaultConfig().with_failure_schedule(5, mean_interval=4, horizon=100)
        c = FaultConfig().with_failure_schedule(6, mean_interval=4, horizon=100)
        assert a.fail_at_draws == b.fail_at_draws
        assert a.fail_at_draws  # mean gap 4 over 100 calls: some failures
        assert a.fail_at_draws != c.fail_at_draws
        assert all(1 <= call <= 100 for call in a.fail_at_draws)


class TestRateZeroPassthrough:
    """Contamination at rate 0 must be byte-identical to the bare source."""

    def test_draw(self):
        bare, wrapped = _pair()
        assert np.array_equal(bare.draw(500), wrapped.draw(500))

    def test_draw_counts(self):
        bare, wrapped = _pair()
        assert np.array_equal(bare.draw_counts(300), wrapped.draw_counts(300))

    def test_draw_counts_poissonized(self):
        bare, wrapped = _pair()
        assert np.array_equal(
            bare.draw_counts_poissonized(250.0),
            wrapped.draw_counts_poissonized(250.0),
        )

    def test_interleaved(self):
        bare, wrapped = _pair()
        for _ in range(3):
            assert np.array_equal(bare.draw(17), wrapped.draw(17))
            assert np.array_equal(bare.draw_counts(11), wrapped.draw_counts(11))
        assert bare.samples_drawn == wrapped.samples_drawn


class TestScheduledFailures:
    def test_fires_exactly_on_scheduled_draws(self):
        config = FaultConfig(fail_at_draws=frozenset({2, 4}))
        _, wrapped = _pair(config=config)
        wrapped.draw(5)  # call 1: fine
        with pytest.raises(InjectedStreamFailure) as info:
            wrapped.draw(5)  # call 2: scheduled
        assert info.value.call == 2
        wrapped.draw_counts(5)  # call 3: fine
        with pytest.raises(InjectedStreamFailure):
            wrapped.draw_counts_poissonized(5.0)  # call 4: scheduled
        wrapped.draw(5)  # call 5: fine
        assert wrapped.samples_drawn == 15  # three served calls of 5 samples

    def test_failed_call_charges_no_budget(self):
        config = FaultConfig(fail_at_draws=frozenset({1}))
        _, wrapped = _pair(config=config)
        with pytest.raises(InjectedStreamFailure):
            wrapped.draw(100)
        assert wrapped.samples_drawn == 0.0


class TestContamination:
    def test_point_mass_contaminant_shifts_marginals(self):
        contaminant = DiscreteDistribution.point_mass(32, at=0)
        config = FaultConfig(contamination_rate=0.5, contaminant=contaminant)
        _, wrapped = _pair(config=config)
        m = 40_000
        samples = wrapped.draw(m)
        frac = np.mean(samples == 0)
        # Expected: 0.5 (contaminant) + 0.5/32 (clean uniform) ≈ 0.516.
        assert frac == pytest.approx(0.5 + 0.5 / 32, abs=0.02)

    def test_counts_paths_realise_mixture(self):
        contaminant = DiscreteDistribution.point_mass(32, at=3)
        config = FaultConfig(contamination_rate=0.4, contaminant=contaminant)
        _, wrapped = _pair(config=config)
        m = 50_000
        counts = wrapped.draw_counts(m)
        assert counts.sum() == m
        assert counts[3] / m == pytest.approx(0.4 + 0.6 / 32, abs=0.02)
        pois = wrapped.draw_counts_poissonized(float(m))
        assert pois[3] / m == pytest.approx(0.4 + 0.6 / 32, abs=0.02)

    def test_budget_charged_in_full(self):
        config = FaultConfig(contamination_rate=0.5)
        _, wrapped = _pair(config=config)
        wrapped.draw_counts(1000)
        wrapped.draw_counts_poissonized(500.0)
        assert wrapped.samples_drawn == 1500

    def test_fractional_poissonized_draw_billed_as_ceil(self):
        # The clean and contaminant shares are 350.35 and 150.15; billing
        # the contaminant as the remainder against ceil(500.5) keeps the
        # batch at exactly the 501 a clean draw would bill.
        config = FaultConfig(contamination_rate=0.3)
        _, wrapped = _pair(config=config)
        wrapped.draw_counts_poissonized(500.5)
        assert wrapped.samples_drawn == 501
        assert isinstance(wrapped.samples_drawn, int)

    def test_budget_cap_enforced_through_wrapper(self):
        config = FaultConfig(contamination_rate=0.5)
        _, wrapped = _pair(config=config, max_samples=100)
        with pytest.raises(SampleBudgetExceeded):
            wrapped.draw_counts(101)
        assert wrapped.samples_drawn == 0.0

    def test_contaminant_domain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FaultInjectingSource(
                SampleSource(DiscreteDistribution.uniform(8), rng=0),
                FaultConfig(
                    contamination_rate=0.1,
                    contaminant=DiscreteDistribution.uniform(9),
                ),
            )


class TestOutOfDomain:
    def test_sequential_corruption_visible_downstream(self):
        config = FaultConfig(out_of_domain_rate=1.0)
        _, wrapped = _pair(config=config)
        samples = wrapped.draw(50)
        assert (samples >= wrapped.n).all()
        with pytest.raises(ValueError):
            counts_from_samples(samples, wrapped.n)

    def test_counts_path_raises(self):
        config = FaultConfig(out_of_domain_rate=0.5)
        _, wrapped = _pair(config=config)
        with pytest.raises(CorruptSampleError):
            wrapped.draw_counts(1000)
        with pytest.raises(CorruptSampleError):
            wrapped.draw_counts_poissonized(1000.0)


class TestDuplication:
    def test_rate_one_shifts_stream_by_one(self):
        bare, wrapped = _pair(config=FaultConfig(duplication_rate=1.0))
        clean = bare.draw(100)
        stale = wrapped.draw(100)
        # Every delivered sample is its predecessor: a one-step stale shift.
        assert np.array_equal(stale[1:], clean[:-1])
        assert stale[0] == clean[0]

    def test_staleness_carries_across_calls(self):
        bare, wrapped = _pair(config=FaultConfig(duplication_rate=1.0))
        bare.draw(10)
        delivered = wrapped.draw(10)
        stale_b = wrapped.draw(1)
        # The stale read repeats the last *delivered* sample of the prior call.
        assert stale_b[0] == delivered[-1]
