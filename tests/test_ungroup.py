"""Exposure and death ungrouping protocols."""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import scalar_central_force

from mortkit.data import (AgeBucket, AgeRange, BucketedAnnualSeries,
                          EUROW_BUCKETS, GENDERS, STMF_BUCKETS, YearRange)
from mortkit.dynamics import PSI_NAMES, TimeSeriesFit
from mortkit.errors import ValidationError
from mortkit.lilee import LiLeeParams
from mortkit.project import kannisto_close
from mortkit.ungroup import (AuxiliaryModel, apply_open_bucket_deaths,
                             apply_open_bucket_exposure, needs_reference_tail,
                             scale_curve_to_buckets, shift_exposure_curve,
                             ungroup_deaths, ungroup_exposures)

AGES = AgeRange(0, 90)


def declining_curve(start=1000.0, step=5.0):
    return start - step * np.arange(len(AGES), dtype=float)


class StubAux:
    """Duck-typed stand-in: ungrouping only needs central_force."""

    def __init__(self, force):
        self.force = np.asarray(force, dtype=float)

    def central_force(self, gender, year):
        return self.force


def gompertz_force(level=1e-4, slope=0.09):
    return level * np.exp(slope * np.arange(len(AGES), dtype=float))


class TestExposureSteps:
    def test_shift_moves_cohorts_up(self):
        shifted = shift_exposure_curve(np.array([100.0, 90.0, 80.0]))
        np.testing.assert_allclose(shifted, [110.0, 100.0, 90.0])

    def test_shift_refuses_nonpositive_age0(self):
        with pytest.raises(ValidationError, match="nonpositive"):
            shift_exposure_curve(np.array([10.0, 25.0, 5.0]))

    def test_scale_matches_bucket_totals(self):
        curve = np.array([1.0, 2.0, 3.0, 4.0])
        totals = {AgeBucket(0, 1): 9.0, AgeBucket(2, 3): 14.0}
        out, factors = scale_curve_to_buckets(curve, totals)
        np.testing.assert_allclose(out, [3.0, 6.0, 6.0, 8.0])
        assert factors[AgeBucket(0, 1)] == pytest.approx(3.0)
        assert factors[AgeBucket(2, 3)] == pytest.approx(2.0)

    def test_scale_zero_mass_against_positive_total(self):
        curve = np.array([0.0, 0.0, 3.0])
        with pytest.raises(ValidationError, match="zero curve mass"):
            scale_curve_to_buckets(curve, {AgeBucket(0, 1): 5.0})

    def test_scale_refuses_open_bucket(self):
        with pytest.raises(ValidationError, match="open"):
            scale_curve_to_buckets(np.ones(3), {AgeBucket(0, None): 5.0})

    def test_open_bucket_uniform_shift(self):
        # 85+ covers ages 85..110: 26 slots; a +26 change shifts each by +1
        prev = np.array([60.0, 55.0, 50.0, 45.0, 40.0, 35.0])
        adjusted = apply_open_bucket_exposure(prev, 526.0, 500.0, 85)
        np.testing.assert_allclose(adjusted, prev + 1.0)

    def test_open_bucket_refuses_nonpositive(self):
        prev = np.array([3.0, 2.0, 1.0])
        with pytest.raises(ValidationError, match="age 92"):
            apply_open_bucket_exposure(prev, 100.0, 100.0 + 21 * 1.5, 90)


class TestUngroupExposures:
    @staticmethod
    def _annual(totals):
        return BucketedAnnualSeries("AAA", "M", 2020, exposures=totals)

    def test_closed_buckets_conserved_exactly(self):
        prev = declining_curve()
        shifted = shift_exposure_curve(prev)
        totals = {}
        for factor, bucket in zip((1.1, 0.9, 1.05, 0.95), STMF_BUCKETS[:4]):
            lo, hi = bucket.lower, bucket.upper
            totals[bucket] = factor * shifted[lo:hi + 1].sum()
        totals[STMF_BUCKETS[-1]] = prev[85:].sum() + 13.0
        result = ungroup_exposures(prev, self._annual(totals), AGES)
        for bucket in STMF_BUCKETS[:4]:
            got = result.values[bucket.lower:bucket.upper + 1].sum()
            assert got == pytest.approx(totals[bucket], rel=1e-12)

    def test_open_bucket_shift_from_previous_values(self):
        prev = declining_curve()
        totals = {b: shift_exposure_curve(prev)[b.lower:b.upper + 1].sum()
                  for b in STMF_BUCKETS[:4]}
        above_top = np.array([250.0, 100.0, 50.0])   # observed ages 91..93
        totals[STMF_BUCKETS[-1]] = prev[85:].sum() + 400.0 + 26.0
        result = ungroup_exposures(prev, self._annual(totals), AGES,
                                   prev_above_top=above_top)
        # retained open ages: previous year's unshifted values + the shift
        np.testing.assert_allclose(result.values[85:], prev[85:] + 1.0,
                                   rtol=1e-12)

    def test_within_range_default_for_prev_open_total(self):
        prev = declining_curve()
        totals = {b: shift_exposure_curve(prev)[b.lower:b.upper + 1].sum()
                  for b in STMF_BUCKETS[:4]}
        totals[STMF_BUCKETS[-1]] = prev[85:].sum() + 52.0
        result = ungroup_exposures(prev, self._annual(totals), AGES)
        np.testing.assert_allclose(result.values[85:], prev[85:] + 2.0,
                                   rtol=1e-12)

    def test_partition_must_tile(self):
        totals = {AgeBucket(0, 50): 100.0, AgeBucket(85, None): 10.0}
        with pytest.raises(ValidationError, match="tile"):
            ungroup_exposures(declining_curve(), self._annual(totals), AGES)

    def test_model_ages_must_start_at_0(self):
        # The closed buckets tile ages from 0, so both protocols refuse a
        # model that starts later by name, before any bucket is placed.
        ages = AgeRange(1, 90)
        curve = declining_curve()[1:]
        for name, ungroup in (
                ("exposures", lambda annual: ungroup_exposures(curve, annual, ages)),
                ("deaths", lambda annual: ungroup_deaths(
                    StubAux(gompertz_force()[1:]), "M", 2020, curve, annual, ages,
                    allocation_rate=0.20))):
            annual = BucketedAnnualSeries("AAA", "M", 2020,
                                          **{name: dict.fromkeys(STMF_BUCKETS, 10.0)})
            with pytest.raises(ValidationError, match=re.escape(
                    f"AAA/M 2020 {name}: ungrouping needs model ages from 0, "
                    "got [1, 90]")):
                ungroup(annual)


class TestOpenBucketDeaths:
    def test_male_allocation(self):
        assert apply_open_bucket_deaths(np.array([100.0]), 200.0, 0.20) \
            == pytest.approx(120.0)

    def test_female_allocation(self):
        assert apply_open_bucket_deaths(np.array([100.0]), 300.0, 0.145) \
            == pytest.approx(129.0)

    def test_tail_beyond_90_counts_toward_reference(self):
        # reference tail covers ages 90 and 91+: excess uses the full sum
        value = apply_open_bucket_deaths(np.array([80.0, 30.0]), 150.0, 0.20)
        assert value == pytest.approx(80.0 + 0.20 * (150.0 - 110.0))

    def test_negative_floors_at_zero_with_warning(self):
        with pytest.warns(RuntimeWarning, match="floored"):
            value = apply_open_bucket_deaths(np.array([10.0, 90.0]), 0.0, 0.20)
        assert value == 0.0

    def test_allocation_rate_bounds(self):
        with pytest.raises(ValidationError, match=r"\(0, 1\]"):
            apply_open_bucket_deaths(np.array([10.0]), 20.0, 0.0)


class TestUngroupDeaths:
    @staticmethod
    def _exposures():
        return np.full(len(AGES), 1000.0)

    def _annual_from_profile(self, profile, buckets, scale):
        totals = {}
        for factor, bucket in zip(scale, buckets):
            if bucket.is_open:
                totals[bucket] = factor * profile[bucket.lower:].sum()
            else:
                totals[bucket] = factor * profile[bucket.lower:bucket.upper + 1].sum()
        return BucketedAnnualSeries("AAA", "M", 2020, deaths=totals)

    def test_reference_tail_rule_for_90_plus(self):
        aux = StubAux(gompertz_force())
        profile = gompertz_force() * self._exposures()
        scale = [1.2] * 18 + [1.0]
        annual = self._annual_from_profile(profile, EUROW_BUCKETS, scale)
        annual.deaths[AgeBucket(90, None)] = 500.0
        result = ungroup_deaths(aux, "M", 2020, self._exposures(), annual,
                                AGES, reference_tail=np.array([300.0, 120.0]),
                                allocation_rate=0.20)
        assert needs_reference_tail(annual, AGES)
        assert result.values[90] == pytest.approx(
            300.0 + 0.20 * (500.0 - 420.0))
        # closed buckets conserved exactly
        for bucket in EUROW_BUCKETS[:-1]:
            got = result.values[bucket.lower:bucket.upper + 1].sum()
            assert got == pytest.approx(annual.deaths[bucket], rel=1e-12)

    def test_open_bucket_rule_follows_its_lower_age(self):
        # 90+ starts at the model top age 90, 85+ below it.
        def annual(buckets):
            return BucketedAnnualSeries("AAA", "M", 2020, deaths={b: 1.0 for b in buckets})
        assert needs_reference_tail(annual(EUROW_BUCKETS), AGES)
        assert not needs_reference_tail(annual(STMF_BUCKETS), AGES)

    def test_90_plus_needs_reference_tail(self):
        aux = StubAux(gompertz_force())
        profile = gompertz_force() * self._exposures()
        annual = self._annual_from_profile(profile, EUROW_BUCKETS, [1.0] * 19)
        with pytest.raises(ValidationError, match="reference"):
            ungroup_deaths(aux, "M", 2020, self._exposures(), annual, AGES,
                           allocation_rate=0.20)

    def test_refuses_nonpositive_exposures(self):
        exposures = self._exposures()
        exposures[40] = 0.0
        profile = gompertz_force() * self._exposures()
        annual = self._annual_from_profile(profile, STMF_BUCKETS, [1.0] * 5)
        with pytest.raises(ValidationError, match="be > 0"):
            ungroup_deaths(StubAux(gompertz_force()), "M", 2020, exposures, annual,
                           AGES, allocation_rate=0.20)

    def test_model_tail_rule_for_85_plus(self):
        force = gompertz_force()
        aux = StubAux(force)
        exposures = self._exposures()
        profile = force * exposures
        annual = self._annual_from_profile(profile, STMF_BUCKETS,
                                           [1.1, 1.0, 0.95, 1.05, 1.3])
        result = ungroup_deaths(aux, "M", 2020, exposures, annual, AGES,
                                allocation_rate=0.20)
        assert not needs_reference_tail(annual, AGES)
        open_total = annual.deaths[AgeBucket(85, None)]
        # the retained ages leave a positive share of the bucket for the
        # estimated >90 tail
        tail = open_total - result.values[85:].sum()
        assert 0.0 < tail < open_total

    def test_model_tail_share_matches_stepwise_oracle(self):
        # Independent transliteration of the protocol: extend the force to
        # age 110 by Kannisto closure, deplete the age-90 exposure
        # cohort-wise by exp(-mu), and compare expected-death masses.
        force = gompertz_force()
        exposures = self._exposures()
        q_closed = kannisto_close(-np.expm1(-force), 0)
        mu = -np.log1p(-q_closed)
        within = float((force[85:] * exposures[85:]).sum())
        e, mu_prev, tail = exposures[90], mu[90], 0.0
        for age in range(91, 111):
            e = e * np.exp(-mu_prev)
            tail += mu[age] * e
            mu_prev = mu[age]
        share = tail / (within + tail)

        aux = StubAux(force)
        profile = force * exposures
        annual = self._annual_from_profile(profile, STMF_BUCKETS, [1.0] * 5)
        result = ungroup_deaths(aux, "M", 2020, exposures, annual, AGES,
                                allocation_rate=0.20)
        open_total = annual.deaths[AgeBucket(85, None)]
        assert result.values[85:].sum() == pytest.approx(open_total * (1 - share),
                                                         rel=1e-10)

    def test_scaled_profile_keeps_model_shape_within_buckets(self):
        force = gompertz_force()
        aux = StubAux(force)
        exposures = self._exposures()
        profile = force * exposures
        annual = self._annual_from_profile(profile, EUROW_BUCKETS,
                                           [2.0] * 18 + [1.0])
        annual.deaths[AgeBucket(90, None)] = 500.0
        result = ungroup_deaths(aux, "M", 2020, exposures, annual, AGES,
                                reference_tail=np.array([400.0]),
                                allocation_rate=0.20)
        # within a closed bucket, relative age structure follows the model
        lo, hi = 40, 44
        np.testing.assert_allclose(
            result.values[lo:hi + 1] / result.values[lo],
            profile[lo:hi + 1] / profile[lo], rtol=1e-12)


class TestConservationProperty:
    def test_randomized_closed_bucket_conservation(self, rng):
        for _ in range(25):
            prev = 800.0 + 200.0 * rng.random(len(AGES))
            shifted = shift_exposure_curve(prev)
            totals = {}
            for bucket in EUROW_BUCKETS[:-1]:
                factor = 0.8 + 0.4 * rng.random()
                totals[bucket] = factor * shifted[bucket.lower:bucket.upper + 1].sum()
            totals[EUROW_BUCKETS[-1]] = prev[90] + rng.random()
            annual = BucketedAnnualSeries("AAA", "F", 2021, exposures=totals)
            result = ungroup_exposures(prev, annual, AGES)
            for bucket in EUROW_BUCKETS[:-1]:
                got = result.values[bucket.lower:bucket.upper + 1].sum()
                assert got == pytest.approx(totals[bucket], rel=1e-9)


class TestAuxiliaryModel:
    WINDOW = YearRange(2000, 2011)

    @staticmethod
    def model(dynamics, jump_off):
        """An auxiliary model over ages 0..90 whose per-gender drift,
        intercept and AR coefficient are `dynamics[g]` and whose final
        calibration year holds K, kappa = `jump_off[g]`."""
        rng = np.random.default_rng(3)
        years = TestAuxiliaryModel.WINDOW
        params = {}
        for gender in GENDERS:
            K = rng.normal(size=len(years))
            kappa = rng.normal(size=len(years))
            K[-1], kappa[-1] = jump_off[gender]
            params[gender] = LiLeeParams(
                ages=AGES, years=years, A=np.linspace(-8.0, -1.5, len(AGES)),
                B=rng.uniform(0.0, 0.03, len(AGES)), K=K,
                alpha=rng.normal(0.0, 0.1, len(AGES)),
                beta=rng.uniform(0.0, 0.03, len(AGES)), kappa=kappa)
        values = {f"{name}_{g}": v for g in GENDERS
                  for name, v in zip(("theta", "c", "phi"), dynamics[g])}
        psi = np.array([values[name] for name in PSI_NAMES])
        fit = TimeSeriesFit(psi=psi, C=np.eye(4), weights=np.ones(len(years) - 1),
                            loglik=0.0, iterations=0)
        return AuxiliaryModel(country="AAA", params=params, ts_fit=fit, years=years)

    @settings(deadline=None)
    @given(st.fixed_dictionaries({g: st.tuples(
               st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-1.2, 1.2))
               for g in GENDERS}),
           st.fixed_dictionaries({g: st.tuples(
               st.floats(-20.0, 20.0), st.floats(-5.0, 5.0)) for g in GENDERS}),
           st.sampled_from(GENDERS), st.integers(1, 40))
    def test_projected_force_matches_the_scalar_recursion(self, dynamics, jump_off,
                                                          gender, ahead):
        aux = self.model(dynamics, jump_off)
        year = self.WINDOW.last + ahead
        assert np.array_equal(aux.central_force(gender, year),
                              scalar_central_force(aux, gender, year))

