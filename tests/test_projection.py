"""Stochastic projection, Kannisto closure and life-expectancy summaries."""
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from oracles import (copying_kannisto_close, cumsum_expectancy,
                     exp_survival_expectancy_kernel, masked_year_fraction,
                     negate_twice_expectancy_kernel, np_quantile_summary,
                     outer_product_force_paths, path_major_kannisto_close,
                     per_path_period_effects, q_space_kannisto_close,
                     relative_error)

from mortkit import project
from mortkit.data import AgeRange, YearRange
from mortkit.dynamics import TimeSeriesFit
from mortkit.errors import ValidationError
from mortkit.lilee import LiLeeParams
from mortkit.project import (MAX_AGE, ScenarioSpec, SimulationPaths,
                             central_period_effects, cohort_life_expectancy,
                             force_paths, kannisto_close, path_batch,
                             period_life_expectancy,
                             quantile_summary, simulate_period_effects)

PSI = np.array([-0.20, -0.016, 0.95, -0.17, -0.030, 0.90])

COV = np.array([
    [0.0225, 0.0060, 0.0090, 0.0015],
    [0.0060, 0.0097, 0.0042, 0.0051],
    [0.0090, 0.0042, 0.0240, 0.0060],
    [0.0015, 0.0051, 0.0060, 0.0135],
])

#: Rank 2: the innovations span a plane of the four dimensions.
PLANE = np.array([[0.15, 0.00], [0.04, 0.08], [0.06, 0.10], [0.01, 0.07]])
RANK_TWO_COV = PLANE @ PLANE.T

JUMP_OFF = (1.5, 0.3, -0.8, 0.1)


def make_fit(psi=PSI, C=COV):
    return TimeSeriesFit(psi=np.asarray(psi, dtype=float),
                         C=np.asarray(C, dtype=float),
                         weights=np.ones(10), loglik=0.0, iterations=1)


def make_spec(horizon=2030, n_paths=4, seed=911, jump_off=JUMP_OFF, normals=None):
    return ScenarioSpec(jump_off_year=2020, horizon=horizon, n_paths=n_paths,
                        seed=seed, jump_off=jump_off, normals=normals)


def ar_mean(c, phi, kappa0, h):
    return c * (1.0 - phi ** h) / (1.0 - phi) + phi ** h * kappa0


def le_oracle(mu):
    """Direct survival-weighted sum, one term per age."""
    total, survival = 0.0, 1.0
    for m in mu:
        fraction = 1.0 if m == 0 else (1.0 - math.exp(-m)) / m
        total += survival * fraction
        survival *= math.exp(-m)
    return total


class TestScenarioSpec:
    def test_horizon_must_exceed_jump_off(self):
        with pytest.raises(ValidationError, match="exceed"):
            make_spec(horizon=2020)

    def test_needs_a_path(self):
        with pytest.raises(ValidationError, match="at least one"):
            make_spec(n_paths=0)

    def test_jump_off_arity(self):
        with pytest.raises(ValidationError, match="jump_off"):
            make_spec(jump_off=(1.0, 2.0))

    @pytest.mark.parametrize("shape", [(4, 9, 4), (5, 10, 4), (4, 10, 2), (40,)])
    def test_normals_must_match_paths_and_horizon(self, shape):
        with pytest.raises(ValidationError, match=r"spec needs \(4, 10, 4\)"):
            make_spec(normals=np.zeros(shape))

    def test_normals_stay_out_of_equality_and_repr(self):
        spec = make_spec(normals=np.zeros((4, 10, 4)))
        assert spec == make_spec()
        assert "normals" not in repr(spec)

    def test_years_cover_jump_off_through_horizon(self):
        spec = make_spec(horizon=2023)
        np.testing.assert_array_equal(spec.years, [2020, 2021, 2022, 2023])


class TestSimulation:
    def test_zero_covariance_is_deterministic_drift(self):
        fit = make_fit(C=np.zeros((4, 4)))
        paths = simulate_period_effects(fit, make_spec(n_paths=3))
        K0_m, kap0_m, K0_f, kap0_f = JUMP_OFF
        for h in range(11):
            for i in range(3):
                assert paths.K["M"][i, h] == pytest.approx(
                    K0_m + h * fit.drift("M"), rel=1e-12)
                assert paths.K["F"][i, h] == pytest.approx(
                    K0_f + h * fit.drift("F"), rel=1e-12)
                assert paths.kappa["M"][i, h] == pytest.approx(
                    ar_mean(fit.ar_intercept("M"), fit.ar_coefficient("M"),
                            kap0_m, h), rel=1e-12)
                assert paths.kappa["F"][i, h] == pytest.approx(
                    ar_mean(fit.ar_intercept("F"), fit.ar_coefficient("F"),
                            kap0_f, h), rel=1e-12)

    def test_monte_carlo_moments_match_closed_forms(self):
        fit = make_fit()
        n = 20_000
        paths = simulate_period_effects(fit, make_spec(n_paths=n))
        for h in (1, 5, 10):
            mean_K = paths.K["M"][:, h].mean()
            target_K = JUMP_OFF[0] + h * fit.drift("M")
            se_K = math.sqrt(h * COV[0, 0] / n)
            assert abs(mean_K - target_K) < 4 * se_K

            phi = fit.ar_coefficient("F")
            mean_kap = paths.kappa["F"][:, h].mean()
            target_kap = ar_mean(fit.ar_intercept("F"), phi, JUMP_OFF[3], h)
            var_kap = COV[3, 3] * (1.0 - phi ** (2 * h)) / (1.0 - phi ** 2)
            assert abs(mean_kap - target_kap) < 4 * math.sqrt(var_kap / n)

    def test_seeded_reruns_are_bit_identical(self):
        fit = make_fit()
        first = simulate_period_effects(fit, make_spec(seed=7, n_paths=6))
        second = simulate_period_effects(fit, make_spec(seed=7, n_paths=6))
        for g in ("M", "F"):
            assert np.array_equal(first.K[g], second.K[g])
            assert np.array_equal(first.kappa[g], second.kappa[g])

    def test_paths_do_not_depend_on_path_count(self):
        fit = make_fit()
        small = simulate_period_effects(fit, make_spec(seed=7, n_paths=3))
        large = simulate_period_effects(fit, make_spec(seed=7, n_paths=8))
        for g in ("M", "F"):
            assert np.array_equal(large.K[g][:3], small.K[g])
            assert np.array_equal(large.kappa[g][:3], small.kappa[g])

    def test_every_path_starts_at_the_jump_off(self):
        paths = simulate_period_effects(make_fit(), make_spec(n_paths=5))
        assert np.all(paths.K["M"][:, 0] == JUMP_OFF[0])
        assert np.all(paths.kappa["M"][:, 0] == JUMP_OFF[1])
        assert np.all(paths.K["F"][:, 0] == JUMP_OFF[2])
        assert np.all(paths.kappa["F"][:, 0] == JUMP_OFF[3])

    def test_central_path_is_the_zero_noise_recursion(self):
        fit = make_fit()
        central = central_period_effects(fit, make_spec(n_paths=500))
        for table in (central.K, central.kappa):
            assert {g: a.shape for g, a in table.items()} == \
                {"M": (1, 11), "F": (1, 11)}
        drift_only = simulate_period_effects(
            make_fit(C=np.zeros((4, 4))), make_spec(n_paths=1))
        for g in ("M", "F"):
            np.testing.assert_allclose(central.K[g], drift_only.K[g],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(central.kappa[g], drift_only.kappa[g],
                                       rtol=0, atol=1e-12)

    def test_batch_has_the_central_path_in_row_zero(self):
        fit = make_fit()
        spec = make_spec(n_paths=5)
        batch = path_batch(fit, spec)
        central = central_period_effects(fit, spec)
        paths = simulate_period_effects(fit, spec)
        np.testing.assert_array_equal(batch.years, paths.years)
        for g in ("M", "F"):
            assert batch.K[g].shape == batch.kappa[g].shape == (6, 11)
            assert np.array_equal(batch.K[g][:1], central.K[g])
            assert np.array_equal(batch.kappa[g][:1], central.kappa[g])
            assert np.array_equal(batch.K[g][1:], paths.K[g])
            assert np.array_equal(batch.kappa[g][1:], paths.kappa[g])

    def test_batch_rows_do_not_depend_on_path_count(self):
        fit = make_fit()
        small = path_batch(fit, make_spec(seed=7, n_paths=3))
        large = path_batch(fit, make_spec(seed=7, n_paths=8))
        for g in ("M", "F"):
            assert np.array_equal(large.K[g][:4], small.K[g])
            assert np.array_equal(large.kappa[g][:4], small.kappa[g])

    def test_batch_is_immutable(self):
        batch = path_batch(make_fit(), make_spec())
        with pytest.raises(ValueError):
            batch.kappa["F"][0, 1] = 99.0

    def test_rejects_asymmetric_covariance(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValidationError, match="symmetric"):
            simulate_period_effects(make_fit(C=bad), make_spec())

    def test_rejects_indefinite_covariance(self):
        bad = np.diag([1.0, 1.0, 1.0, -0.5])
        with pytest.raises(ValidationError, match="semidefinite"):
            simulate_period_effects(make_fit(C=bad), make_spec())

    def test_paths_are_immutable(self):
        paths = simulate_period_effects(make_fit(), make_spec())
        with pytest.raises(ValueError):
            paths.K["M"][0, 0] = 99.0

    def test_fits_sharing_one_draw_match_their_own_generators(self):
        # Every grid value of a run reads one read-only draw; only the
        # fit's factor of C differs.
        spec = make_spec(seed=11, n_paths=64)
        normals = project.draw_normals(11, 64, 10)
        normals.flags.writeable = False
        shared = make_spec(seed=11, n_paths=64, normals=normals)
        for k in range(8):
            fit = make_fit(C=COV * (1 + k / 10))
            got = simulate_period_effects(fit, shared)
            want = per_path_period_effects(fit, spec)
            for g in ("M", "F"):
                assert np.array_equal(got.K[g], want.K[g])
                assert np.array_equal(got.kappa[g], want.kappa[g])

    def test_given_normals_are_read_not_redrawn(self):
        fit = make_fit()
        drawn = simulate_period_effects(fit, make_spec(seed=3, n_paths=6))
        spec = make_spec(seed=3, n_paths=6, normals=project.draw_normals(3, 6, 10))
        with mock.patch.object(np.random, "Philox", wraps=np.random.Philox) as philox:
            read = simulate_period_effects(fit, spec)
        assert philox.call_count == 0
        for g in ("M", "F"):
            assert np.array_equal(read.K[g], drawn.K[g])
            assert np.array_equal(read.kappa[g], drawn.kappa[g])

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    @pytest.mark.parametrize("n_paths", [1, 3, 257])
    def test_matches_one_generator_per_path(self, seed, n_paths):
        self.assert_matches_one_generator_per_path(
            make_fit(), make_spec(seed=seed, n_paths=n_paths))

    @pytest.mark.parametrize("seed", [0, 2**40])
    def test_one_year_horizon_matches_one_generator_per_path(self, seed):
        self.assert_matches_one_generator_per_path(
            make_fit(), make_spec(horizon=2021, seed=seed, n_paths=3))

    def test_rank_deficient_covariance_matches_one_generator_per_path(self):
        assert np.linalg.matrix_rank(RANK_TWO_COV) == 2
        self.assert_matches_one_generator_per_path(
            make_fit(C=RANK_TWO_COV), make_spec(seed=7, n_paths=257))

    @staticmethod
    def assert_matches_one_generator_per_path(fit, spec):
        got = simulate_period_effects(fit, spec)
        want = per_path_period_effects(fit, spec)
        np.testing.assert_array_equal(got.years, want.years)
        for g in ("M", "F"):
            assert np.array_equal(got.K[g], want.K[g])
            assert np.array_equal(got.kappa[g], want.kappa[g])

    def test_year_index_bounds(self):
        paths = simulate_period_effects(make_fit(), make_spec(horizon=2025))
        assert paths.year_index(2020) == 0
        assert paths.year_index(2025) == 5
        with pytest.raises(ValidationError, match="outside"):
            paths.year_index(2026)


def tiny_params(A):
    ages = AgeRange(60, 61)
    years = YearRange(2018, 2020)
    return LiLeeParams(
        ages=ages, years=years,
        A=np.asarray(A, dtype=float), B=np.array([0.6, 0.8]),
        K=np.array([0.4, -0.1, -0.3]),
        alpha=np.array([0.10, -0.10]), beta=np.array([0.8, -0.6]),
        kappa=np.array([-0.2, 0.1, 0.1]),
    )


def one_path(K_m, kap_m):
    years = np.arange(2020, 2022)
    full = {
        "M": np.array([[K_m, K_m]]),
        "F": np.array([[0.0, 0.0]]),
    }
    kap = {
        "M": np.array([[kap_m, kap_m]]),
        "F": np.array([[0.0, 0.0]]),
    }
    return SimulationPaths(years=years, K=full, kappa=kap)


def death_probability(params, paths, gender, year):
    """One-year death probability under a piecewise-constant force."""
    return -np.expm1(-force_paths(params, paths, gender, year))


class TestMortalityLink:
    def test_force_combines_level_trend_and_deviation(self):
        params = tiny_params([-4.0, -3.0])
        mu = force_paths(params, one_path(K_m=0.5, kap_m=-0.25), "M", 2020)
        np.testing.assert_allclose(mu[0], [
            math.exp(-4.0 + 0.10 + 0.6 * 0.5 + 0.8 * -0.25),
            math.exp(-3.0 - 0.10 + 0.8 * 0.5 + -0.6 * -0.25),
        ], rtol=1e-15)

    def test_vanishing_force_gives_zero_probability(self):
        params = tiny_params([-np.inf, -3.0])
        q = death_probability(params, one_path(0.0, 0.0), "M", 2020)
        assert q[0, 0] == 0.0

    def test_log_two_force_gives_one_half(self):
        params = tiny_params([math.log(math.log(2.0)) - 0.10, -3.0])
        q = death_probability(params, one_path(0.0, 0.0), "M", 2020)
        assert q[0, 0] == pytest.approx(0.5, rel=1e-15)

    def test_probabilities_stay_in_unit_interval(self):
        params = tiny_params([-1.0, 2.0])
        q = death_probability(params, one_path(1.0, 1.0), "M", 2020)
        assert np.all((q > 0) & (q < 1))

    def test_probability_increases_with_force(self):
        lower = tiny_params([-4.0, -3.0])
        higher = tiny_params([-3.5, -2.5])
        path = one_path(0.3, -0.2)
        q_lo = death_probability(lower, path, "M", 2020)
        q_hi = death_probability(higher, path, "M", 2020)
        assert np.all(q_hi > q_lo)

    def test_each_year_reads_its_own_path_column(self):
        params = tiny_params([-4.0, -3.0])
        paths = simulate_period_effects(make_fit(), make_spec(horizon=2024))
        for j, year in enumerate(paths.years):
            log_mu = (params.A + params.alpha)[None, :] \
                + paths.K["F"][:, j, None] * params.B[None, :] \
                + paths.kappa["F"][:, j, None] * params.beta[None, :]
            np.testing.assert_allclose(
                death_probability(params, paths, "F", int(year)),
                -np.expm1(-np.exp(log_mu)), rtol=1e-15)


def logistic_mu(ages, level=0.1, slope=0.1):
    z = level * np.exp(slope * (np.asarray(ages, dtype=float) - 80.0))
    return z / (1.0 + z)


class TestKannistoClosure:
    def test_recovers_exact_logistic(self):
        ages = np.arange(0, 91)
        mu = np.full(91, 0.01)
        mu[80:] = logistic_mu(ages[80:])
        closed = kannisto_close(mu, forces=True)
        np.testing.assert_allclose(closed[91:], logistic_mu(np.arange(91, 121)),
                                   rtol=0, atol=1e-8)

    def test_input_ages_pass_through_unchanged(self):
        mu = np.linspace(0.001, 0.4, 91)
        closed = kannisto_close(mu, forces=True)
        assert closed.shape == (121,)
        np.testing.assert_array_equal(closed[:91], mu)

    def test_extension_force_stays_below_one(self):
        mu = logistic_mu(np.arange(0, 91), level=0.4, slope=0.2)
        closed = kannisto_close(mu, forces=True)
        assert np.all(closed < 1.0)

    def test_constant_tail_warns_and_extends_flat(self):
        mu = np.full(91, 0.05)
        with pytest.warns(RuntimeWarning, match="non-increasing"):
            closed = kannisto_close(mu, forces=True)
        np.testing.assert_allclose(closed[91:], 0.05, rtol=1e-12)

    def test_declining_tail_warns_but_still_applies(self):
        mu = np.concatenate([np.full(80, 0.02),
                             np.linspace(0.10, 0.05, 11)])
        with pytest.warns(RuntimeWarning, match="non-increasing"):
            closed = kannisto_close(mu, forces=True)
        assert closed.shape == (121,)
        assert np.all(np.diff(closed[90:]) < 0)

    def test_extreme_force_clamped_with_warning(self):
        mu = np.linspace(0.01, 0.2, 91)
        mu[85] = -math.log(1e-13)
        with pytest.warns(RuntimeWarning, match="clamped"):
            closed = kannisto_close(mu, forces=True)
        assert np.all(closed[91:] < 1.0)

    def test_requires_ages_up_to_90(self):
        with pytest.raises(ValidationError, match="ends at 85"):
            kannisto_close(np.full(86, 0.01), forces=True)

    @pytest.mark.parametrize("ages_lo", [-1, 81, 85, 90])
    def test_requires_ages_from_80(self, ages_lo):
        mu = np.full((5, 91 - ages_lo), 0.1)
        with pytest.raises(ValidationError, match=f"fit ages 80..90, input starts at {ages_lo}"):
            kannisto_close(mu, ages_lo, forces=True)

    @pytest.mark.parametrize("bad", [0.0, -0.01, np.inf, np.nan])
    def test_rejects_nonpositive_or_nonfinite_forces(self, bad):
        mu = np.full(91, 0.01)
        mu[40] = bad
        with pytest.raises(ValidationError, match="positive and finite"):
            kannisto_close(mu, forces=True)

    def test_rejects_probabilities_outside_unit_interval(self):
        q = np.full(91, 0.01)
        q[0] = 0.0
        with pytest.raises(ValidationError, match=r"\(0, 1\)"):
            kannisto_close(q)

    @pytest.mark.parametrize("bad", [1.0, np.nan])
    def test_rejects_probabilities_of_one_or_nan(self, bad):
        q = np.full(91, 0.01)
        q[85] = bad
        with pytest.raises(ValidationError, match=r"\(0, 1\)"):
            kannisto_close(q)

    def test_batched_curves_match_per_curve_closure(self, rng):
        base = logistic_mu(np.arange(0, 91), level=0.15)
        batch = base * rng.uniform(0.8, 1.2, size=(3, 2, 1))
        closed = kannisto_close(batch, forces=True)
        assert closed.shape == (3, 2, 121)
        for i in range(3):
            for j in range(2):
                np.testing.assert_array_equal(
                    closed[i, j], kannisto_close(batch[i, j], forces=True))

    def test_probability_form_is_the_earlier_closure(self, rng):
        mu = 1e-3 * np.exp(0.1 * np.arange(31)) * rng.uniform(0.8, 1.2, (5, 1))
        q = -np.expm1(-mu)
        np.testing.assert_array_equal(kannisto_close(q, 60),
                                      q_space_kannisto_close(q, 60))

    def test_probability_form_ignores_the_input_layout(self, rng):
        mu = 1e-3 * np.exp(0.1 * np.arange(31)) * rng.uniform(0.8, 1.2, (5, 1))
        q = -np.expm1(-mu)
        np.testing.assert_array_equal(kannisto_close(np.asfortranarray(q), 60),
                                      q_space_kannisto_close(q, 60))

    def test_empty_batch_closes_to_an_empty_batch(self):
        closed = kannisto_close(np.empty((0, 91)), 0, forces=True)
        assert closed.shape == (0, MAX_AGE + 1)

    @pytest.mark.parametrize("ages_lo", [0, 60, 80])
    def test_force_form_matches_the_probability_oracle(self, rng, ages_lo):
        n = 91 - ages_lo
        mu = np.exp(rng.uniform(-9, -0.3, size=(40, 3, n))) \
            * np.linspace(1.0, 4.0, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = kannisto_close(mu, ages_lo, forces=True)
            want = -np.log1p(-q_space_kannisto_close(-np.expm1(-mu), ages_lo))
        assert got.shape == (40, 3, MAX_AGE + 1 - ages_lo)
        assert relative_error(got, want) < 1e-12


class TestLifeExpectancy:
    def test_constant_force_closed_form(self):
        for mu0 in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            for age in (0, 65, 100):
                n = MAX_AGE - age + 1
                value = period_life_expectancy(np.full(n, mu0), age)
                assert value == pytest.approx(
                    (1.0 - math.exp(-n * mu0)) / mu0, rel=1e-12)

    def test_zero_force_counts_every_year(self):
        assert period_life_expectancy(np.zeros(56), 65) == 56.0

    def test_enormous_force_drives_expectancy_to_zero(self):
        value = period_life_expectancy(np.full(56, 1e6), 65)
        assert 0.0 < value < 1e-5

    def test_matches_direct_oracle_on_random_curves(self, rng):
        for _ in range(100):
            age = int(rng.integers(0, 100))
            n = MAX_AGE - age + 1
            mu = np.exp(rng.uniform(np.log(1e-4), np.log(0.8), size=n))
            value = float(period_life_expectancy(mu, age))
            assert value == pytest.approx(le_oracle(mu), rel=1e-12)
            assert 0.0 < value <= n

    def test_leading_axes_vectorize(self, rng):
        mu = np.exp(rng.uniform(-6, -1, size=(4, 56)))
        values = period_life_expectancy(mu, 65)
        for i in range(4):
            assert values[i] == pytest.approx(le_oracle(mu[i]), rel=1e-12)

    def test_empty_batch_gives_empty_result(self):
        assert period_life_expectancy(np.empty((0, 56)), 65).shape == (0,)

    def test_cohort_empty_batch_gives_empty_result(self):
        surface = np.empty((0, 56, MAX_AGE + 1))
        assert cohort_life_expectancy(surface, 65).shape == (0,)

    def test_year_fraction_matches_the_masked_division(self):
        # A one-age sequence is its year fraction: no step follows it.
        mu = np.array([[0.0, 1e-300, 1e-3, 0.5],
                       [3.0, 700.0, np.inf, -0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = project._expectancy_kernel(mu.reshape(1, 2, 4).copy(), None,
                                             np.empty(mu.size))[0]
        np.testing.assert_array_equal(got, masked_year_fraction(mu))
        assert got[0, 0] == got[1, 3] == 1.0 and got[1, 2] == 0.0

    def test_kernel_matches_the_twice_negating_oracle(self, rng):
        mu = np.exp(rng.uniform(-12, 1, size=(121, 9)))
        mu[:, 0] = 0.0
        mu[::3, 1] = -0.0
        mu[5::7, 2] = 1e-300
        mu[40, 3] = np.inf
        mu[:, 4] = np.inf
        zero_free = mu[:, 2:]   # least force 1e-300: the scan for zeros is skipped
        assert zero_free.min() == 1e-300
        for forces in (zero_free, mu):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = project._expectancy_kernel(forces.copy(), None,
                                                 np.empty(forces.size))
            # The survival factor 1 + expm1(-mu) may differ from exp(-mu)
            # in the last bit.
            assert relative_error(got, negate_twice_expectancy_kernel(forces)) < 1e-12
        assert got[0, 0] == 121.0 and got[40, 3] == 0.0

    def test_kernel_matches_the_exp_survival_oracle(self, rng):
        mu = np.exp(rng.uniform(-12, 3, size=(121, 40)))
        mu[:, 0] = 0.0
        mu[::2, 1] = 0.0
        mu[7::9, 2] = 1e6
        mu[:, 3] = 1e6
        mu[60, 4] = np.inf
        mu[:, 5] = np.inf
        mu[::5, 6] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = project._expectancy_kernel(mu.copy(), None, np.empty(mu.size))
        want = exp_survival_expectancy_kernel(mu)
        assert np.all(np.isfinite(got))
        assert relative_error(got, want) < 1e-12
        assert got[0, 0] == 121.0 and got[0, 3] == want[0, 3] == 1e-6
        assert np.all(got[:, 5] == 0.0) and got[60, 4] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, -1e-300, -np.inf])
    def test_kernel_refuses_nan_and_negative_forces(self, bad):
        mu = np.full((56, 3), 0.01)
        mu[20, 1] = bad
        with pytest.raises(ValidationError, match="nonnegative and not NaN"):
            project._expectancy_kernel(mu, None, np.empty(mu.size))

    def test_rejects_truncated_curve(self):
        with pytest.raises(ValidationError, match="56 values"):
            period_life_expectancy(np.full(40, 0.01), 65)

    def test_rejects_negative_force(self):
        mu = np.full(56, 0.01)
        mu[3] = -0.01
        with pytest.raises(ValidationError, match="nonnegative"):
            period_life_expectancy(mu, 65)

    def test_rejects_nan_force(self):
        mu = np.full((2, 56), 0.01)
        mu[1, 3] = np.nan
        with pytest.raises(ValidationError, match="not NaN"):
            period_life_expectancy(mu, 65)
        with pytest.raises(ValidationError, match="not NaN"):
            period_life_expectancy(np.ascontiguousarray(mu.T).T,
                                   project.AgeBand(65, None, np.empty(mu.size)))

    def test_cohort_rejects_nan_force(self):
        surface = np.full((56, MAX_AGE + 1), 0.01)
        surface[3, 68] = np.nan
        with pytest.raises(ValidationError, match="not NaN"):
            cohort_life_expectancy(surface, 65)

    def test_infinite_force_ends_life_within_the_year(self):
        mu = np.full(56, 0.02)
        mu[10] = np.inf
        value = period_life_expectancy(mu, 65)
        assert value == pytest.approx(le_oracle(mu[:10]), rel=1e-14)
        assert period_life_expectancy(np.full(56, np.inf), 65) == 0.0

    @pytest.mark.parametrize("age", [-1, 121, 65.5, np.float64(65.0), (65, 70), "65"])
    def test_refuses_an_age_that_is_not_an_integer_in_0_to_120(self, age):
        with pytest.raises(ValidationError, match="age must be an integer in 0..120"):
            period_life_expectancy(np.full(122, 0.01), age)
        with pytest.raises(ValidationError, match="age must be an integer in 0..120"):
            cohort_life_expectancy(np.full((122, MAX_AGE + 1), 0.01), age)

    def test_numpy_integer_ages_are_ages(self, rng):
        mu = np.exp(rng.uniform(-7, -0.5, size=(3, 56)))
        np.testing.assert_array_equal(period_life_expectancy(mu, np.int64(65)),
                                      period_life_expectancy(mu, 65))
        surface = np.tile(mu[:, None, :1], (1, 56, MAX_AGE + 1))
        np.testing.assert_array_equal(cohort_life_expectancy(surface, np.int32(65)),
                                      cohort_life_expectancy(surface, 65))

    def test_one_age_never_writes_into_its_forces(self, rng):
        # Ages-major inputs, which the kernel could read in place: a band of
        # a closure and a diagonal laid out as the life-table unit holds it.
        closed = kannisto_close(logistic_mu(np.arange(0, 91))
                                * rng.uniform(0.8, 1.2, size=(7, 1)), forces=True)
        diag = np.empty((56, 7)).T
        diag[:] = np.exp(rng.uniform(-7, -0.5, size=(7, 56)))
        curve = closed[0, 65:].copy()
        for mu in (closed[:, 65:], diag, curve):
            assert np.moveaxis(mu, -1, 0).flags.c_contiguous
            before = mu.copy()
            period_life_expectancy(mu, 65)
            np.testing.assert_array_equal(mu, before)
        surface = np.exp(rng.uniform(-7, -0.5, size=(2, 56, MAX_AGE + 1)))
        before = surface.copy()
        cohort_life_expectancy(surface, 65)
        np.testing.assert_array_equal(surface, before)

    def test_cohort_equals_period_on_constant_surface(self, rng):
        curve = np.exp(rng.uniform(-7, -0.5, size=MAX_AGE + 1))
        surface = np.tile(curve, (56, 1))
        cohort = cohort_life_expectancy(surface, 65)
        period = period_life_expectancy(curve[65:], 65)
        assert cohort == pytest.approx(period, rel=1e-14)

    def test_cohort_follows_the_diagonal(self, rng):
        surface = np.exp(rng.uniform(-7, -0.5, size=(56, MAX_AGE + 1)))
        diagonal = np.array([surface[k, 65 + k] for k in range(56)])
        value = cohort_life_expectancy(surface, 65)
        assert value == pytest.approx(le_oracle(diagonal), rel=1e-12)

    def test_improving_mortality_favors_the_cohort(self):
        base = 1e-3 * np.exp(0.08 * np.arange(MAX_AGE + 1))
        base = np.minimum(base, 0.9)
        years = np.arange(56)
        surface = base[None, :] * np.exp(-0.02 * years)[:, None]
        cohort = cohort_life_expectancy(surface, 65)
        period = period_life_expectancy(surface[0, 65:], 65)
        assert cohort >= period

    def test_short_horizon_demands_longer_simulation(self):
        surface = np.full((30, MAX_AGE + 1), 0.01)
        with pytest.raises(ValidationError, match="extend the simulation"):
            cohort_life_expectancy(surface, 65)

    def test_surface_must_reach_top_age(self):
        with pytest.raises(ValidationError, match="0..120"):
            cohort_life_expectancy(np.full((56, 91), 0.01), 65)


class TestAgesMajorLayout:
    """The forces and their closure come back laid out ages-major, so an
    age band of them is read in place."""

    def test_kernel_reads_forces_without_a_copy(self):
        paths = simulate_period_effects(make_fit(), make_spec(n_paths=6))
        mu = force_paths(tiny_params([-4.0, -3.0]), paths, "F", 2022)
        assert mu.shape == (6, 2)
        assert np.moveaxis(mu, -1, 0).flags.c_contiguous

    def test_forces_written_into_a_closure_buffer(self, rng):
        paths = simulate_period_effects(make_fit(), make_spec(n_paths=6))
        params = tiny_params([-4.0, -3.0])
        buffer = np.full((5, 6), np.nan).T
        got = force_paths(params, paths, "F", 2022, out=buffer[:, :2])
        assert np.shares_memory(got, buffer)
        np.testing.assert_array_equal(buffer[:, :2],
                                      force_paths(params, paths, "F", 2022))
        assert np.isnan(buffer[:, 2:]).all()

    @pytest.mark.parametrize("ages_lo", [0, 60, 80])
    def test_closure_in_place_equals_the_allocating_closure(self, rng, ages_lo):
        n_in = 91 - ages_lo
        mu = logistic_mu(np.arange(ages_lo, 91)) * rng.uniform(0.8, 1.2, (7, n_in))
        buffer = np.empty((MAX_AGE + 1 - ages_lo, 7)).T
        buffer[:, :n_in] = mu
        got = kannisto_close(buffer[:, :n_in], ages_lo, forces=True, out=buffer)
        assert np.shares_memory(got, buffer)
        want = kannisto_close(mu, ages_lo, forces=True)
        np.testing.assert_array_equal(buffer, want)
        np.testing.assert_array_equal(want, copying_kannisto_close(mu, ages_lo))
        # Into another buffer, the input ages are copied in.
        other = np.empty((7, MAX_AGE + 1 - ages_lo))
        kannisto_close(mu, ages_lo, forces=True, out=other)
        np.testing.assert_array_equal(other, want)

    def test_closure_refuses_a_buffer_of_the_wrong_shape(self):
        mu = logistic_mu(np.arange(0, 91)) * np.ones((3, 1))
        with pytest.raises(ValidationError, match=r"out has shape \(3, 120\)"):
            kannisto_close(mu, forces=True, out=np.empty((3, MAX_AGE)))

    def test_kernel_reads_closed_forces_without_a_copy(self, rng):
        mu = logistic_mu(np.arange(0, 91)) * rng.uniform(0.8, 1.2, size=(7, 1))
        closed = kannisto_close(mu, forces=True)
        assert closed.shape == (7, MAX_AGE + 1)
        band = closed[:, 65:]
        assert np.moveaxis(closed, -1, 0).flags.c_contiguous
        assert np.moveaxis(band, -1, 0).flags.c_contiguous
        assert np.shares_memory(band, closed)


class TestQuantileSummary:
    def test_identical_paths_collapse(self):
        samples = np.full((50, 3), 2.5)
        np.testing.assert_array_equal(quantile_summary(samples), np.full((3, 3), 2.5))

    def test_median_of_standard_normal(self, rng):
        _, median, _ = quantile_summary(rng.standard_normal(10_000))
        assert abs(median) < 0.05

    def test_quantiles_monotone_in_probe(self, rng):
        low, median, high = quantile_summary(rng.standard_normal((500, 4)))
        assert np.all(low <= median)
        assert np.all(median <= high)

    def test_rejects_probe_outside_unit_interval(self, rng):
        with pytest.raises(ValidationError, match="probes"):
            quantile_summary(rng.standard_normal(10), probes=(0.5, 1.5))


def one_pass_expectancy(mu, ages):
    """The kernel over every age of `mu` from min(ages) up, on a C-order
    ages-major copy; the expectancies at `ages` on a trailing axis."""
    e = np.moveaxis(mu, -1, 0).copy()
    project._expectancy_kernel(e, None, np.empty(e.size))
    return np.moveaxis(e[[a - min(ages) for a in ages]], 0, -1)


class TestExpectancyAgainstTheCumsumKernel:
    """The backward recursion against the per-age cumulative-sum kernel it
    replaced, at 1e-12 relative."""

    @staticmethod
    def per_age(mu, ages):
        first = min(ages)
        return np.stack([cumsum_expectancy(mu[..., a - first:]) for a in ages],
                        axis=-1)

    def test_random_curves_and_ages(self, rng):
        for _ in range(60):
            ages = tuple(int(a) for a in rng.integers(0, MAX_AGE + 1,
                                                      size=rng.integers(1, 6)))
            first = min(ages)
            n = MAX_AGE - first + 1
            lead = tuple(int(d) for d in rng.integers(1, 4, size=rng.integers(0, 3)))
            mu = np.exp(rng.uniform(np.log(1e-9), np.log(3.0), size=lead + (n,)))
            got = one_pass_expectancy(mu, ages)
            assert got.shape == lead + (len(ages),)
            assert relative_error(got, self.per_age(mu, ages)) < 1e-12
            # An age's expectancy reads only the forces from that age up.
            np.testing.assert_array_equal(
                got, np.stack([period_life_expectancy(mu[..., a - first:], a)
                               for a in ages], axis=-1))
            assert relative_error(period_life_expectancy(mu, first),
                                  cumsum_expectancy(mu)) < 1e-12

    def test_zero_forces(self):
        mu = np.zeros((7, 56))
        mu[3, 20:] = 0.05
        ages = (65, 80, 120)
        got = one_pass_expectancy(mu, ages)
        assert relative_error(got, self.per_age(mu, ages)) < 1e-12
        np.testing.assert_array_equal(got[0], [56.0, 41.0, 1.0])

    def test_enormous_forces(self, rng):
        mu = np.exp(rng.uniform(-7, -1, size=(5, 121)))
        mu[:, 100:] = 1e6
        mu[4] = 1e6
        ages = (0, 65, 99, 100, 120)
        got = one_pass_expectancy(mu, ages)
        assert not np.any(np.isnan(got))
        assert relative_error(got, self.per_age(mu, ages)) < 1e-12

    def test_cohort_diagonal(self, rng):
        surface = np.exp(rng.uniform(-9, 0.5, size=(4, 56, MAX_AGE + 1)))
        steps = np.arange(56)
        want = cumsum_expectancy(surface[:, steps, 65 + steps])
        assert relative_error(cohort_life_expectancy(surface, 65), want) < 1e-12


# ---------------------------------------------------------------------------
# One pass per step: forces, closure tail and quantiles against the forms
# they replaced
# ---------------------------------------------------------------------------

def coefficients(n):
    return hnp.arrays(float, n, elements=st.floats(-0.1, 0.1))


@st.composite
def force_inputs(draw):
    """A (LiLeeParams, SimulationPaths) pair with random age and period
    effects, 1 to 40 rows and 1 to 91 ages."""
    n_ages = draw(st.integers(1, 91))
    rows = draw(st.integers(1, 40))
    years = YearRange(2018, 2020)
    params = LiLeeParams(
        ages=AgeRange(0, n_ages - 1), years=years,
        A=draw(hnp.arrays(float, n_ages, elements=st.floats(-12.0, 0.0))),
        B=draw(coefficients(n_ages)), K=np.zeros(3),
        alpha=draw(hnp.arrays(float, n_ages, elements=st.floats(-1.0, 1.0))),
        beta=draw(coefficients(n_ages)), kappa=np.zeros(3))
    effects = {name: {g: draw(hnp.arrays(float, (rows, 2),
                                         elements=st.floats(-bound, bound)))
                      for g in ("M", "F")}
               for name, bound in (("K", 100.0), ("kappa", 10.0))}
    return params, SimulationPaths(years=np.arange(2020, 2022), **effects)


class TestOnePassKernels:
    @settings(deadline=None)
    @given(force_inputs(), st.sampled_from(["M", "F"]), st.sampled_from([2020, 2021]))
    def test_forces_match_the_outer_products(self, inputs, gender, year):
        params, paths = inputs
        got = force_paths(params, paths, gender, year)
        want = outer_product_force_paths(params, paths, gender, year)
        assert got.shape == want.shape
        assert relative_error(got, want) < 1e-12
        # A single row takes einsum's dot-product loop, which adds beta kappa
        # before A + alpha; every batch of two or more rows is bit-equal.
        if len(got) > 1:
            np.testing.assert_array_equal(got, want)

    @settings(deadline=None)
    @given(force_inputs(), st.sampled_from(["M", "F"]), st.integers(1, 2), st.data())
    def test_forces_of_a_block_and_a_band_are_the_year_slices(self, inputs, gender,
                                                              n_years, data):
        params, paths = inputs
        lo = data.draw(st.integers(0, len(params.ages) - 1))
        hi = data.draw(st.integers(lo, len(params.ages) - 1))
        got = force_paths(params, paths, gender, 2022 - n_years, n_years=n_years,
                          ages=(lo, hi))
        want = np.concatenate([force_paths(params, paths, gender, year)[:, lo:hi + 1]
                               for year in range(2022 - n_years, 2022)])
        assert got.shape == want.shape
        assert np.moveaxis(got, -1, 0).flags.c_contiguous
        assert relative_error(got, want) < 1e-12
        # Bit-equal wherever the one-year call has two rows or more.
        if len(paths.K[gender]) > 1:
            np.testing.assert_array_equal(got, want)

    def test_forces_refuse_years_past_the_paths(self):
        params = tiny_params([-4.0, -3.0])
        paths = simulate_period_effects(make_fit(), make_spec(n_paths=3))
        with pytest.raises(ValidationError, match="year 2031 outside"):
            force_paths(params, paths, "M", 2029, n_years=3)

    @settings(deadline=None)
    @given(st.integers(0, MAX_AGE - 1), st.integers(1, 4), st.data())
    def test_expectancy_continued_across_bands_gives_the_one_pass_bits(self, first,
                                                                       rows, data):
        # Bands split at any ages, zeros on their first and last ages among
        # them: each band's zero masks are taken before it is overwritten.
        n = MAX_AGE + 1 - first
        mu = np.exp(data.draw(hnp.arrays(float, (rows, n),
                                         elements=st.floats(-30.0, 3.0))))
        zeros = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
        mu[:, zeros] = 0.0
        splits = sorted(data.draw(st.sets(st.integers(first + 1, MAX_AGE), max_size=5)))
        edges = [first] + splits + [MAX_AGE + 1]
        want = one_pass_expectancy(mu, range(first, MAX_AGE + 1))
        buffer = np.ascontiguousarray(mu.T)   # ages-major, as the bands hold it
        survival = np.empty(buffer.size)
        after = None
        for lo, end in reversed(list(zip(edges, edges[1:]))):
            band = buffer[lo - first:end - first]
            got = period_life_expectancy(band.T, project.AgeBand(lo, after, survival))
            assert np.shares_memory(got, buffer)
            after = band[0].copy()
        np.testing.assert_array_equal(buffer.T, want)

    def test_a_zero_force_on_a_band_edge_lives_the_whole_year(self):
        buffer = np.full((3, 2), 0.02)
        buffer[0, 0] = buffer[2, 0] = 0.0   # the band's first and last ages
        after = np.array([5.0, 5.0])
        period_life_expectancy(buffer.T, project.AgeBand(MAX_AGE - 3, after,
                                                         np.empty(6)))
        # e_117 = f + s e_118 with f = s = 1 at mu = 0.
        assert buffer[2, 0] == 1.0 + 5.0
        single = np.zeros((1, 3))
        period_life_expectancy(single.T, project.AgeBand(MAX_AGE, None, np.empty(3)))
        np.testing.assert_array_equal(single, 1.0)

    def test_an_age_band_must_fit_its_place(self):
        survival = np.empty(40)
        with pytest.raises(ValidationError, match="ending at age 119 needs"):
            period_life_expectancy(np.full((2, 10), 0.1), project.AgeBand(110, None, survival))
        with pytest.raises(ValidationError, match="ending at age 120 needs"):
            period_life_expectancy(np.full((10, 2), 0.1).T,
                                   project.AgeBand(111, np.ones(2), survival))
        with pytest.raises(ValidationError, match="laid out ages-major"):
            period_life_expectancy(np.full((2, 10), 0.1), project.AgeBand(111, None, survival))
        with pytest.raises(ValidationError, match="age must be an integer in 0..120"):
            period_life_expectancy(np.full((122, 2), 0.1).T, project.AgeBand(-1, None, survival))

    @settings(deadline=None)
    @given(st.integers(0, 80), st.integers(0, 3), st.booleans(), st.data())
    def test_closure_tail_matches_the_path_major_form(self, ages_lo, rows,
                                                      ages_major, data):
        n_in = 91 - ages_lo
        forces = hnp.arrays(float, (n_in, rows) if ages_major else (rows, n_in),
                            elements=st.floats(1e-6, 1.5))
        mu = data.draw(forces)
        mu = mu.T if ages_major else mu
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = kannisto_close(mu, ages_lo, forces=True)
            want = path_major_kannisto_close(mu, ages_lo)
        assert got.shape == want.shape == (rows, MAX_AGE + 1 - ages_lo)
        np.testing.assert_array_equal(got, want)

    @settings(deadline=None)
    @given(st.integers(1, 30), st.sampled_from([None, 0, 1, 4]), st.booleans(),
           st.data())
    def test_quantiles_equal_numpys_linear_method(self, n, columns, path_major,
                                                  data):
        """Ties, signed zeros, infinities and NaN columns, on 1-D samples
        and on either layout of 2-D ones."""
        values = st.one_of(st.floats(allow_nan=False),
                           st.sampled_from([0.0, -0.0, 1.0, 2.5]))
        if columns is None:
            shape = (n,)
        else:
            shape = (n, columns) if path_major else (columns, n)
        samples = data.draw(hnp.arrays(float, shape, elements=values))
        if columns is not None and not path_major:
            samples = samples.T
        flat = samples.reshape(n, -1)
        if flat.shape[1]:
            for column in data.draw(st.sets(st.integers(0, flat.shape[1] - 1))):
                flat[data.draw(st.integers(0, n - 1)), column] = np.nan
        probes = data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, 0.005, 0.5, 0.995, 1.0]),
                      st.floats(0.0, 1.0)), min_size=1, max_size=4, unique=True))
        with np.errstate(invalid="ignore", over="ignore"):
            got = quantile_summary(samples, probes)
            want = np_quantile_summary(samples, probes)
        assert got.shape == want.shape == (len(probes),) + samples.shape[1:]
        np.testing.assert_array_equal(got, want)

    def test_quantiles_interpolate_from_the_upper_side_at_one_half(self):
        # 0.1 + 0.6 / 2 rounds to 0.4, 0.7 - 0.6 / 2 to the float below it.
        got = quantile_summary(np.array([[0.7], [0.1]]), (0.5,))
        assert got[0, 0] == np.quantile([0.1, 0.7], 0.5) == 0.39999999999999997
