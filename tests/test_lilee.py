"""Two-step calibration: likelihood, constraints, oracle comparisons."""
import numpy as np
import pytest
import oracles
from oracles import two_evaluation_fit_layer, two_fit_adjusted_lee_miller, two_fit_li_lee
from readback import import_params_csv
from scipy.optimize import minimize

from mortkit import lilee
from mortkit.data import AgeRange, YearRange
from mortkit.errors import ConvergenceError, ValidationError
from mortkit.lilee import (LiLeeParams, calibrate,
                           export_params_csv,
                           fit_adjusted_lee_miller, fit_common_trend,
                           fit_layer, lee_miller_anchors, loglik_gradient,
                           poisson_loglik)

AGES2 = AgeRange(60, 61)
YEARS3 = YearRange(2000, 2002)


def nelder_mead_oracle(deaths, exposures, restarts=6, seed=0):
    """Direct constrained maximization for the 2-age, 3-year problem.

    Parametrize B on the unit circle and K with a zero-sum basis, so the
    search is unconstrained in (A0, A1, psi, k0, k1).
    """
    d = np.asarray(deaths, dtype=float)
    E = np.asarray(exposures, dtype=float)

    def unpack(t):
        A = t[:2]
        B = np.array([np.cos(t[2]), np.sin(t[2])])
        K = np.array([t[3], t[4], -t[3] - t[4]])
        return A, B, K

    def neg(t):
        A, B, K = unpack(t)
        return -poisson_loglik(d, E, A[:, None] + B[:, None] * K[None, :])

    rng = np.random.default_rng(seed)
    A0 = np.log(d.sum(axis=1) / E.sum(axis=1))
    best = None
    for _ in range(restarts):
        start = np.concatenate([A0, rng.normal(scale=0.7, size=3)])
        res = minimize(neg, start, method="Nelder-Mead",
                       options={"maxiter": 20000, "xatol": 1e-12,
                                "fatol": 1e-13})
        if best is None or res.fun < best.fun:
            best = res
    return -best.fun, unpack(best.x)


def assert_same_calibration(got, want):
    """Bit-for-bit equal params, and each layer's likelihood and sweeps."""
    (params, fits), (want_params, want_fits) = got, want
    for name in ("A", "B", "K", "alpha", "beta", "kappa"):
        assert np.array_equal(getattr(params, name),
                              getattr(want_params, name)), name
    assert {layer: (fit.loglik, fit.sweeps)
            for layer, fit in fits.items()} == want_fits


def random_small_problem(rng):
    A = np.log(np.array([0.02, 0.05])) + rng.normal(scale=0.2, size=2)
    B = np.array([0.8, 0.6]) * (1 if rng.random() < 0.5 else -1)
    K = rng.normal(scale=0.5, size=3)
    K -= K.mean()
    E = 10 ** rng.uniform(3.0, 5.0, size=(2, 3))
    mu = np.exp(A[:, None] + B[:, None] * K[None, :])
    d = rng.poisson(mu * E).astype(float)
    d[d == 0] = 0.5   # keep rows informative in tiny problems
    return d, E


class TestLikelihood:
    def test_poisson_loglik_hand_value(self):
        # d=2, E=10, mu=0.25: 2*log(0.25) - 10*0.25
        got = poisson_loglik(np.array([[2.0]]), np.array([[10.0]]),
                             np.log(np.array([[0.25]])))
        assert got == pytest.approx(2.0 * np.log(0.25) - 2.5, rel=1e-15)

    def test_real_valued_deaths_accepted(self):
        got = poisson_loglik(np.array([[2.5]]), np.array([[10.0]]),
                             np.log(np.array([[0.25]])))
        assert got == pytest.approx(2.5 * np.log(0.25) - 2.5, rel=1e-15)

    @pytest.mark.parametrize("shape", [(2, 3), (31, 17)])
    def test_loglik_is_the_numpy_sum_bit_for_bit(self, rng, shape):
        d = rng.poisson(50.0, size=shape).astype(float)
        E = rng.uniform(1e3, 1e5, size=shape)
        log_mu = rng.uniform(-9.0, -1.0, size=shape)
        assert poisson_loglik(d, E, log_mu) == \
            float(np.sum(d * log_mu - E * np.exp(log_mu)))

    def test_gradient_matches_finite_differences(self, rng):
        d, E = random_small_problem(rng)
        A = np.log(d.sum(axis=1) / E.sum(axis=1)) + 0.1
        B = np.array([0.7, -0.4])
        K = np.array([0.3, -0.1, -0.2])

        grad = loglik_gradient(d, E, A[:, None], B, K)

        def ll(A_, B_, K_):
            return poisson_loglik(d, E, A_[:, None] + B_[:, None] * K_[None, :])

        h = 1e-6
        for name, vec in (("profile", A), ("B", B), ("K", K)):
            for i in range(vec.size):
                bump = vec.copy()
                bump[i] += h
                minus = vec.copy()
                minus[i] -= h
                args_p = {"profile": (bump, B, K), "B": (A, bump, K),
                          "K": (A, B, bump)}[name]
                args_m = {"profile": (minus, B, K), "B": (A, minus, K),
                          "K": (A, B, minus)}[name]
                fd = (ll(*args_p) - ll(*args_m)) / (2 * h)
                scale = max(1.0, abs(fd))
                assert abs(grad[name][i] - fd) / scale < 1e-4


class TestCommonTrend:
    def test_matches_nelder_mead_oracle(self, rng):
        for case in range(5):
            d, E = random_small_problem(rng)
            fit = fit_common_trend(d, E, AGES2, YEARS3)
            ll_oracle, _ = nelder_mead_oracle(d, E, seed=case)
            assert fit.loglik >= ll_oracle - 1e-6
            assert abs(fit.loglik - ll_oracle) < 1e-6

    def test_constraints_hold(self, rng):
        d, E = random_small_problem(rng)
        fit = fit_common_trend(d, E, AGES2, YEARS3)
        assert abs(np.sum(fit.B ** 2) - 1.0) < 1e-10
        assert abs(np.sum(fit.K)) < 1e-8
        assert np.sum(fit.B) >= 0

    def test_gradient_vanishes_at_optimum(self, rng):
        d, E = random_small_problem(rng)
        fit = fit_common_trend(d, E, AGES2, YEARS3)
        grad = loglik_gradient(d, E, fit.profile[:, None], fit.B, fit.K)
        scale = max(1.0, float(np.abs(d).sum()))
        for part in grad.values():
            assert np.max(np.abs(part)) / scale < 1e-7

    def test_trace_is_monotone(self, rng):
        d, E = random_small_problem(rng)
        fit = fit_common_trend(d, E, AGES2, YEARS3)
        trace = np.array(fit.loglik_trace)
        assert np.all(np.diff(trace) >= 0)

    def test_all_zero_death_row_refused(self):
        d = np.array([[0.0, 0.0, 0.0], [5.0, 6.0, 7.0]])
        E = np.full((2, 3), 100.0)
        with pytest.raises(ValidationError, match="age 60"):
            fit_common_trend(d, E, AGES2, YEARS3)

    def test_nonconvergence_reports_last_iterate(self, rng, monkeypatch):
        monkeypatch.setattr(lilee, "SWEEP_TOL", 0.0)
        monkeypatch.setattr(lilee, "MAX_SWEEPS", 2)
        d, E = random_small_problem(rng)
        with pytest.raises(ConvergenceError) as excinfo:
            fit_common_trend(d, E, AGES2, YEARS3)
        assert set(excinfo.value.last_iterate) >= {"A", "B", "K", "loglik"}

    def test_generative_recovery(self, rng):
        ages = AgeRange(70, 74)
        years = YearRange(2000, 2009)
        x = np.arange(5)
        A = np.log(0.02) + 0.08 * x
        B = np.full(5, 1.0 / np.sqrt(5.0))
        K = np.cumsum(rng.normal(-0.3, 0.1, size=10))
        K -= K.mean()
        E = np.full((5, 10), 1e6)
        d = rng.poisson(np.exp(A[:, None] + B[:, None] * K[None, :]) * E)
        fit = fit_common_trend(d.astype(float), E, ages, years)
        assert np.max(np.abs(fit.K - K)) < 0.05
        assert np.max(np.abs(fit.profile - A)) < 0.01
        assert np.max(np.abs(fit.B - B)) < 0.01


class TestCountryDeviation:
    @staticmethod
    def _pooled_and_country(rng, nx=6, nt=12):
        ages = AgeRange(60, 60 + nx - 1)
        years = YearRange(2000, 2000 + nt - 1)
        x = np.arange(nx)
        A = np.log(0.02) + 0.07 * x
        B = np.linspace(1.3, 0.7, nx)
        B /= np.sqrt(np.sum(B ** 2))
        K = np.cumsum(rng.normal(-0.25, 0.1, size=nt))
        K -= K.mean()
        alpha = 0.1 * np.cos(x / 2.0)
        beta = np.linspace(0.8, 1.2, nx)
        beta /= np.sqrt(np.sum(beta ** 2))
        kappa = rng.normal(0.0, 0.25, size=nt)
        kappa -= kappa.mean()
        E_T = np.full((nx, nt), 5e6)
        E_c = np.full((nx, nt), 8e5)
        mu_T = np.exp(A[:, None] + B[:, None] * K[None, :])
        mu_c = mu_T * np.exp(alpha[:, None] + beta[:, None] * kappa[None, :])
        d_T = rng.poisson(mu_T * E_T).astype(float)
        d_c = rng.poisson(mu_c * E_c).astype(float)
        truth = dict(A=A, B=B, K=K, alpha=alpha, beta=beta, kappa=kappa)
        return ages, years, d_T, E_T, d_c, E_c, truth

    def test_conditional_fit_recovers_deviation(self, rng):
        ages, years, d_T, E_T, d_c, E_c, truth = self._pooled_and_country(rng)
        params, _ = calibrate(d_T, E_T, d_c, E_c, ages, years)
        assert np.max(np.abs(params.K - truth["K"])) < 0.05
        assert np.max(np.abs(params.kappa - truth["kappa"])) < 0.10
        assert np.max(np.abs(params.alpha - truth["alpha"])) < 0.02
        # fitted country surface close to the true one
        mu_true = np.exp(truth["A"][:, None]
                         + truth["B"][:, None] * truth["K"][None, :]
                         + truth["alpha"][:, None]
                         + truth["beta"][:, None] * truth["kappa"][None, :])
        np.testing.assert_allclose(np.exp(params.log_mu()), mu_true, rtol=0.03)

    def test_constraints_on_country_layer(self, rng):
        ages, years, d_T, E_T, d_c, E_c, _ = self._pooled_and_country(rng)
        params, _ = calibrate(d_T, E_T, d_c, E_c, ages, years)
        assert abs(np.sum(params.beta ** 2) - 1.0) < 1e-10
        assert abs(np.sum(params.kappa)) < 1e-8
        assert np.sum(params.beta) >= 0

    def test_common_layer_is_held_fixed(self, rng):
        ages, years, d_T, E_T, d_c, E_c, _ = self._pooled_and_country(rng)
        step1 = fit_common_trend(d_T, E_T, ages, years)
        log_mu_T = step1.profile[:, None] + step1.B[:, None] * step1.K[None, :]
        step2 = fit_layer(d_c, E_c, log_mu_T, ages, years)
        params, _ = calibrate(d_T, E_T, d_c, E_c, ages, years)
        np.testing.assert_array_equal(params.A, step1.profile)
        np.testing.assert_array_equal(params.K, step1.K)
        np.testing.assert_allclose(params.kappa, step2.K, rtol=0, atol=0)

    def test_matches_the_two_fit_oracle(self, rng):
        # The one layer fit reproduces the Li-Lee pair of fits bit for bit.
        for nx, nt in ((6, 12), (3, 5), (9, 20), (5, 8), (11, 30)):
            ages, years, *grids, _ = self._pooled_and_country(rng, nx, nt)
            assert_same_calibration(calibrate(*grids, ages, years),
                                    two_fit_li_lee(*grids, ages, years))

    @pytest.mark.parametrize("d_shape, E_shape, years", [
        ((2, 4), (2, 4), YEARS3),                  # deaths span 4 years
        ((2, 3), (2, 4), YEARS3),                  # exposures span 4 years
        ((3, 3), (3, 3), YEARS3),                  # 3 ages against 2
        ((2, 3), (2, 3), YearRange(2000, 2003)),   # 4 years declared
    ])
    def test_mismatched_shapes_refused(self, d_shape, E_shape, years):
        d = np.full(d_shape, 5.0)
        E = np.full(E_shape, 100.0)
        with pytest.raises(ValidationError, match=r"\(n_ages, n_years\)"):
            fit_layer(d, E, np.zeros(d_shape), AGES2, years)
        with pytest.raises(ValidationError, match=r"\(n_ages, n_years\)"):
            fit_common_trend(d, E, AGES2, years)

    def test_common_surface_shape_refused(self):
        d = np.full((2, 3), 5.0)
        with pytest.raises(ValidationError, match="common surface"):
            fit_layer(d, d * 20.0, np.zeros((2, 4)), AGES2, YEARS3)


class TestAdjustedLeeMiller:
    @staticmethod
    def _inputs(rng, nx=5, nt=8):
        ages = AgeRange(60, 60 + nx - 1)
        years = YearRange(2010, 2010 + nt - 1)
        E_T = np.full((nx, nt), 3e5)
        E_c = np.full((nx, nt), 6e4)
        x = np.arange(nx)
        mu = np.exp(np.log(0.03) + 0.08 * x)[:, None] \
            * np.exp(-0.02 * np.arange(nt))[None, :]
        d_T = rng.poisson(mu * E_T).astype(float) + 1.0
        d_c = rng.poisson(1.1 * mu * E_c).astype(float) + 1.0
        return ages, years, d_T, E_T, d_c, E_c

    def test_anchor_blend_is_bit_exact(self, rng):
        ages, years, d_T, E_T, d_c, E_c = self._inputs(rng)
        w = 0.4
        params, _ = fit_adjusted_lee_miller(d_T, E_T, d_c, E_c, ages, years, w)
        m_T = d_T / E_T
        expected_A = w * np.log(m_T[:, -1]) + (1 - w) * np.log(m_T[:, -2])
        ratio = d_c / (E_c * m_T)
        expected_alpha = w * np.log(ratio[:, -1]) + (1 - w) * np.log(ratio[:, -2])
        np.testing.assert_array_equal(params.A, expected_A)
        np.testing.assert_array_equal(params.alpha, expected_alpha)

    def test_final_year_pinned_to_zero(self, rng):
        ages, years, d_T, E_T, d_c, E_c = self._inputs(rng)
        params, _ = fit_adjusted_lee_miller(d_T, E_T, d_c, E_c, ages, years, 0.7)
        assert params.K[-1] == 0.0
        assert params.kappa[-1] == 0.0
        assert params.jump_off == (0.0, 0.0)
        assert abs(np.sum(params.B ** 2) - 1.0) < 1e-10

    def test_w1_reproduces_final_year_rates(self, rng):
        ages, years, d_T, E_T, d_c, E_c = self._inputs(rng)
        params, _ = fit_adjusted_lee_miller(d_T, E_T, d_c, E_c, ages, years, 1.0)
        np.testing.assert_allclose(np.exp(params.log_mu()[:, -1]),
                                   d_c[:, -1] / E_c[:, -1], rtol=1e-12)

    def test_w0_reproduces_previous_year_rates(self, rng):
        ages, years, d_T, E_T, d_c, E_c = self._inputs(rng)
        params, _ = fit_adjusted_lee_miller(d_T, E_T, d_c, E_c, ages, years, 0.0)
        np.testing.assert_allclose(np.exp(params.log_mu()[:, -1]),
                                   d_c[:, -2] / E_c[:, -2], rtol=1e-12)

    @pytest.mark.parametrize("w", [0.0, 0.37, 1.0])
    def test_matches_the_two_fit_oracle(self, rng, w):
        # The shared two-step fit reproduces the variant's own pair of
        # anchored fits bit for bit.
        for nx, nt in ((5, 8), (7, 12)):
            ages, years, *grids = self._inputs(rng, nx, nt)
            assert_same_calibration(
                fit_adjusted_lee_miller(*grids, ages, years, w),
                two_fit_adjusted_lee_miller(*grids, ages, years, w))

    @pytest.mark.parametrize("which, shape", [
        (2, (5, 7)),    # country deaths one year short
        (3, (5, 9)),    # country exposures one year long
        (1, (4, 8)),    # pooled exposures one age short
    ])
    def test_mismatched_shapes_refused(self, rng, which, shape):
        ages, years, *grids = self._inputs(rng)
        grids[which] = np.full(shape, 10.0)
        with pytest.raises(ValidationError, match="n_ages, n_years"):
            fit_adjusted_lee_miller(*grids, ages, years, 0.5)

    def test_declared_grid_mismatch_refused(self, rng):
        ages, years, d_T, E_T, d_c, E_c = self._inputs(rng)
        with pytest.raises(ValidationError, match=r"\(n_ages, n_years\)"):
            fit_adjusted_lee_miller(d_T, E_T, d_c, E_c, ages,
                                    YearRange(years.first, years.last + 1), 0.5)

    def test_zero_anchor_deaths_refused(self, rng):
        ages, years, d_T, E_T, d_c, E_c = self._inputs(rng)
        d_c[1, -1] = 0.0
        with pytest.raises(ValidationError, match="anchor year"):
            lee_miller_anchors(d_T, E_T, d_c, E_c, 0.5)

    def test_blend_weight_bounds(self, rng):
        ages, years, d_T, E_T, d_c, E_c = self._inputs(rng)
        with pytest.raises(ValidationError, match="blend weight"):
            lee_miller_anchors(d_T, E_T, d_c, E_c, 1.5)


def layer_designs(rng):
    """(name, deaths, exposures, offset, ages, years, anchor) of each kind
    of layer fit: the Li-Lee common and country layers and the anchored
    layers of the adjusted variant."""
    ages, years, d_T, E_T, d_c, E_c, _ = TestCountryDeviation._pooled_and_country(rng)
    common = fit_common_trend(d_T, E_T, ages, years)
    log_mu_T = common.profile[:, None] + common.B[:, None] * common.K[None, :]
    anchors = lee_miller_anchors(d_T, E_T, d_c, E_c, 0.37)
    zero = np.zeros_like(d_T)
    return [("common", d_T, E_T, zero, ages, years, None),
            ("country", d_c, E_c, log_mu_T, ages, years, None),
            ("anchored common", d_T, E_T, zero, ages, years, anchors.common),
            ("anchored country", d_c, E_c, log_mu_T, ages, years, anchors.country)]


class TestOneEvaluationPerCandidate:
    def test_fit_layer_equals_the_two_evaluation_loop(self, rng):
        for name, *design in layer_designs(rng):
            got, want = fit_layer(*design), two_evaluation_fit_layer(*design)
            for field in ("profile", "B", "K"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), name
            assert (got.loglik, got.loglik_trace, got.sweeps) == \
                (want.loglik, want.loglik_trace, want.sweeps), name

    def test_one_exp_per_candidate_plus_one_per_sweep(self, rng, monkeypatch):
        # The candidates are those the two-evaluation loop scores: the same
        # iterates, each scored by one poisson_loglik call after the
        # starting one.  A Li-Lee fit also takes one exp of its offset for
        # the profile's start.
        for name, *design in layer_designs(rng):
            d = design[0]
            scored = []
            monkeypatch.setattr(oracles, "poisson_loglik",
                                lambda *args: scored.append(1) or poisson_loglik(*args))
            sweeps = two_evaluation_fit_layer(*design).sweeps
            exps = []

            class CountingNumpy:
                def __getattr__(self, attr):
                    return getattr(np, attr)

                def exp(self, x, *args, **kwargs):
                    exps.append(np.shape(x) == d.shape)
                    return np.exp(x, *args, **kwargs)

            monkeypatch.setattr(lilee, "np", CountingNumpy())
            assert fit_layer(*design).sweeps == sweeps
            monkeypatch.undo()
            start = design[-1] is None
            assert sum(exps) == (len(scored) - 1) + sweeps + start, name


class TestParamsCsv:
    def test_roundtrip_exact(self, rng, tmp_path):
        ages = AgeRange(0, 3)
        years = YearRange(2015, 2018)
        table = {}
        for gender in ("M", "F"):
            B = rng.normal(size=4)
            B /= np.sqrt(np.sum(B ** 2))
            K = rng.normal(size=4)
            K -= K.mean()
            beta = rng.normal(size=4)
            beta /= np.sqrt(np.sum(beta ** 2))
            kappa = rng.normal(size=4)
            kappa -= kappa.mean()
            table[gender] = LiLeeParams(
                ages=ages, years=years, A=rng.normal(size=4), B=B, K=K,
                alpha=rng.normal(size=4), beta=beta, kappa=kappa)
        path = tmp_path / "params.csv"
        export_params_csv(path, table)
        loaded = import_params_csv(path)
        for gender in ("M", "F"):
            for name in ("A", "B", "K", "alpha", "beta", "kappa"):
                np.testing.assert_array_equal(
                    getattr(loaded[gender], name), getattr(table[gender], name))
        assert loaded["M"].ages == ages
        assert loaded["M"].years == years
