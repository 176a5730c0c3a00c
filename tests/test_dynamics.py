"""Weighted Gaussian MLE for the joint drift/AR(1) period dynamics."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import design_matrices, per_row_design, two_rule_weighted_mle
from readback import import_fit_csv
from scipy import optimize, stats

import mortkit
from mortkit import dynamics
from mortkit.data import YearRange
from mortkit.dynamics import (LOG_2PI, PSI_NAMES, PeriodEffectSeries,
                              TimeSeriesFit, build_design, export_fit_csv,
                              fit_weighted_mle, loglik)
from mortkit.errors import ConvergenceError, ParseError, ValidationError

TRUE_PSI = np.array([-0.20, -0.016, 0.95, -0.17, -0.030, 0.90])

CHOL = np.array([
    [0.15, 0.00, 0.00, 0.00],
    [0.04, 0.09, 0.00, 0.00],
    [0.06, 0.02, 0.14, 0.00],
    [0.01, 0.05, 0.03, 0.10],
])

TRUE_C = CHOL @ CHOL.T


def simulate_series(rng, n_years, psi=TRUE_PSI, chol=CHOL, first_year=1990):
    th_m, c_m, ph_m, th_f, c_f, ph_f = psi
    K = {"M": [0.0], "F": [0.0]}
    kappa = {"M": [0.0], "F": [0.0]}
    for _ in range(n_years - 1):
        eps = chol @ rng.standard_normal(4)
        K["M"].append(K["M"][-1] + th_m + eps[0])
        kappa["M"].append(c_m + ph_m * kappa["M"][-1] + eps[1])
        K["F"].append(K["F"][-1] + th_f + eps[2])
        kappa["F"].append(c_f + ph_f * kappa["F"][-1] + eps[3])
    return PeriodEffectSeries(
        years=YearRange(first_year, first_year + n_years - 1),
        K={g: np.array(v) for g, v in K.items()},
        kappa={g: np.array(v) for g, v in kappa.items()},
    )


def gls_solution(design, weights, C):
    """Independent weighted GLS solve of the stacked normal equations."""
    Cinv = np.linalg.inv(C)
    lhs = np.zeros((6, 6))
    rhs = np.zeros(6)
    for Y, X, w in zip(design.Y, design_matrices(design), weights):
        lhs += w * X.T @ Cinv @ X
        rhs += w * X.T @ Cinv @ Y
    return np.linalg.solve(lhs, rhs)


class TestDesign:
    def test_one_row_per_transition(self, rng):
        series = simulate_series(rng, 14)
        rows = build_design(series)
        assert len(rows) == 13
        assert rows.years[0] == 1991
        assert rows.years[-1] == 2003

    def test_observation_stacks_diffs_and_levels(self, rng):
        series = simulate_series(rng, 5)
        design = build_design(series)
        np.testing.assert_allclose(design.Y[2], [
            series.K["M"][3] - series.K["M"][2],
            series.kappa["M"][3],
            series.K["F"][3] - series.K["F"][2],
            series.kappa["F"][3],
        ])

    def test_design_sparsity_pattern(self, rng):
        series = simulate_series(rng, 9)
        allowed = {(0, 0), (1, 1), (1, 2), (2, 3), (3, 4), (3, 5)}
        design = build_design(series)
        for j, (Z, X) in enumerate(zip(design.Z, design_matrices(design)), start=1):
            assert Z.shape == (6,)
            assert X.shape == (4, 6)
            nonzero = set(zip(*np.nonzero(X)))
            assert nonzero <= allowed
            for i, k in ((0, 0), (1, 1), (2, 3), (3, 4)):
                assert X[i, k] == 1.0
            assert X[1, 2] == series.kappa["M"][j - 1]
            assert X[3, 5] == series.kappa["F"][j - 1]
            assert np.array_equal(Z, X.sum(axis=0))

    def test_series_requires_both_genders(self):
        years = YearRange(2000, 2004)
        with pytest.raises(ValidationError, match="genders"):
            PeriodEffectSeries(years=years, K={"M": np.zeros(5)},
                               kappa={"M": np.zeros(5)})

    def test_series_requires_matching_length(self):
        years = YearRange(2000, 2004)
        with pytest.raises(ValidationError, match="length 5"):
            PeriodEffectSeries(
                years=years,
                K={"M": np.zeros(5), "F": np.zeros(4)},
                kappa={"M": np.zeros(5), "F": np.zeros(5)},
            )

    def test_arrays_equal_the_per_row_oracle(self, rng):
        for n_years in range(2, 41):
            series = simulate_series(rng, n_years,
                                     first_year=int(rng.integers(1900, 2000)))
            design = build_design(series)
            years, Ys, Xs = zip(*per_row_design(series))
            assert np.array_equal(design.years, years)
            assert np.array_equal(design.Y, np.stack(Ys))
            assert np.array_equal(design_matrices(design), np.stack(Xs))

    def test_dropping_the_last_row_is_the_shorter_series(self, rng):
        for n_years in range(2, 41):
            series = simulate_series(rng, n_years)
            shorter = PeriodEffectSeries(
                years=YearRange(series.years.first, series.years.last - 1),
                K={g: v[:-1] for g, v in series.K.items()},
                kappa={g: v[:-1] for g, v in series.kappa.items()},
            )
            head, want = build_design(series)[:-1], build_design(shorter)
            assert len(head) == n_years - 2
            for field in ("years", "Y", "Z"):
                assert np.array_equal(getattr(head, field), getattr(want, field))


class TestLoglik:
    def test_zero_residual_identity_covariance_value(self):
        series = PeriodEffectSeries(
            years=YearRange(2000, 2001),
            K={"M": np.zeros(2), "F": np.zeros(2)},
            kappa={"M": np.zeros(2), "F": np.zeros(2)},
        )
        rows = build_design(series)
        value = loglik(np.zeros(6), np.eye(4), rows)
        assert value == -2.0 * LOG_2PI
        assert value == pytest.approx(-3.6757541328186907, abs=1e-15)

    def test_matches_multivariate_normal_oracle(self, rng):
        series = simulate_series(rng, 16)
        rows = build_design(series)
        psi = TRUE_PSI + 0.05 * rng.standard_normal(6)
        weights = rng.uniform(0.1, 1.0, size=len(rows))
        expected = sum(
            w * stats.multivariate_normal(mean=X @ psi, cov=TRUE_C).logpdf(Y)
            for Y, X, w in zip(rows.Y, design_matrices(rows), weights)
        )
        value = loglik(psi, TRUE_C, rows, weights)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_linear_in_weights(self, rng):
        series = simulate_series(rng, 10)
        rows = build_design(series)
        half = np.full(len(rows), 0.5)
        assert loglik(TRUE_PSI, TRUE_C, rows, 2.0 * half) == pytest.approx(
            2.0 * loglik(TRUE_PSI, TRUE_C, rows, half), rel=1e-14)

    def test_row_order_invariance(self, rng):
        series = simulate_series(rng, 10)
        rows = build_design(series)
        shuffled = rows[rng.permutation(len(rows))]
        assert loglik(TRUE_PSI, TRUE_C, shuffled) == pytest.approx(
            loglik(TRUE_PSI, TRUE_C, rows), rel=1e-14)

    def test_rejects_indefinite_covariance(self, rng):
        rows = build_design(simulate_series(rng, 8))
        bad = np.eye(4)
        bad[3, 3] = -1.0
        with pytest.raises(ValidationError, match="positive definite"):
            loglik(TRUE_PSI, bad, rows)

    def test_rejects_asymmetric_covariance(self, rng):
        rows = build_design(simulate_series(rng, 8))
        bad = np.eye(4)
        bad[0, 1] = 0.3
        with pytest.raises(ValidationError, match="symmetric"):
            loglik(TRUE_PSI, bad, rows)

    def test_requires_one_weight_per_row(self, rng):
        rows = build_design(simulate_series(rng, 8))
        with pytest.raises(ValidationError, match="one weight per"):
            loglik(TRUE_PSI, TRUE_C, rows, np.ones(3))


class TestWeightedFit:
    def test_zero_final_weight_equals_truncated_fit(self, rng):
        rows = build_design(simulate_series(rng, 18))
        weights = np.ones(len(rows))
        weights[-1] = 0.0
        fit_w = fit_weighted_mle(rows, weights)
        fit_t = fit_weighted_mle(rows[:-1])
        np.testing.assert_allclose(fit_w.psi, fit_t.psi, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fit_w.C, fit_t.C, rtol=0, atol=1e-10)

    def test_returned_psi_is_gls_fixed_point(self, rng):
        rows = build_design(simulate_series(rng, 24))
        fit = fit_weighted_mle(rows)
        np.testing.assert_allclose(
            fit.psi, gls_solution(rows, fit.weights, fit.C), rtol=0, atol=1e-10)

    def test_returned_c_is_weighted_residual_moment(self, rng):
        rows = build_design(simulate_series(rng, 24))
        weights = np.linspace(0.4, 1.0, len(rows))
        fit = fit_weighted_mle(rows, weights)
        moment = np.zeros((4, 4))
        for Y, X, w in zip(rows.Y, design_matrices(rows), weights):
            resid = Y - X @ fit.psi
            moment += w * np.outer(resid, resid)
        np.testing.assert_allclose(
            fit.C, moment / weights.sum(), rtol=0, atol=1e-12)

    def test_mean_gradient_vanishes_at_optimum(self, rng):
        rows = build_design(simulate_series(rng, 24))
        fit = fit_weighted_mle(rows)
        h = 1e-5
        for i in range(6):
            up, down = fit.psi.copy(), fit.psi.copy()
            up[i] += h
            down[i] -= h
            grad = (loglik(up, fit.C, rows, fit.weights)
                    - loglik(down, fit.C, rows, fit.weights)) / (2 * h)
            assert abs(grad) < 1e-6

    def test_recovers_generative_parameters(self, rng):
        rows = build_design(simulate_series(rng, 500))
        fit = fit_weighted_mle(rows)
        se = np.sqrt(np.diag(fit.psi_cov))
        np.testing.assert_array_less(np.abs(fit.psi - TRUE_PSI), 3.0 * se)
        frob = np.linalg.norm(fit.C - TRUE_C) / np.linalg.norm(TRUE_C)
        assert frob < 0.10

    def test_bit_identical_refits(self, rng):
        rows = build_design(simulate_series(rng, 20))
        first = fit_weighted_mle(rows)
        second = fit_weighted_mle(rows)
        assert np.array_equal(first.psi, second.psi)
        assert np.array_equal(first.C, second.C)
        assert first.loglik == second.loglik

    def test_downweighting_an_outlier_never_inflates_variance(self, rng):
        series = simulate_series(rng, 16)
        K = {g: v.copy() for g, v in series.K.items()}
        kappa = {g: v.copy() for g, v in series.kappa.items()}
        K["M"][-1] += 2.0
        K["F"][-1] += 1.5
        kappa["M"][-1] += 1.0
        kappa["F"][-1] -= 1.0
        rows = build_design(PeriodEffectSeries(
            years=series.years, K=K, kappa=kappa))
        previous = None
        for w_last in (1.0, 0.75, 0.5, 0.25, 0.0):
            weights = np.ones(len(rows))
            weights[-1] = w_last
            diag = np.diag(fit_weighted_mle(rows, weights).C)
            if previous is not None:
                np.testing.assert_array_less(diag, previous + 1e-10)
            previous = diag

    def test_stationarity_flags_per_gender(self, rng):
        fit = fit_weighted_mle(build_design(simulate_series(rng, 40)))
        assert fit.stationary == {"M": True, "F": True}
        assert fit.param("theta_M") == fit.drift("M")
        assert fit.param("c_F") == fit.ar_intercept("F")
        assert fit.param("phi_M") == fit.ar_coefficient("M")

    def test_explosive_coefficient_reported_not_clamped(self):
        psi = np.array([-0.2, 0.0, 0.95, -0.2, 0.0, 1.01])
        fit = TimeSeriesFit(psi=psi, C=np.eye(4), weights=np.ones(9),
                            loglik=0.0, iterations=1)
        assert fit.stationary == {"M": True, "F": False}
        assert fit.ar_coefficient("F") == 1.01

    def test_requires_seven_effective_observations(self, rng):
        rows = build_design(simulate_series(rng, 11))
        weights = np.full(len(rows), 0.65)
        with pytest.raises(ValidationError, match="effective"):
            fit_weighted_mle(rows, weights)

    def test_rejects_weights_outside_unit_interval(self, rng):
        rows = build_design(simulate_series(rng, 12))
        bad = np.ones(len(rows))
        bad[0] = 1.5
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            fit_weighted_mle(rows, bad)
        bad[0] = -0.1
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            fit_weighted_mle(rows, bad)

    def test_collinear_residuals_ridge_then_diagnostic_error(self, rng, monkeypatch):
        series = simulate_series(rng, 14)
        rows = build_design(PeriodEffectSeries(
            years=series.years,
            K={"M": series.K["M"], "F": series.K["M"] + 1.0},
            kappa=series.kappa,
        ))
        with pytest.warns(RuntimeWarning, match="ridge"):
            assert fit_weighted_mle(rows).ridged
        # Three iterations cannot settle the ridged iterate.
        monkeypatch.setattr(dynamics, "MAX_FIT_ITER", 3)
        with pytest.warns(RuntimeWarning, match="ridge"):
            with pytest.raises(ConvergenceError) as excinfo:
                fit_weighted_mle(rows)
        last = excinfo.value.last_iterate
        assert set(last) == {"psi", "C", "loglik"}
        assert last["loglik"] == loglik(last["psi"], last["C"], rows)
        np.linalg.cholesky(last["C"])


class TestFixedPoint:
    """The alternation's fixed point is the maximum-likelihood estimate."""

    @pytest.mark.parametrize("w_last", [None, 0.5, 0.0])
    def test_lbfgs_finds_no_gain_from_the_fit(self, rng, w_last):
        for _ in range(3):
            rows = build_design(simulate_series(rng, int(rng.integers(12, 30))))
            weights = rng.uniform(0.3, 1.0, size=len(rows))
            if w_last is not None:
                weights[-1] = w_last
            fit = fit_weighted_mle(rows, weights)
            assert fit.score_norm < 1e-9
            tril = np.tril_indices(4)

            def neg(theta):
                L = np.zeros((4, 4))
                L[tril] = theta[6:]
                try:
                    return -loglik(theta[:6], L @ L.T, rows, weights)
                except (ValidationError, np.linalg.LinAlgError):
                    return np.inf

            start = np.concatenate([fit.psi, np.linalg.cholesky(fit.C)[tril]])
            res = optimize.minimize(neg, start, method="L-BFGS-B")
            assert -res.fun <= fit.loglik + 1e-8

    def test_score_norm_is_the_relative_gls_step(self, rng, monkeypatch):
        # A loose stop leaves a step that rounding does not hide.
        monkeypatch.setattr(dynamics, "PARAM_TOL", 1e-6)
        rows = build_design(simulate_series(rng, 20))
        weights = rng.uniform(0.3, 1.0, size=len(rows))
        fit = fit_weighted_mle(rows, weights)
        expected = (np.abs(gls_solution(rows, weights, fit.C) - fit.psi).max()
                    / (1.0 + np.abs(fit.psi).max()))
        # Measured over 30 seeds: steps of 1.2e-8 and more, on which the two
        # GLS forms' rounding differs by at most 2.3e-8 relative.
        assert expected > 1e-9
        assert fit.score_norm == pytest.approx(expected, rel=1e-6)

    def test_psi_cov_inverts_the_per_row_information(self, rng):
        # Measured over 90 such fits: at most 3.5e-15 relative to the
        # largest entry.
        for n_years, w_last in ((12, None), (24, 0.0), (60, 0.5)):
            series = simulate_series(rng, n_years)
            rows = build_design(series)
            weights = rng.uniform(0.5, 1.0, size=len(rows))
            if w_last is not None:
                weights[-1] = w_last
            fit = fit_weighted_mle(rows, weights)
            Cinv = np.linalg.inv(fit.C)
            info = sum(w * X.T @ Cinv @ X
                       for (_, _, X), w in zip(per_row_design(series), weights))
            want = np.linalg.inv(info)
            assert np.abs(fit.psi_cov - want).max() <= 1e-12 * np.abs(want).max()

    def test_gls_step_equals_the_stacked_normal_equations(self, rng):
        # Random SPD C with eigenvalues in [1e-3, 1]: over 2000 such cases
        # the two solutions differ by at most 1.2e-13 relative to the
        # largest entry.  The difference grows with cond(C), as any two
        # backward-stable solves' do (2.9e-12 at cond(C) near 1e5).
        for _ in range(50):
            rows = build_design(simulate_series(rng, int(rng.integers(8, 60))))
            weights = rng.uniform(0.0, 1.0, size=len(rows))
            weights[rng.random(len(rows)) < 0.2] = 0.0
            Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            C = (Q * 10.0 ** rng.uniform(-3, 0, size=4)) @ Q.T
            G = np.einsum("t,ti,tj->ij", weights, rows.Z, rows.Z)
            H = np.einsum("t,ti,tl->il", weights, rows.Z, rows.Y)
            got, _ = dynamics._gls_step(G, H, C)
            want = gls_solution(rows, weights, C)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_import_loads_no_scipy(self):
        src = Path(mortkit.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        code = ("import mortkit, sys; "
                "print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


def random_design(rng):
    """A series of 10-70 years with AR coefficients in [0.3, 0.99] and each
    innovation scaled by its own factor in [1e-4, 10], under unit,
    random or zero-final weights."""
    psi = TRUE_PSI.copy()
    psi[[2, 5]] = rng.uniform(0.3, 0.99, size=2)
    chol = 10.0 ** rng.uniform(-4.0, 1.0, size=4)[:, None] * CHOL
    rows = build_design(simulate_series(rng, int(rng.integers(10, 71)), psi, chol))
    weights = np.ones(len(rows))
    if rng.random() < 0.5:
        weights = rng.uniform(0.3, 1.0, size=len(rows))
    if rng.random() < 1 / 3:
        weights[-1] = 0.0
    if weights.sum() < dynamics.MIN_EFFECTIVE_OBS:
        weights = np.ones(len(rows))
    return rows, weights


class TestStopRule:
    """The fit stops on its settled iterate alone; the two-rule fit that
    also waited for the log-likelihood change to fall below 1e-12, with
    the einsum GLS step over per-year design matrices, is the oracle.  The
    cross-product step rounds differently from the einsum, so the two fits
    agree to a bound, not bit for bit."""

    def assert_close_fit(self, got, want):
        # Measured over 348 such designs: at most 9.4e-15 in psi and 6.3e-15
        # in C relative to the largest entry, and the same iteration count.
        assert np.abs(got.psi - want.psi).max() <= 1e-12 * np.abs(want.psi).max()
        assert np.abs(got.C - want.C).max() <= 1e-12 * np.abs(want.C).max()
        assert (got.iterations, got.ridged) == (want.iterations, want.ridged)
        assert got.loglik == pytest.approx(want.loglik, rel=1e-12)
        assert got.score_norm < 1e-12

    def test_close_on_the_weight_zero_criterion_designs(self):
        # Acceptance criterion 4's rows: its seed, 13 years from 2008.
        rows = build_design(simulate_series(np.random.default_rng(20260814), 13,
                                            first_year=2008))
        weights = np.ones(len(rows))
        weights[-1] = 0.0
        for design, w in ((rows, None), (rows, weights), (rows[:-1], None)):
            self.assert_close_fit(fit_weighted_mle(design, w),
                                  two_rule_weighted_mle(design, w))

    def test_close_on_simulated_series(self, rng):
        for n_years in (12, 14, 20, 30, 45, 80):
            rows = build_design(simulate_series(rng, n_years))
            for weights in (None, rng.uniform(0.3, 1.0, size=len(rows))):
                self.assert_close_fit(fit_weighted_mle(rows, weights),
                                      two_rule_weighted_mle(rows, weights))

    def test_earlier_stops_stay_within_the_oracle_bound(self, rng):
        # Measured over these 40 designs, all of which both fits settle: at
        # most 1.5e-11 in psi and 1.3e-12 in C relative to its largest
        # entry, where the iterate settles before the likelihood change
        # resolves or the two forms' rounding moves the stop; the bound
        # leaves a factor of 7.
        compared = 0
        for _ in range(40):
            rows, weights = random_design(rng)
            try:
                want = two_rule_weighted_mle(rows, weights)
            except ConvergenceError:
                continue
            got = fit_weighted_mle(rows, weights)
            compared += 1
            assert np.abs(got.psi - want.psi).max() <= 1e-10
            assert np.abs(got.C - want.C).max() <= 1e-10 * np.abs(want.C).max()
            assert got.score_norm < 1e-10
        assert compared >= 30

    def test_near_deterministic_series_converges(self, monkeypatch):
        # Innovations 1e-8 of the usual size: the likelihood's rounding
        # noise never falls below 1e-12, so the two-rule fit runs to any
        # iteration cap.
        monkeypatch.setattr(dynamics, "MAX_FIT_ITER", 200)
        for seed in range(3):
            rows = build_design(simulate_series(
                np.random.default_rng(seed), 40, chol=1e-8 * CHOL))
            fit = fit_weighted_mle(rows)
            assert fit.iterations < 20
            assert fit.score_norm < 1e-12
            with pytest.raises(ConvergenceError):
                two_rule_weighted_mle(rows)


class TestFitCsv:
    def test_round_trip_is_exact(self, rng, tmp_path):
        fit = fit_weighted_mle(build_design(simulate_series(rng, 15)))
        path = tmp_path / "fit.csv"
        export_fit_csv(path, fit)
        psi, C = import_fit_csv(path)
        assert np.array_equal(psi, fit.psi)
        assert np.array_equal(C, fit.C)

    def test_import_rejects_missing_entry(self, tmp_path):
        path = tmp_path / "fit.csv"
        path.write_text("param,value\ntheta_M,-0.2\n")
        with pytest.raises(ParseError, match="missing entry"):
            import_fit_csv(path)

    def test_import_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "fit.csv"
        path.write_text("name,val\ntheta_M,-0.2\n")
        with pytest.raises(ParseError, match="header"):
            import_fit_csv(path)

    def test_export_covers_all_names(self, rng, tmp_path):
        fit = fit_weighted_mle(build_design(simulate_series(rng, 15)))
        path = tmp_path / "fit.csv"
        export_fit_csv(path, fit)
        names = [line.split(",")[0] for line in
                 path.read_text().splitlines()[1:]]
        assert names[:6] == list(PSI_NAMES)
        assert len(names) == 6 + 10
