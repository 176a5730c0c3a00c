"""Joint time dynamics of the period effects with observation weights.

Per gender the common period effect follows a random walk with drift and
the country effect an AR(1) with intercept; the four innovations of one
year are jointly Gaussian with covariance C.  Stacking both genders gives
per-year observations Y_t = (dK^M, kappa^M_t, dK^F, kappa^F_t) that are
linear in the six mean parameters Psi = (theta^M, c^M, phi^M, theta^F,
c^F, phi^F), one regressor each.  The weighted Gaussian log-likelihood is
maximized by alternating a weighted GLS step for Psi, on the
cross-products G = Z'WZ and H = Z'WY (Zellner's SUR estimator), with the
closed-form weighted covariance update.  For SUR models this alternation
converges to the maximum-likelihood estimate (Oberhofer & Kmenta,
Econometrica 1974).
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import YearRange, GENDERS
from .errors import ConvergenceError, ValidationError

#: The fit stops when no entry of (Psi, C) moves by more than this,
#: relative to 1 + their largest magnitude.  The alternation's fixed point
#: is the maximum-likelihood estimate, so the settled iterate alone defines
#: the stop; the likelihood, flat to second order there, adds nothing.
PARAM_TOL = 1e-13

#: Maximum alternating iterations.
MAX_FIT_ITER = 10_000

#: Minimum effective observations: six mean parameters plus a PD covariance.
MIN_EFFECTIVE_OBS = 7

#: Ridge added to a singular covariance iterate, relative to its trace.
RIDGE_SCALE = 1e-12

PSI_NAMES = ("theta_M", "c_M", "phi_M", "theta_F", "c_F", "phi_F")

#: The equation (column of Y) each mean parameter enters, and the first
#: parameter of each equation.
_EQUATION = (0, 1, 1, 2, 3, 3)
_FIRST = np.searchsorted(_EQUATION, range(4))

LOG_2PI = float(np.log(2.0 * np.pi))


class InstabilityWarning(UserWarning):
    """An estimated AR(1) coefficient has modulus >= 1."""


@dataclass(frozen=True)
class PeriodEffectSeries:
    """Per-gender K and kappa paths over one calibration window."""

    years: YearRange
    K: dict
    kappa: dict

    def __post_init__(self):
        nt = len(self.years)
        for table in (self.K, self.kappa):
            if set(table) != set(GENDERS):
                raise ValidationError(f"period effects must cover genders {GENDERS}")
            for gender, arr in table.items():
                if np.asarray(arr).shape != (nt,):
                    raise ValidationError(
                        f"period effects for {gender} must have length {nt}"
                    )


@dataclass(frozen=True)
class Design:
    """One series' observations, a row per year after the first: `years`
    (T,), Y (T, 4) and Z (T, 6); a slice or an index array selects rows."""

    years: np.ndarray
    Y: np.ndarray
    Z: np.ndarray

    def __len__(self):
        return len(self.years)

    def __getitem__(self, rows) -> Design:
        return Design(self.years[rows], self.Y[rows], self.Z[rows])

    def residuals(self, psi) -> np.ndarray:
        """Y - Yhat: each equation sums its parameters times their regressors."""
        return self.Y - np.add.reduceat(self.Z * psi, _FIRST, axis=1)


def build_design(series: PeriodEffectSeries) -> Design:
    """Rows for t_min+1 .. t_max; exactly |T|-1 of them.

    Row layout (male block first):
        Y = (K^M_t - K^M_{t-1}, kappa^M_t, K^F_t - K^F_{t-1}, kappa^F_t)
        Z = (1, 1, kappa^M_{t-1}, 1, 1, kappa^F_{t-1})
    """
    K_m, K_f, k_m, k_f = (np.asarray(table[g], dtype=float)
                          for table in (series.K, series.kappa) for g in GENDERS)
    Y = np.stack([np.diff(K_m), k_m[1:], np.diff(K_f), k_f[1:]], axis=1)
    Z = np.ones((len(Y), 6))
    Z[:, 2] = k_m[:-1]
    Z[:, 5] = k_f[:-1]
    return Design(series.years.values()[1:], Y, Z)


@dataclass(frozen=True)
class TimeSeriesFit:
    """Weighted MLE of (Psi, C) plus diagnostics.

    `stationary` reports whether each gender's AR(1) coefficient has
    modulus < 1; no clamping is applied.
    """

    psi: np.ndarray
    C: np.ndarray
    weights: np.ndarray
    loglik: float
    iterations: int
    ridged: bool = False
    #: Relative Newton step ||I^-1 g||_inf / (1 + ||psi||_inf) left in the
    #: GLS normal equations at the returned point; NaN when the fit was not
    #: produced by `fit_weighted_mle`.
    score_norm: float = float("nan")
    #: Asymptotic covariance of Psi, I^-1 at the returned C; None when the
    #: fit was not produced by `fit_weighted_mle`.
    psi_cov: np.ndarray | None = None

    def param(self, name: str) -> float:
        return float(self.psi[PSI_NAMES.index(name)])

    @property
    def stationary(self) -> dict:
        return {"M": abs(self.param("phi_M")) < 1.0,
                "F": abs(self.param("phi_F")) < 1.0}

    def drift(self, gender: str) -> float:
        return self.param(f"theta_{gender}")

    def ar_intercept(self, gender: str) -> float:
        return self.param(f"c_{gender}")

    def ar_coefficient(self, gender: str) -> float:
        return self.param(f"phi_{gender}")


def _check_pd(C) -> np.ndarray:
    C = np.asarray(C, dtype=float)
    if C.shape != (4, 4) or not np.allclose(C, C.T, atol=1e-12):
        raise ValidationError("covariance must be symmetric 4x4")
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("covariance is not positive definite") from exc
    return C


def _weights(design: Design, weights) -> np.ndarray:
    w = np.ones(len(design)) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (len(design),):
        raise ValidationError("one weight per observation row required")
    return w


def loglik(psi, C, design: Design, weights=None) -> float:
    """Weighted Gaussian log-likelihood
    -0.5 * sum_t w_t * (4 log 2pi + log|C| + r_t' C^-1 r_t).

    With unit weights this is the unweighted likelihood whose per-row
    constant is 2 log 2pi + 0.5 log|C|.
    """
    C = _check_pd(C)
    w = _weights(design, weights)
    resid = design.residuals(psi)
    Cinv = np.linalg.inv(C)
    _, logdet = np.linalg.slogdet(C)
    quad = np.einsum("ti,ij,tj->t", resid, Cinv, resid)
    return float(-0.5 * np.sum(w * (4.0 * LOG_2PI + logdet + quad)))


def _gls_step(G, H, C):
    """The GLS solution for Psi at C and its information matrix, from
    G = Z'WZ and H = Z'WY: info[i, j] = G[i, j] Cinv[e_i, e_j] and
    rhs[i] = sum_l Cinv[e_i, l] H[i, l], with e = `_EQUATION`."""
    Cinv = np.linalg.inv(C)
    info = G * Cinv[np.ix_(_EQUATION, _EQUATION)]
    rhs = np.sum(Cinv[_EQUATION, :] * H, axis=1)
    return np.linalg.solve(info, rhs), info


def _cov_step(design, w, psi, *, warn=True):
    resid = design.residuals(psi)
    C = np.einsum("t,ti,tj->ij", w, resid, resid) / np.sum(w)
    C = 0.5 * (C + C.T)
    ridged = False
    # Ridge fallback: resurrect a singular iterate instead of crashing.
    if np.linalg.matrix_rank(C, tol=1e-12 * max(np.trace(C), 1e-300)) < 4:
        tr = np.trace(C)
        if tr <= 0:
            raise ValidationError("degenerate residuals: zero covariance iterate")
        C = C + RIDGE_SCALE * tr * np.eye(4)
        ridged = True
        if warn:
            warnings.warn("covariance iterate singular; ridge applied",
                          RuntimeWarning, stacklevel=2)
    return C, ridged


def fit_weighted_mle(design: Design, weights=None) -> TimeSeriesFit:
    """Maximize the weighted likelihood by alternating exact steps.

    Given C, Psi is the weighted GLS solution; given Psi, C is the
    weighted residual second moment.  Iterates from C = I until no entry
    of (Psi, C) moves by more than PARAM_TOL relative to its scale: the
    settled pair is a fixed point of both exact steps, which for this SUR
    likelihood is the maximum-likelihood estimate.  The log-likelihood is
    evaluated only there.  One more GLS step at the returned C gives the
    information matrix I, `psi_cov` = I^-1, and `score_norm`, the step's
    length relative to 1 + ||Psi||_inf: how exactly the fixed point was
    reached.  C needs no such check: it is the last step, so it is exact.
    """
    w = _weights(design, weights)
    if np.any(w < 0) or np.any(w > 1):
        raise ValidationError("weights must lie in [0, 1]")
    if np.sum(w) < MIN_EFFECTIVE_OBS:
        raise ValidationError(
            f"need >= {MIN_EFFECTIVE_OBS} effective observations, "
            f"got sum(w) = {np.sum(w):g}"
        )
    WZ = design.Z * w[:, None]
    G, H = WZ.T @ design.Z, WZ.T @ design.Y
    psi, _ = _gls_step(G, H, np.eye(4))
    C, _ = _cov_step(design, w, psi, warn=False)
    ridged_any = False
    for it in range(1, MAX_FIT_ITER + 1):
        psi_prev, C_prev = psi, C
        psi, _ = _gls_step(G, H, C)
        C, ridged = _cov_step(design, w, psi)
        ridged_any = ridged_any or ridged
        step = max(np.abs(psi - psi_prev).max(), np.abs(C - C_prev).max())
        scale = 1.0 + max(np.abs(psi).max(), np.abs(C).max())
        if step <= PARAM_TOL * scale:
            psi_next, info = _gls_step(G, H, C)
            return TimeSeriesFit(
                psi=psi, C=C, weights=w, loglik=loglik(psi, C, design, w),
                iterations=it, ridged=ridged_any,
                score_norm=float(np.abs(psi_next - psi).max()
                                 / (1.0 + np.abs(psi).max())),
                psi_cov=np.linalg.inv(info))
    raise ConvergenceError(
        f"time-series fit did not converge in {MAX_FIT_ITER} iterations",
        last_iterate={"psi": psi, "C": C, "loglik": loglik(psi, C, design, w)},
    )


def fit_period_effects(params: dict, weight_last: float | None = None
                       ) -> TimeSeriesFit:
    """Fit the dynamics of the per-gender period effects in `params`
    (gender -> LiLeeParams) over their calibration years.  Every
    observation row has unit weight, except that `weight_last` weights
    the final one."""
    series = PeriodEffectSeries(
        years=params["M"].years,
        K={g: params[g].K for g in GENDERS},
        kappa={g: params[g].kappa for g in GENDERS},
    )
    design = build_design(series)
    weights = np.ones(len(design))
    if weight_last is not None:
        weights[-1] = weight_last
    return fit_weighted_mle(design, weights)


# ---------------------------------------------------------------------------
# Fit CSV output
# ---------------------------------------------------------------------------

def export_fit_csv(path, fit: TimeSeriesFit):
    """Write `param,value` rows: six mean parameters plus the ten distinct
    covariance entries C_ij (upper triangle, 1-based)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("param", "value"))
        for name, value in zip(PSI_NAMES, fit.psi):
            writer.writerow((name, format(float(value), ".17g")))
        for i in range(4):
            for j in range(i, 4):
                writer.writerow((f"C_{i + 1}{j + 1}",
                                 format(float(fit.C[i, j]), ".17g")))
