"""Two-step multi-population mortality calibration by Poisson likelihood.

The common trend log mu^T = A_x + B_x K_t is fitted to pool-aggregated
deaths and exposures; a country's deviation log(mu^c / mu^T) = a_x + b_x k_t
is fitted conditionally on the common fit.  Both steps maximize the
Poisson log-likelihood sum(d log mu - E mu) by cyclic blockwise Newton
updates with post-sweep renormalization.  An adjusted variant pins the
age profiles to blended end-of-period log rates and the period effects to
zero in the final year, so the fitted final-year rates reproduce a blend
of the last two observed years.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import AgeRange, YearRange, GENDERS
from .errors import ConvergenceError, ParseError, ValidationError

#: Convergence: relative log-likelihood improvement per sweep below this.
SWEEP_TOL = 1e-10

#: Hard cap on calibration sweeps before giving up.
MAX_SWEEPS = 10_000

LI_LEE = "LI_LEE"
ADJUSTED_LEE_MILLER = "ADJUSTED_LEE_MILLER"


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiLeeParams:
    """Calibrated age and period effects for one (country, gender).

    A/B/K describe the common trend, alpha/beta/kappa the country
    deviation.  For the adjusted variant A and alpha hold the blended
    log-rate anchors, K and kappa vanish in the final calibration year,
    and `blend_weight` records the final-year weight.
    """

    ages: AgeRange
    years: YearRange
    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    model_kind: str = LI_LEE
    blend_weight: float | None = None

    def __post_init__(self):
        nx, nt = len(self.ages), len(self.years)
        for name, size in (("A", nx), ("B", nx), ("alpha", nx), ("beta", nx),
                           ("K", nt), ("kappa", nt)):
            arr = getattr(self, name)
            if arr.shape != (size,):
                raise ValidationError(f"{name} has shape {arr.shape}, expected ({size},)")
        if self.model_kind not in (LI_LEE, ADJUSTED_LEE_MILLER):
            raise ValidationError(f"unknown model kind {self.model_kind!r}")
        if self.model_kind == ADJUSTED_LEE_MILLER and self.blend_weight is None:
            raise ValidationError("adjusted variant needs a blend weight")

    def log_mu_common(self, K=None) -> np.ndarray:
        """log mu^T over the grid, or for externally supplied K values."""
        K = self.K if K is None else np.asarray(K)
        return self.A[:, None] + self.B[:, None] * K[None, ...].reshape(1, -1)

    def log_mu(self, K=None, kappa=None) -> np.ndarray:
        """log mu^c = log mu^T + deviation over the grid (or supplied periods)."""
        kappa = self.kappa if kappa is None else np.asarray(kappa)
        dev = self.alpha[:, None] + self.beta[:, None] * kappa[None, ...].reshape(1, -1)
        return self.log_mu_common(K) + dev

    @property
    def jump_off(self) -> tuple[float, float]:
        """(K, kappa) in the final calibration year."""
        return float(self.K[-1]), float(self.kappa[-1])


@dataclass(frozen=True)
class FittedSurface:
    """Fitted forces plus per-step diagnostics for one calibration."""

    mu_common: np.ndarray
    mu_country: np.ndarray
    loglik_common: float
    loglik_country: float
    sweeps_common: int
    sweeps_country: int


@dataclass(frozen=True)
class LeeMillerAnchors:
    """Blended final-year log-rate anchors for the adjusted variant."""

    blend_weight: float
    common: np.ndarray    # blended log m^T at the last two years
    country: np.ndarray   # blended log of the country/trend rate ratio


def evaluate_mu(params: LiLeeParams, age: int, year: int, *,
                K_t: float | None = None, kappa_t: float | None = None) -> float:
    """Country force of mortality at one (age, year).

    Years beyond calibration need explicit K_t/kappa_t (simulated or
    central-path values).
    """
    i = params.ages.index(age)
    if K_t is None or kappa_t is None:
        j = params.years.index(year)
        K_t = params.K[j] if K_t is None else K_t
        kappa_t = params.kappa[j] if kappa_t is None else kappa_t
    return float(np.exp(params.A[i] + params.B[i] * K_t
                        + params.alpha[i] + params.beta[i] * kappa_t))


# ---------------------------------------------------------------------------
# Poisson likelihood machinery
# ---------------------------------------------------------------------------

def poisson_loglik(deaths, exposures, log_mu) -> float:
    """sum(d log mu - E mu); deaths may be real-valued, no factorial term."""
    return float(np.sum(deaths * log_mu - exposures * np.exp(log_mu)))


def saturated_loglik(deaths, exposures) -> float:
    """Likelihood at mu = d/E cell-wise; zero-death cells contribute -0."""
    d = np.asarray(deaths, dtype=float)
    pos = d > 0
    out = np.zeros_like(d)
    out[pos] = d[pos] * np.log(d[pos] / np.asarray(exposures)[pos]) - d[pos]
    return float(np.sum(out))


def deviance(deaths, exposures, log_mu) -> float:
    """Nonnegative gap to the saturated model."""
    return saturated_loglik(deaths, exposures) - poisson_loglik(deaths, exposures, log_mu)


def loglik_gradient(deaths, exposures, offset, B, K):
    """Analytic partials of the Poisson likelihood for one bilinear layer.

    `offset` is the fixed part of log mu (A, or the common surface plus an
    anchor); log mu = offset + B K'.  Returns gradients for the additive
    age profile embedded in the offset, B and K.
    """
    log_mu = offset + B[:, None] * K[None, :]
    resid = deaths - exposures * np.exp(log_mu)
    return {
        "profile": resid.sum(axis=1),
        "B": resid @ K,
        "K": B @ resid,
    }


def _blockwise_fit(deaths, exposures, offset, A, B, K, *, fit_profile,
                   free_periods, center_periods, sweep_tol, max_sweeps):
    """Cyclic Newton maximization shared by all calibration steps.

    log mu = offset + A + B K'.  `fit_profile` releases A; `free_periods`
    masks which K entries move (the adjusted variant pins the last year);
    `center_periods` absorbs mean(K) into A after each sweep.  Each block
    update backtracks (halving) if it would lower the likelihood, so the
    trace is non-decreasing.  Returns (A, B, K, loglik, trace, sweeps).
    """
    d = np.asarray(deaths, dtype=float)
    E = np.asarray(exposures, dtype=float)

    def ll(A, B, K):
        return poisson_loglik(d, E, offset + A[:, None] + B[:, None] * K[None, :])

    def apply_block(A, B, K, which, delta, current):
        # Halve the Newton step until the likelihood stops decreasing.
        step = 1.0
        for _ in range(40):
            cand = [A.copy(), B.copy(), K.copy()]
            idx = {"A": 0, "B": 1, "K": 2}[which]
            cand[idx] = cand[idx] + step * delta
            new = ll(*cand)
            if new >= current:
                return cand[0], cand[1], cand[2], new
            step *= 0.5
        return A, B, K, current

    current = ll(A, B, K)
    trace = [current]
    free = np.asarray(free_periods, dtype=bool)
    for sweep in range(1, max_sweeps + 1):
        if fit_profile:
            d_hat = E * np.exp(offset + A[:, None] + B[:, None] * K[None, :])
            delta = (d - d_hat).sum(axis=1) / d_hat.sum(axis=1)
            A, B, K, current = apply_block(A, B, K, "A", delta, current)

        d_hat = E * np.exp(offset + A[:, None] + B[:, None] * K[None, :])
        num = B @ (d - d_hat)
        den = (B ** 2) @ d_hat
        delta = np.where(free, num / den, 0.0)
        A, B, K, current = apply_block(A, B, K, "K", delta, current)

        d_hat = E * np.exp(offset + A[:, None] + B[:, None] * K[None, :])
        num = (d - d_hat) @ K
        den = d_hat @ (K ** 2)
        if np.all(den > 0):
            A, B, K, current = apply_block(A, B, K, "B", num / den, current)

        # Renormalize without changing mu: optional centering, unit scale,
        # positive orientation.  The likelihood is invariant, so the
        # pre-normalization value is kept and the trace stays monotone.
        if center_periods and fit_profile:
            shift = K.mean()
            A = A + B * shift
            K = K - shift
        scale = float(np.sqrt(np.sum(B ** 2)))
        if scale > 0:
            B, K = B / scale, K * scale
        if B.sum() < 0:
            B, K = -B, -K
        trace.append(current)

        # A log-likelihood gain is the log of the likelihood ratio, so the
        # per-sweep delta is already a relative measure; no rescaling by the
        # likelihood level.  Blocks never decrease the computed value, so the
        # delta bottoms out at exactly zero once no block can improve.
        improvement = trace[-1] - trace[-2]
        if improvement < sweep_tol:
            return A, B, K, current, trace, sweep
    raise ConvergenceError(
        f"calibration did not converge in {max_sweeps} sweeps "
        f"(last improvement {trace[-1] - trace[-2]:.3e})",
        last_iterate={"A": A, "B": B, "K": K, "loglik": current},
    )


def _check_death_rows(deaths, ages: AgeRange):
    row_tot = np.asarray(deaths).sum(axis=1)
    if np.any(row_tot <= 0):
        age = ages.min_age + int(np.argmax(row_tot <= 0))
        raise ValidationError(
            f"all-zero death row at age {age}: the age profile is unbounded below"
        )


@dataclass(frozen=True)
class TrendFit:
    """One bilinear layer's fitted parameters and diagnostics."""

    profile: np.ndarray
    B: np.ndarray
    K: np.ndarray
    loglik: float
    loglik_trace: tuple
    sweeps: int


def fit_common_trend(deaths, exposures, ages: AgeRange, years: YearRange, *,
                     sweep_tol=SWEEP_TOL, max_sweeps=MAX_SWEEPS) -> TrendFit:
    """Fit log mu^T = A_x + B_x K_t to pool-aggregated data.

    Constraints sum(B^2) = 1, sum(K) = 0 and sum(B) >= 0 are imposed by
    renormalization after every sweep (the force is invariant).  Starts
    from A = log of pooled average rates, flat B, K = 0.  This is the
    country-layer fit below with a zero offset.
    """
    return fit_country_deviation(deaths, exposures,
                                 np.zeros_like(deaths, dtype=float), ages, years,
                                 sweep_tol=sweep_tol, max_sweeps=max_sweeps)


def fit_country_deviation(deaths, exposures, common_log_mu, ages: AgeRange,
                          years: YearRange, *, sweep_tol=SWEEP_TOL,
                          max_sweeps=MAX_SWEEPS) -> TrendFit:
    """Fit the country layer a_x + b_x k_t conditionally on the common trend.

    `common_log_mu` is the fitted log mu^T surface, held fixed as an
    offset.  Same constraints and scheme as the common step.
    """
    d = np.asarray(deaths, dtype=float)
    E = np.asarray(exposures, dtype=float)
    offset = np.asarray(common_log_mu, dtype=float)
    if d.shape != (len(ages), len(years)) or E.shape != d.shape:
        raise ValidationError("deaths/exposures must be (n_ages, n_years)")
    if offset.shape != d.shape:
        raise ValidationError("common surface shape mismatch")
    _check_death_rows(d, ages)
    expected = E * np.exp(offset)
    a0 = np.log(d.sum(axis=1) / expected.sum(axis=1))
    b0 = np.full(len(ages), 1.0 / np.sqrt(len(ages)))
    k0 = np.zeros(len(years))
    a, b, k, ll, trace, sweeps = _blockwise_fit(
        d, E, offset, a0, b0, k0, fit_profile=True,
        free_periods=np.ones(len(years), dtype=bool), center_periods=True,
        sweep_tol=sweep_tol, max_sweeps=max_sweeps,
    )
    return TrendFit(a, b, k, ll, tuple(trace), sweeps)


def calibrate(d_common, E_common, d_country, E_country, ages: AgeRange,
              years: YearRange) -> tuple[LiLeeParams, FittedSurface]:
    """Run both steps and package the result for one gender."""
    step1 = fit_common_trend(d_common, E_common, ages, years)
    log_mu_T = step1.profile[:, None] + step1.B[:, None] * step1.K[None, :]
    step2 = fit_country_deviation(d_country, E_country, log_mu_T, ages, years)
    params = LiLeeParams(
        ages=ages, years=years, A=step1.profile, B=step1.B, K=step1.K,
        alpha=step2.profile, beta=step2.B, kappa=step2.K,
    )
    fitted = FittedSurface(
        mu_common=np.exp(log_mu_T),
        mu_country=np.exp(params.log_mu()),
        loglik_common=step1.loglik, loglik_country=step2.loglik,
        sweeps_common=step1.sweeps, sweeps_country=step2.sweeps,
    )
    return params, fitted


# ---------------------------------------------------------------------------
# Adjusted Lee & Miller variant
# ---------------------------------------------------------------------------

def lee_miller_anchors(d_common, E_common, d_country, E_country,
                       blend_weight: float) -> LeeMillerAnchors:
    """Blend the last two observed years' log rates into fixed age profiles.

    Common anchor: w*log m^T(last) + (1-w)*log m^T(last-1); the country
    anchor blends the log ratio of country rates to pooled rates.  Zero
    deaths in an anchor year make the log undefined and are refused.
    """
    if not 0.0 <= blend_weight <= 1.0:
        raise ValidationError(f"blend weight {blend_weight} outside [0, 1]")
    d_T = np.asarray(d_common, dtype=float)
    E_T = np.asarray(E_common, dtype=float)
    d_c = np.asarray(d_country, dtype=float)
    E_c = np.asarray(E_country, dtype=float)
    if d_T.shape[1] < 2:
        raise ValidationError("anchors need at least two calibration years")
    for name, arr in (("pooled", d_T), ("country", d_c)):
        if np.any(arr[:, -2:] <= 0):
            age = int(np.argmax(np.any(arr[:, -2:] <= 0, axis=1)))
            raise ValidationError(
                f"zero {name} deaths in an anchor year (age index {age}): "
                "log rate undefined"
            )
    m_T = d_T / E_T
    m_ratio = d_c / (E_c * m_T)
    w = blend_weight
    common = w * np.log(m_T[:, -1]) + (1 - w) * np.log(m_T[:, -2])
    country = w * np.log(m_ratio[:, -1]) + (1 - w) * np.log(m_ratio[:, -2])
    return LeeMillerAnchors(blend_weight=w, common=common, country=country)


def fit_adjusted_lee_miller(d_common, E_common, d_country, E_country,
                            ages: AgeRange, years: YearRange,
                            blend_weight: float, *, sweep_tol=SWEEP_TOL,
                            max_sweeps=MAX_SWEEPS
                            ) -> tuple[LiLeeParams, FittedSurface]:
    """Adjusted variant: anchored age profiles, final-year period pinning.

    The age profiles are fixed bit-for-bit to the blended anchors; only B,
    K (with K pinned to 0 in the final year) and the country analogues are
    estimated, under sum(B^2) = 1.
    """
    anchors = lee_miller_anchors(d_common, E_common, d_country, E_country,
                                 blend_weight)
    d_T = np.asarray(d_common, dtype=float)
    E_T = np.asarray(E_common, dtype=float)
    nt = len(years)
    free = np.ones(nt, dtype=bool)
    free[-1] = False

    B0 = np.full(len(ages), 1.0 / np.sqrt(len(ages)))
    K0 = np.zeros(nt)
    _, B, K, ll1, trace1, sweeps1 = _blockwise_fit(
        d_T, E_T, anchors.common[:, None], np.zeros(len(ages)), B0, K0,
        fit_profile=False, free_periods=free, center_periods=False,
        sweep_tol=sweep_tol, max_sweeps=max_sweeps,
    )
    log_mu_T = anchors.common[:, None] + B[:, None] * K[None, :]

    d_c = np.asarray(d_country, dtype=float)
    E_c = np.asarray(E_country, dtype=float)
    offset = log_mu_T + anchors.country[:, None]
    b0 = np.full(len(ages), 1.0 / np.sqrt(len(ages)))
    k0 = np.zeros(nt)
    _, beta, kappa, ll2, trace2, sweeps2 = _blockwise_fit(
        d_c, E_c, offset, np.zeros(len(ages)), b0, k0,
        fit_profile=False, free_periods=free, center_periods=False,
        sweep_tol=sweep_tol, max_sweeps=max_sweeps,
    )
    params = LiLeeParams(
        ages=ages, years=years, A=anchors.common, B=B, K=K,
        alpha=anchors.country, beta=beta, kappa=kappa,
        model_kind=ADJUSTED_LEE_MILLER, blend_weight=blend_weight,
    )
    fitted = FittedSurface(
        mu_common=np.exp(log_mu_T), mu_country=np.exp(params.log_mu()),
        loglik_common=ll1, loglik_country=ll2,
        sweeps_common=sweeps1, sweeps_country=sweeps2,
    )
    return params, fitted


# ---------------------------------------------------------------------------
# Parameter CSV round trip
# ---------------------------------------------------------------------------

_PARAM_FIELDS = ("A", "B", "K", "alpha", "beta", "kappa")


def export_params_csv(path, params_by_gender: dict):
    """Write `param,gender,index,value` rows; 17 significant digits so the
    round trip is exact.  Index is the age for age profiles, the year for
    period effects."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("param", "gender", "index", "value"))
        for gender in sorted(params_by_gender):
            p = params_by_gender[gender]
            axes = {"A": p.ages.values(), "B": p.ages.values(),
                    "alpha": p.ages.values(), "beta": p.ages.values(),
                    "K": p.years.values(), "kappa": p.years.values()}
            for name in _PARAM_FIELDS:
                values = getattr(p, name)
                for idx, value in zip(axes[name], values):
                    writer.writerow((name, gender, int(idx),
                                     format(float(value), ".17g")))


def import_params_csv(path, *, model_kind=LI_LEE, blend_weight=None) -> dict:
    """Inverse of export_params_csv."""
    path = Path(path)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or tuple(rows[0]) != ("param", "gender", "index", "value"):
        raise ParseError(f"{path}: expected header param,gender,index,value")
    table = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not f.strip() for f in row):
            continue
        name, gender, idx, value = row
        if name not in _PARAM_FIELDS:
            raise ParseError(f"{path}:{lineno}: unknown param {name!r}")
        table.setdefault((gender, name), []).append((int(idx), float(value)))
    genders = sorted({g for g, _ in table})
    out = {}
    for gender in genders:
        arrays = {}
        indexes = {}
        for name in _PARAM_FIELDS:
            entries = sorted(table.get((gender, name), ()))
            if not entries:
                raise ParseError(f"{path}: missing {name} for gender {gender}")
            indexes[name] = [i for i, _ in entries]
            arrays[name] = np.array([v for _, v in entries])
        ages = AgeRange(indexes["A"][0], indexes["A"][-1])
        years = YearRange(indexes["K"][0], indexes["K"][-1])
        out[gender] = LiLeeParams(
            ages=ages, years=years, A=arrays["A"], B=arrays["B"], K=arrays["K"],
            alpha=arrays["alpha"], beta=arrays["beta"], kappa=arrays["kappa"],
            model_kind=model_kind, blend_weight=blend_weight,
        )
    return out
