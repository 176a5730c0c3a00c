"""Two-step multi-population mortality calibration by Poisson likelihood.

The common trend log mu^T = A_x + B_x K_t is fitted to pool-aggregated
deaths and exposures; a country's deviation log(mu^c / mu^T) = a_x + b_x k_t
is fitted conditionally on the common fit.  Both steps maximize the
Poisson log-likelihood sum(d log mu - E mu) by cyclic blockwise Newton
updates with post-sweep renormalization.  The adjusted variant runs the
same two steps with the age profiles pinned to blended end-of-period log
rates and the period effects to zero in the final year, so the fitted
final-year rates reproduce a blend of the last two observed years.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import GENDERS, AgeRange, MultiPopulationDataset, YearRange
from .errors import ConvergenceError, ValidationError

#: Convergence: relative log-likelihood improvement per sweep below this.
SWEEP_TOL = 1e-10

#: Hard cap on calibration sweeps before giving up.
MAX_SWEEPS = 10_000

ADJUSTED_LEE_MILLER = "ADJUSTED_LEE_MILLER"


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiLeeParams:
    """Calibrated age and period effects for one (country, gender).

    A/B/K describe the common trend, alpha/beta/kappa the country
    deviation.  For the adjusted variant, A and alpha hold the blended
    log-rate anchors, and K and kappa vanish in the final calibration year.
    """

    ages: AgeRange
    years: YearRange
    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        nx, nt = len(self.ages), len(self.years)
        for name, size in (("A", nx), ("B", nx), ("alpha", nx), ("beta", nx),
                           ("K", nt), ("kappa", nt)):
            arr = getattr(self, name)
            if arr.shape != (size,):
                raise ValidationError(f"{name} has shape {arr.shape}, expected ({size},)")

    def log_mu(self) -> np.ndarray:
        """log mu^c = log mu^T + deviation over the calibration grid, with
        log mu^T = A + B K."""
        common = self.A[:, None] + self.B[:, None] * self.K[None, :]
        dev = self.alpha[:, None] + self.beta[:, None] * self.kappa[None, :]
        return common + dev

    @property
    def jump_off(self) -> tuple[float, float]:
        """(K, kappa) in the final calibration year."""
        return float(self.K[-1]), float(self.kappa[-1])


@dataclass(frozen=True)
class LeeMillerAnchors:
    """Blended final-year log-rate anchors for the adjusted variant."""

    common: np.ndarray    # blended log m^T at the last two years
    country: np.ndarray   # blended log of the country/trend rate ratio


# ---------------------------------------------------------------------------
# Poisson likelihood machinery
# ---------------------------------------------------------------------------

def poisson_loglik(deaths, exposures, log_mu) -> float:
    """sum(d log mu - E mu); deaths may be real-valued, no factorial term."""
    return float((deaths * log_mu - exposures * np.exp(log_mu)).sum())


def saturated_loglik(deaths, exposures) -> float:
    """Likelihood at mu = d/E cell-wise; zero-death cells contribute -0."""
    d = np.asarray(deaths, dtype=float)
    pos = d > 0
    out = np.zeros_like(d)
    out[pos] = d[pos] * np.log(d[pos] / np.asarray(exposures)[pos]) - d[pos]
    return float(np.sum(out))


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


@dataclass(frozen=True)
class TrendFit:
    """One bilinear layer's fitted parameters and diagnostics."""

    profile: np.ndarray
    B: np.ndarray
    K: np.ndarray
    loglik: float
    loglik_trace: tuple
    sweeps: int


def fit_layer(deaths, exposures, offset, ages: AgeRange, years: YearRange,
              anchor=None) -> TrendFit:
    """Fit one layer log mu = offset + profile_x + B_x K_t by cyclic Newton.

    Without `anchor` (Li-Lee) the profile is fitted from log(sum_t d /
    sum_t E e^offset), K is centred, and an all-zero death row is refused.
    With `anchor` (adjusted variant) the profile is the anchor bit for bit
    and K is 0 in the final year.  B starts flat and K at 0; every sweep
    ends with sum(B^2) = 1 and sum(B) >= 0.  Stops at the first sweep that
    gains less than SWEEP_TOL; raises ConvergenceError after MAX_SWEEPS.
    Each candidate step is evaluated once, as its log-likelihood and its
    fitted deaths, from which the next block's step starts.
    """
    d, E, offset = (np.asarray(a, dtype=float) for a in (deaths, exposures, offset))
    if d.shape != (len(ages), len(years)) or E.shape != d.shape:
        raise ValidationError("deaths/exposures must be (n_ages, n_years)")
    if offset.shape != d.shape:
        raise ValidationError("common surface shape mismatch")
    if anchor is None:
        empty = d.sum(axis=1) <= 0
        if np.any(empty):
            age = ages.min_age + int(np.argmax(empty))
            raise ValidationError(f"all-zero death row at age {age}: the age "
                                  "profile is unbounded below")
        start = np.log(d.sum(axis=1) / (E * np.exp(offset)).sum(axis=1))
    else:
        offset = offset + anchor[:, None]
        start = np.zeros(len(ages))
    theta = [start, np.full(len(ages), 1.0 / np.sqrt(len(ages))), np.zeros(d.shape[1])]

    def evaluate(cand):
        # log mu and the fitted deaths E e^(log mu): one exp of the surface.
        log_mu = offset + cand[0][:, None] + cand[1][:, None] * cand[2][None, :]
        return log_mu, E * np.exp(log_mu)

    def loglik(log_mu, fitted):
        return float((d * log_mu - fitted).sum())   # poisson_loglik, bit for bit

    def halve(block, delta, current, d_hat):
        # Halve the Newton step on one block (0: A, 1: B, 2: K) until the
        # likelihood stops decreasing; keep the iterate if none does.  Returns
        # the kept iterate's log-likelihood and fitted deaths.
        step = 1.0
        for _ in range(40):
            cand = list(theta)
            cand[block] = theta[block] + step * delta
            log_mu, fitted = evaluate(cand)
            new = loglik(log_mu, fitted)
            if new >= current:
                theta[block] = cand[block]
                return new, fitted
            step *= 0.5
        return current, d_hat

    log_mu, d_hat = evaluate(theta)
    current = loglik(log_mu, d_hat)
    trace = [current]
    for sweep in range(1, MAX_SWEEPS + 1):
        if anchor is None:
            current, d_hat = halve(0, (d - d_hat).sum(axis=1) / d_hat.sum(axis=1),
                                   current, d_hat)
        B = theta[1]
        delta = (B @ (d - d_hat)) / ((B ** 2) @ d_hat)
        if anchor is not None:
            delta[-1] = 0.0
        current, d_hat = halve(2, delta, current, d_hat)
        K = theta[2]
        den = d_hat @ (K ** 2)
        if np.all(den > 0):
            current, d_hat = halve(1, ((d - d_hat) @ K) / den, current, d_hat)

        # Renormalize without changing mu: centering (unanchored only),
        # unit scale, positive orientation.  The likelihood is invariant,
        # so the pre-normalization value is kept and the trace stays monotone.
        A, B, K = theta
        if anchor is None:
            shift = K.mean()
            A = A + B * shift
            K = K - shift
        scale = float(np.sqrt(np.sum(B ** 2)))
        if scale > 0:
            B, K = B / scale, K * scale
        if B.sum() < 0:
            B, K = -B, -K
        theta[:] = A, B, K
        trace.append(current)

        # A log-likelihood gain is a log likelihood ratio, already relative.
        # Blocks never lower the value, so the gain ends at exactly zero.
        if trace[-1] - trace[-2] < SWEEP_TOL:
            profile = A if anchor is None else anchor
            return TrendFit(profile, B, K, current, tuple(trace), sweep)
        # The renormalized iterate is evaluated afresh: its bits have moved.
        d_hat = evaluate(theta)[1]
    raise ConvergenceError(
        f"calibration did not converge in {MAX_SWEEPS} sweeps "
        f"(last improvement {trace[-1] - trace[-2]:.3e})",
        last_iterate={"A": theta[0], "B": theta[1], "K": theta[2], "loglik": current},
    )


def fit_common_trend(deaths, exposures, ages: AgeRange, years: YearRange) -> TrendFit:
    """Fit log mu^T = A_x + B_x K_t to pool-aggregated data: `fit_layer`
    with a zero offset, so sum(B^2) = 1, sum(K) = 0 and sum(B) >= 0."""
    return fit_layer(deaths, exposures, np.zeros_like(deaths, dtype=float),
                     ages, years)


def calibrate(d_common, E_common, d_country, E_country, ages: AgeRange,
              years: YearRange, anchors: LeeMillerAnchors | None = None
              ) -> tuple[LiLeeParams, dict]:
    """Fit the common layer on the pool, then the country layer with the
    fitted log mu^T as its offset, and package the result for one gender;
    with `anchors`, both layers of the adjusted variant.  Returns the
    parameters and each layer's `TrendFit` under "common" and "country"."""
    fixed = (None, None) if anchors is None else (anchors.common, anchors.country)
    step1 = fit_layer(d_common, E_common, np.zeros_like(d_common, dtype=float),
                      ages, years, fixed[0])
    log_mu_T = step1.profile[:, None] + step1.B[:, None] * step1.K[None, :]
    step2 = fit_layer(d_country, E_country, log_mu_T, ages, years, fixed[1])
    params = LiLeeParams(
        ages=ages, years=years, A=step1.profile, B=step1.B, K=step1.K,
        alpha=step2.profile, beta=step2.B, kappa=step2.K,
    )
    return params, {"common": step1, "country": step2}


def calibrate_dataset(dataset: MultiPopulationDataset, country: str,
                      blend_weight: float | None = None) -> tuple[dict, dict]:
    """Fit `country` against the dataset's pool for each gender.

    Returns the per-gender parameters (Li-Lee, or with `blend_weight` the
    adjusted variant of that blend) and per gender each layer's sweeps,
    log-likelihood and Poisson deviance, the saturated log-likelihood less
    the reported one.
    """
    params, diagnostics = {}, {}
    for gender in GENDERS:
        d_T, E_T = dataset.aggregate(gender)
        surf = dataset.surface(country, gender)
        args = (d_T, E_T, surf.deaths, surf.exposures, dataset.ages, dataset.years)
        params[gender], fits = (calibrate(*args) if blend_weight is None
                                else fit_adjusted_lee_miller(*args, blend_weight))
        data = {"common": (d_T, E_T), "country": (surf.deaths, surf.exposures)}
        diagnostics[gender] = {
            layer: {"sweeps": fit.sweeps, "loglik": fit.loglik,
                    "deviance": saturated_loglik(*data[layer]) - fit.loglik}
            for layer, fit in fits.items()
        }
    return params, diagnostics


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
    d_T, E_T, d_c, E_c = (np.asarray(a, dtype=float)
                          for a in (d_common, E_common, d_country, E_country))
    if d_T.ndim != 2 or not d_T.shape == E_T.shape == d_c.shape == E_c.shape:
        raise ValidationError("deaths/exposures must share one (n_ages, n_years) shape")
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
    return LeeMillerAnchors(common=common, country=country)


def fit_adjusted_lee_miller(d_common, E_common, d_country, E_country,
                            ages: AgeRange, years: YearRange,
                            blend_weight: float
                            ) -> tuple[LiLeeParams, dict]:
    """Adjusted variant: the Li-Lee two-step fit with both age profiles
    fixed bit-for-bit to the blended anchors and K, kappa pinned to 0 in
    the final year; only B, K and their country analogues are estimated,
    under sum(B^2) = 1.
    """
    anchors = lee_miller_anchors(d_common, E_common, d_country, E_country,
                                 blend_weight)
    return calibrate(d_common, E_common, d_country, E_country, ages, years,
                     anchors)


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
