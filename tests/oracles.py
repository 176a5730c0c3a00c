"""Earlier life-table kernels, kept as oracles for the ones in
`mortkit.project`: a per-age cumulative-sum expectancy and a Kannisto
closure that runs in death-probability space."""
import warnings

import numpy as np

from mortkit.project import FORCE_CLAMP, KANNISTO_FIT_HI, KANNISTO_FIT_LO, MAX_AGE


def cumsum_expectancy(mu):
    """Expected years lived over a force sequence (trailing axis = ages):
    survival exp(-cumsum mu) to each age times the year fraction, summed."""
    mu = np.asarray(mu, dtype=float)
    cum = np.cumsum(mu, axis=-1)
    survival = np.ones_like(mu)
    survival[..., 1:] = np.exp(-cum[..., :-1])
    fraction = np.ones_like(mu)
    nz = mu != 0
    fraction[nz] = -np.expm1(-mu[nz]) / mu[nz]
    return np.sum(survival * fraction, axis=-1)


def q_space_kannisto_close(q, ages_lo=0):
    """Death probabilities over ages `ages_lo`..90 extended to age 120 by
    a logistic in the force fitted on logit(mu) at ages 80..90, with
    mu = -log(1 - q) going in and q = 1 - e^-mu coming out."""
    q = np.asarray(q, dtype=float)
    top_in = ages_lo + q.shape[-1] - 1
    lo = KANNISTO_FIT_LO - ages_lo
    hi = KANNISTO_FIT_HI - ages_lo
    mu_fit = -np.log1p(-q[..., lo:hi + 1])
    if np.any(mu_fit >= 1.0):
        warnings.warn("force >= 1 clamped below 1 for the logit fit",
                      RuntimeWarning, stacklevel=2)
        mu_fit = np.minimum(mu_fit, FORCE_CLAMP)
    x = np.arange(KANNISTO_FIT_LO, KANNISTO_FIT_HI + 1, dtype=float)
    y = np.log(mu_fit) - np.log1p(-mu_fit)
    xbar = x.mean()
    slope = ((x - xbar) * y).sum(axis=-1) / np.sum((x - xbar) ** 2)
    intercept = y.mean(axis=-1) - slope * xbar
    ext_ages = np.arange(top_in + 1, MAX_AGE + 1, dtype=float)
    logit_mu = intercept[..., None] + slope[..., None] * ext_ages
    mu_ext = 1.0 / (1.0 + np.exp(-logit_mu))
    return np.concatenate([q, -np.expm1(-mu_ext)], axis=-1)


def relative_error(got, want):
    """Largest |got / want - 1|, with 0 where both are 0."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = np.where(want == 0, 1.0, np.abs(want))
    return float(np.max(np.abs(got - want) / scale, initial=0.0))
