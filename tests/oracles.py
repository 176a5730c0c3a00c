"""Earlier kernels, kept as oracles for the ones in the package: a
per-age cumulative-sum expectancy, a masked year fraction, the
backward recursion that negated the forces twice and the one whose
survival factor came from its own exp pass, a Kannisto closure that
runs in death-probability space, a simulation that constructs one
generator per path, forces from two broadcast outer products, the
closure's tail evaluated on the path-major view, the closure that
copied its input into a fresh array, the one that built its logit fit
from fresh temporaries and quantiles from `np.quantile`
(`mortkit.project`), the Li-Lee
calibration and its adjusted Lee-Miller variant each as its own pair of
fits, and the layer fit that scored each candidate and then recomputed
the fitted deaths of the kept one (`mortkit.lilee`), the
auxiliary model's scalar zero-noise recursion (`mortkit.ungroup`), and
the dynamics design built one observation row per year, and the
dynamics fit on stacked per-year 4 x 6 design matrices with its einsum
GLS step that also waited for the log-likelihood to settle
(`mortkit.dynamics`), last year's open-bucket exposure total summed
from the observed records and the life-table unit that forced,
closed and summed every age of a block of years at once
(`mortkit.pipeline`), and the fragment's
repeat check by `np.unique` ranks and a stable argsort, its record
selection by `np.isin` and the coding of names by one equality test per
admissible name (`mortkit.data`), and the coverage check that scanned
every declaration for every checked cell (`mortkit.config`)."""
import warnings

import numpy as np

from mortkit import dynamics, project
from mortkit.data import GENDERS, QUANTITIES, SurfaceFragment
from mortkit.errors import ConfigError, ConvergenceError, ValidationError
from mortkit.lilee import (MAX_SWEEPS, SWEEP_TOL, LiLeeParams, TrendFit,
                           lee_miller_anchors, poisson_loglik)
from mortkit.project import (FORCE_CLAMP, KANNISTO_FIT_HI, KANNISTO_FIT_LO,
                             MAX_AGE, _innovation_factor, _recur)


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


def masked_year_fraction(mu):
    """(1 - e^-mu)/mu, dividing only where mu is nonzero and setting the
    limit 1 at mu = 0."""
    mu = np.asarray(mu, dtype=float)
    fraction = -np.expm1(-mu)
    zero = mu == 0
    np.divide(fraction, mu, out=fraction, where=~zero)
    fraction[zero] = 1.0
    return fraction


def negate_twice_expectancy_kernel(mu):
    """The backward recursion e_x = f_x + e^(-mu_x) e_(x+1) over ages-major
    forces, with the masked year fraction -expm1(-mu)/mu and the survival
    factor from its own negation of mu."""
    e = masked_year_fraction(mu)
    survival = np.exp(-np.asarray(mu, dtype=float))
    for x in range(len(e) - 2, -1, -1):
        e[x] += survival[x] * e[x + 1]
    return e


def exp_survival_expectancy_kernel(mu):
    """The backward recursion over ages-major forces with the year
    fraction expm1(-mu)/(-mu) (1 at mu = 0) and the survival factor from
    a separate exp(-mu) pass, not from the expm1 pass."""
    least = mu.min(initial=np.inf)
    if not least >= 0:
        raise ValidationError("forces must be nonnegative and not NaN")
    survival = np.negative(mu, order="C")
    e = np.expm1(survival)
    with np.errstate(invalid="ignore"):
        np.divide(e, survival, out=e)
    e[mu == 0] = 1.0
    np.exp(survival, out=survival)
    for x in range(len(e) - 2, -1, -1):
        e[x] += survival[x] * e[x + 1]
    return e


def per_path_period_effects(fit, spec):
    """Simulated period effects with one `Generator(Philox(key=[seed, i]))`
    constructed for each path i, each path's normals times L' on their own."""
    L = _innovation_factor(fit.C)
    H = spec.horizon - spec.jump_off_year
    eps = np.empty((spec.n_paths, H, 4))
    for i in range(spec.n_paths):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([spec.seed, i], dtype=np.uint64)))
        eps[i] = rng.standard_normal((H, 4)) @ L.T
    return _recur(spec, fit, eps)


def outer_product_force_paths(params, paths, gender, year):
    """mu over the model ages for one year, shape (rows, n_ages), built as
    B K + (A + alpha) + beta kappa from two broadcast outer products."""
    j = paths.year_index(year)
    mu = np.multiply.outer(params.B, paths.K[gender][:, j])
    mu += (params.A + params.alpha)[:, None]
    mu += np.multiply.outer(params.beta, paths.kappa[gender][:, j])
    return np.exp(mu, out=mu).T


def np_quantile_summary(samples, probes):
    """Quantiles over axis 0 from `np.quantile(method="linear")`, one level
    per probe on axis 0."""
    samples = np.asarray(samples, dtype=float)
    probes = tuple(probes)
    if any(not 0.0 <= p <= 1.0 for p in probes):
        raise ValidationError("probes must lie in [0, 1]")
    return np.quantile(samples, probes, axis=0, method="linear")


def _logit_fit(mu_fit):
    """Least-squares (slope, intercept) of logit(mu) on ages 80..90, with
    forces at or above 1 clamped just below 1."""
    if np.any(mu_fit >= 1.0):
        warnings.warn("force >= 1 clamped below 1 for the logit fit",
                      RuntimeWarning, stacklevel=3)
        mu_fit = np.minimum(mu_fit, FORCE_CLAMP)
    x = np.arange(KANNISTO_FIT_LO, KANNISTO_FIT_HI + 1, dtype=float)
    y = np.log(mu_fit) - np.log1p(-mu_fit)
    xbar = x.mean()
    slope = ((x - xbar) * y).sum(axis=-1) / np.sum((x - xbar) ** 2)
    return slope, y.mean(axis=-1) - slope * xbar


def q_space_kannisto_close(q, ages_lo=0):
    """Death probabilities over ages `ages_lo`..90 extended to age 120 by
    a logistic in the force fitted on logit(mu) at ages 80..90, with
    mu = -log(1 - q) going in and q = 1 - e^-mu coming out."""
    q = np.asarray(q, dtype=float)
    top_in = ages_lo + q.shape[-1] - 1
    lo = KANNISTO_FIT_LO - ages_lo
    hi = KANNISTO_FIT_HI - ages_lo
    slope, intercept = _logit_fit(-np.log1p(-q[..., lo:hi + 1]))
    ext_ages = np.arange(top_in + 1, MAX_AGE + 1, dtype=float)
    logit_mu = intercept[..., None] + slope[..., None] * ext_ages
    mu_ext = 1.0 / (1.0 + np.exp(-logit_mu))
    return np.concatenate([q, -np.expm1(-mu_ext)], axis=-1)


def path_major_kannisto_close(mu, ages_lo=0):
    """Forces over ages `ages_lo`..90 closed to age 120, with the tail
    evaluated in place on the path-major view of an ages-major buffer,
    one strided column per age."""
    mu = np.asarray(mu, dtype=float)
    n_in = mu.shape[-1]
    lo = KANNISTO_FIT_LO - ages_lo
    hi = KANNISTO_FIT_HI - ages_lo
    slope, intercept = _logit_fit(np.ascontiguousarray(mu[..., lo:hi + 1]))
    closed = np.moveaxis(np.empty((MAX_AGE + 1 - ages_lo,) + mu.shape[:-1]), 0, -1)
    closed[..., :n_in] = mu
    tail = closed[..., n_in:]
    np.multiply.outer(slope, np.arange(ages_lo + n_in, MAX_AGE + 1, dtype=float),
                      out=tail)
    tail += intercept[..., None]
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    tail += 1.0
    np.divide(1.0, tail, out=tail)
    return closed


def copying_kannisto_close(mu, ages_lo=0):
    """Forces over ages `ages_lo`..90 closed to age 120 in a fresh
    ages-major array: the input ages copied in, the logit fit on a C-order
    (paths, 11) copy of the fit ages, the tail on contiguous age rows."""
    mu = np.asarray(mu, dtype=float)
    n_in = mu.shape[-1]
    lo = KANNISTO_FIT_LO - ages_lo
    hi = KANNISTO_FIT_HI - ages_lo
    slope, intercept = _logit_fit(np.ascontiguousarray(mu[..., lo:hi + 1]))
    closed = np.empty((MAX_AGE + 1 - ages_lo,) + mu.shape[:-1])
    closed[:n_in] = np.moveaxis(mu, -1, 0)
    tail = closed[n_in:]
    np.multiply.outer(np.arange(ages_lo + n_in, MAX_AGE + 1, dtype=float), slope,
                      out=tail)
    tail += intercept
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    tail += 1.0
    np.divide(1.0, tail, out=tail)
    return np.moveaxis(closed, 0, -1)


def temporaries_kannisto_close(curve, ages_lo=0, *, forces=False, out=None):
    """`project.kannisto_close` as it built the logit fit from fresh
    temporaries: the forces of the fit ages from `-log1p(-q)`, the clamp by
    `np.minimum`, the logit as `log(mu) - log1p(-mu)` and its weighted rows
    as a product, each a new 11-row array."""
    curve = np.asarray(curve, dtype=float)
    n_in = curve.shape[-1]
    top_in = ages_lo + n_in - 1
    if not 0 <= ages_lo <= KANNISTO_FIT_LO:
        raise ValidationError(
            f"closure needs ages from 0 and the fit ages {KANNISTO_FIT_LO}.."
            f"{KANNISTO_FIT_HI}, input starts at {ages_lo}"
        )
    if top_in < KANNISTO_FIT_HI:
        raise ValidationError(
            f"closure needs ages up to {KANNISTO_FIT_HI}, input ends at {top_in}"
        )
    shape = curve.shape[:-1] + (MAX_AGE + 1 - ages_lo,)
    if out is not None and out.shape != shape:
        raise ValidationError(f"out has shape {out.shape}, closure needs {shape}")
    lo = KANNISTO_FIT_LO - ages_lo
    hi = KANNISTO_FIT_HI - ages_lo
    # The age axis moved to the front (transpose is cheaper than moveaxis).
    ages_first = curve.transpose(-1, *range(curve.ndim - 1))
    # The fit ages as contiguous age rows: a view of an ages-major curve.
    fit_ages = np.ascontiguousarray(ages_first[lo:hi + 1])
    if forces:
        project.check_forces(curve)
        mu_fit = fit_ages
    else:
        # As in check_forces, NaN fails and an empty batch passes.
        if not (curve.min(initial=np.inf) > 0 and curve.max(initial=-np.inf) < 1):
            raise ValidationError("death probabilities must lie in (0, 1)")
        mu_fit = -np.log1p(-fit_ages)
    if np.any(mu_fit >= 1.0):
        warnings.warn("force >= 1 clamped below 1 for the logit fit",
                      RuntimeWarning, stacklevel=2)
        mu_fit = np.minimum(mu_fit, FORCE_CLAMP)
    x = np.arange(KANNISTO_FIT_LO, KANNISTO_FIT_HI + 1, dtype=float)
    y = np.log(mu_fit) - np.log1p(-mu_fit)   # logit, one row per fit age
    xbar = x.mean()
    weighted = y * (x - xbar).reshape((-1,) + (1,) * (y.ndim - 1))
    slope = project._pairwise_rows(weighted) / np.sum((x - xbar) ** 2)
    intercept = project._pairwise_rows(y) / len(x) - slope * xbar
    # An exactly flat tail regresses to a slope of +-1e-19 float noise, so
    # the degeneracy test needs a hair of slack above zero.
    if np.any(slope <= 1e-12):
        warnings.warn("fitted logistic is non-increasing in age (phi <= 0)",
                      RuntimeWarning, stacklevel=2)
    # The logistic fills the tail in place, one contiguous age row at a time.
    if out is None:
        closed = np.empty(shape[-1:] + shape[:-1])
        out = closed.transpose(*range(1, closed.ndim), 0)
    else:
        closed = out.transpose(-1, *range(out.ndim - 1))
    # numpy skips assigning a view onto itself, so `out`'s head is not copied.
    closed[:n_in] = ages_first
    tail = closed[n_in:]
    np.multiply.outer(np.arange(top_in + 1, MAX_AGE + 1, dtype=float), slope,
                      out=tail)
    tail += intercept
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    tail += 1.0
    np.divide(1.0, tail, out=tail)
    if not forces:
        np.negative(tail, out=tail)
        np.expm1(tail, out=tail)
        np.negative(tail, out=tail)
    return out


def scalar_central_force(aux, gender, year):
    """The auxiliary model's force in a year after its calibration window,
    from K and kappa stepped one scalar year at a time with zero noise."""
    p = aux.params[gender]
    K = float(p.K[-1])
    kappa = float(p.kappa[-1])
    theta = aux.ts_fit.drift(gender)
    c = aux.ts_fit.ar_intercept(gender)
    phi = aux.ts_fit.ar_coefficient(gender)
    for _ in range(year - aux.years.last):
        K = K + theta
        kappa = c + phi * kappa
    return np.exp(p.A + p.B * K + p.alpha + p.beta * kappa)


def relative_error(got, want):
    """Largest |got / want - 1|, with 0 where both are 0."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = np.where(want == 0, 1.0, np.abs(want))
    return float(np.max(np.abs(got - want) / scale, initial=0.0))


def _two_fit_blockwise(deaths, exposures, offset, A, B, K, *, fit_profile,
                       free_periods, center_periods, sweep_tol, max_sweeps):
    """The cyclic Newton fit as it stood when the adjusted variant ran its
    own pair of fits: log mu = offset + A + B K', with the profile release,
    the free periods and the centering as separate switches."""
    d = np.asarray(deaths, dtype=float)
    E = np.asarray(exposures, dtype=float)

    def ll(A, B, K):
        return poisson_loglik(d, E, offset + A[:, None] + B[:, None] * K[None, :])

    def apply_block(A, B, K, which, delta, current):
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
        if trace[-1] - trace[-2] < sweep_tol:
            return A, B, K, current, trace, sweep
    raise AssertionError("oracle fit did not converge")


def two_evaluation_fit_layer(deaths, exposures, offset, ages, years, anchor=None):
    """`lilee.fit_layer` as it stood when each block recomputed the fitted
    deaths E e^(log mu) of the iterate its last candidate had just scored:
    one exp per candidate and three (two anchored) more per sweep."""
    d, E, offset = (np.asarray(a, dtype=float) for a in (deaths, exposures, offset))
    if anchor is None:
        start = np.log(d.sum(axis=1) / (E * np.exp(offset)).sum(axis=1))
    else:
        offset = offset + anchor[:, None]
        start = np.zeros(len(ages))
    theta = [start, np.full(len(ages), 1.0 / np.sqrt(len(ages))), np.zeros(d.shape[1])]

    def log_mu(A, B, K):
        return offset + A[:, None] + B[:, None] * K[None, :]

    def halve(block, delta, current):
        step = 1.0
        for _ in range(40):
            cand = list(theta)
            cand[block] = theta[block] + step * delta
            new = poisson_loglik(d, E, log_mu(*cand))
            if new >= current:
                theta[block] = cand[block]
                return new
            step *= 0.5
        return current

    current = poisson_loglik(d, E, log_mu(*theta))
    trace = [current]
    for sweep in range(1, MAX_SWEEPS + 1):
        if anchor is None:
            d_hat = E * np.exp(log_mu(*theta))
            current = halve(0, (d - d_hat).sum(axis=1) / d_hat.sum(axis=1), current)
        d_hat = E * np.exp(log_mu(*theta))
        B = theta[1]
        delta = (B @ (d - d_hat)) / ((B ** 2) @ d_hat)
        if anchor is not None:
            delta[-1] = 0.0
        current = halve(2, delta, current)
        d_hat = E * np.exp(log_mu(*theta))
        K = theta[2]
        den = d_hat @ (K ** 2)
        if np.all(den > 0):
            current = halve(1, ((d - d_hat) @ K) / den, current)
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
        if trace[-1] - trace[-2] < SWEEP_TOL:
            profile = A if anchor is None else anchor
            return TrendFit(profile, B, K, current, tuple(trace), sweep)
    raise AssertionError("oracle fit did not converge")


def two_fit_li_lee(d_common, E_common, d_country, E_country, ages, years):
    """The Li-Lee calibration as its own pair of fits, each released from
    the log average rates (the country's over the fitted common surface)
    with flat B and K = 0, all periods free and K centred.  Returns
    (LiLeeParams, {layer: (loglik, sweeps)})."""
    nx, nt = len(ages), len(years)

    def fit(deaths, exposures, offset):
        d = np.asarray(deaths, dtype=float)
        E = np.asarray(exposures, dtype=float)
        A0 = np.log(d.sum(axis=1) / (E * np.exp(offset)).sum(axis=1))
        return _two_fit_blockwise(
            d, E, offset, A0, np.full(nx, 1.0 / np.sqrt(nx)), np.zeros(nt),
            fit_profile=True, free_periods=np.ones(nt, dtype=bool),
            center_periods=True, sweep_tol=SWEEP_TOL, max_sweeps=MAX_SWEEPS)

    A, B, K, ll1, _, sweeps1 = fit(d_common, E_common, np.zeros((nx, nt)))
    log_mu_T = A[:, None] + B[:, None] * K[None, :]
    alpha, beta, kappa, ll2, _, sweeps2 = fit(d_country, E_country, log_mu_T)
    params = LiLeeParams(ages=ages, years=years, A=A, B=B, K=K,
                         alpha=alpha, beta=beta, kappa=kappa)
    return params, {"common": (ll1, sweeps1), "country": (ll2, sweeps2)}


def two_fit_adjusted_lee_miller(d_common, E_common, d_country, E_country,
                                ages, years, blend_weight):
    """The adjusted Lee-Miller variant as its own pair of anchored fits,
    each with its own B0/K0 start, before it shared the Li-Lee two-step
    fit.  Returns (LiLeeParams, {layer: (loglik, sweeps)})."""
    anchors = lee_miller_anchors(d_common, E_common, d_country, E_country,
                                 blend_weight)
    d_T = np.asarray(d_common, dtype=float)
    E_T = np.asarray(E_common, dtype=float)
    nt = len(years)
    free = np.ones(nt, dtype=bool)
    free[-1] = False
    options = {"sweep_tol": SWEEP_TOL, "max_sweeps": MAX_SWEEPS}

    B0 = np.full(len(ages), 1.0 / np.sqrt(len(ages)))
    K0 = np.zeros(nt)
    _, B, K, ll1, _, sweeps1 = _two_fit_blockwise(
        d_T, E_T, anchors.common[:, None], np.zeros(len(ages)), B0, K0,
        fit_profile=False, free_periods=free, center_periods=False, **options)
    log_mu_T = anchors.common[:, None] + B[:, None] * K[None, :]

    d_c = np.asarray(d_country, dtype=float)
    E_c = np.asarray(E_country, dtype=float)
    offset = log_mu_T + anchors.country[:, None]
    b0 = np.full(len(ages), 1.0 / np.sqrt(len(ages)))
    k0 = np.zeros(nt)
    _, beta, kappa, ll2, _, sweeps2 = _two_fit_blockwise(
        d_c, E_c, offset, np.zeros(len(ages)), b0, k0,
        fit_profile=False, free_periods=free, center_periods=False, **options)
    params = LiLeeParams(
        ages=ages, years=years, A=anchors.common, B=B, K=K,
        alpha=anchors.country, beta=beta, kappa=kappa,
    )
    return params, {"common": (ll1, sweeps1), "country": (ll2, sweeps2)}


def per_row_design(series):
    """The dynamics observations as a list of per-year (year, Y, X)
    triples, each row's Y in R^4 and X in R^(4x6) built on its own."""
    K_m = np.asarray(series.K["M"], dtype=float)
    K_f = np.asarray(series.K["F"], dtype=float)
    k_m = np.asarray(series.kappa["M"], dtype=float)
    k_f = np.asarray(series.kappa["F"], dtype=float)
    rows = []
    for j in range(1, len(series.years)):
        Y = np.array([K_m[j] - K_m[j - 1], k_m[j], K_f[j] - K_f[j - 1], k_f[j]])
        X = np.zeros((4, 6))
        X[0, 0] = 1.0
        X[1, 1] = 1.0
        X[1, 2] = k_m[j - 1]
        X[2, 3] = 1.0
        X[3, 4] = 1.0
        X[3, 5] = k_f[j - 1]
        rows.append((int(series.years.first + j), Y, X))
    return rows


def design_matrices(design):
    """Each year's 4 x 6 design matrix X_t, shape (T, 4, 6): parameter i's
    regressor Z_t[i] in row `_EQUATION[i]` of column i, zeros elsewhere."""
    X = np.zeros((len(design), 4, 6))
    X[:, dynamics._EQUATION, range(6)] = design.Z
    return X


def einsum_gls_step(Ys, Xs, w, C):
    """The weighted GLS solution at C from per-year design matrices."""
    Cinv = np.linalg.inv(C)
    lhs = np.einsum("t,tki,kl,tlj->ij", w, Xs, Cinv, Xs)
    rhs = np.einsum("t,tki,kl,tl->i", w, Xs, Cinv, Ys)
    return np.linalg.solve(lhs, rhs)


def per_matrix_cov_step(Ys, Xs, w, psi, *, warn=True):
    """The weighted residual second moment of Y - X psi, ridged by
    `RIDGE_SCALE` times its trace when singular."""
    resid = Ys - Xs @ psi
    C = np.einsum("t,ti,tj->ij", w, resid, resid) / np.sum(w)
    C = 0.5 * (C + C.T)
    ridged = False
    if np.linalg.matrix_rank(C, tol=1e-12 * max(np.trace(C), 1e-300)) < 4:
        tr = np.trace(C)
        if tr <= 0:
            raise ValidationError("degenerate residuals: zero covariance iterate")
        C = C + dynamics.RIDGE_SCALE * tr * np.eye(4)
        ridged = True
        if warn:
            warnings.warn("covariance iterate singular; ridge applied",
                          RuntimeWarning, stacklevel=2)
    return C, ridged


def einsum_score_norm(Ys, Xs, w, psi, C) -> float:
    """Relative Newton step ||I^-1 g||_inf / (1 + ||psi||_inf) of the GLS
    normal equations at (psi, C): the distance of the GLS solution at C
    from psi."""
    step = einsum_gls_step(Ys, Xs, w, C) - psi
    return float(np.abs(step).max() / (1.0 + np.abs(psi).max()))


def two_rule_weighted_mle(design, weights=None):
    """The weighted dynamics fit that stopped only when the per-iteration
    log-likelihood change also fell below 1e-12, evaluating the
    likelihood on every iteration, with the einsum GLS step and the
    per-matrix covariance step."""
    fit_tol = 1e-12
    w = dynamics._weights(design, weights)
    Ys, Xs = design.Y, design_matrices(design)
    psi = einsum_gls_step(Ys, Xs, w, np.eye(4))
    C, _ = per_matrix_cov_step(Ys, Xs, w, psi, warn=False)
    current = dynamics.loglik(psi, C, design, w)
    ridged_any = False
    for it in range(1, dynamics.MAX_FIT_ITER + 1):
        psi_prev, C_prev = psi, C
        psi = einsum_gls_step(Ys, Xs, w, C)
        C, ridged = per_matrix_cov_step(Ys, Xs, w, psi)
        ridged_any = ridged_any or ridged
        new = dynamics.loglik(psi, C, design, w)
        step = max(np.abs(psi - psi_prev).max(), np.abs(C - C_prev).max())
        scale = 1.0 + max(np.abs(psi).max(), np.abs(C).max())
        if abs(new - current) < fit_tol and step <= dynamics.PARAM_TOL * scale:
            return dynamics.TimeSeriesFit(
                psi=psi, C=C, weights=w, loglik=new, iterations=it,
                ridged=ridged_any,
                score_norm=einsum_score_norm(Ys, Xs, w, psi, C))
        current = new
    raise ConvergenceError("two-rule fit did not converge",
                           last_iterate={"psi": psi, "C": C, "loglik": current})


def first_seen_open_total(observed, country, gender, prev_year, open_lower, max_age):
    """Last year's observed open-bucket exposure total (which may extend
    past the model top age `max_age`), summed in the order each cell first
    appears among the records of the fragment `observed`; None, for the
    previous curve's sum, when the tail does not reach the top age."""
    tail = observed.restrict({country}, {gender}, range(prev_year, prev_year + 1),
                             min_age=open_lower)
    ages, first = np.unique(tail.age, return_index=True)
    exposure = tail.quantity == QUANTITIES.index("exposures")
    cells = tail.value[exposure][
        np.argsort(first[np.searchsorted(ages, tail.age[exposure])])]
    span = max_age - open_lower + 1
    return float(np.sum(cells)) if len(cells) >= span else None


def unique_rank_check_unique(fragment):
    """Refuse a (cell, quantity) given twice, naming its first repeat: the
    key ranks age and year by `np.unique`, and a stable argsort always
    runs."""
    if not fragment.value.size:
        return
    key = fragment.country * len(GENDERS) + fragment.gender
    for column in (fragment.age, fragment.year):
        values, index = np.unique(column, return_inverse=True)
        key = key * len(values) + index
    key = key * len(QUANTITIES) + fragment.quantity
    order = np.argsort(key, kind="stable")
    repeat = key[order[1:]] == key[order[:-1]]
    if repeat.any():
        i = order[1:][repeat].min()
        raise ValidationError(
            f"duplicate {QUANTITIES[fragment.quantity[i]]} for "
            f"{fragment.countries[fragment.country[i]]}/{GENDERS[fragment.gender[i]]} "
            f"age {fragment.age[i]} year {fragment.year[i]}"
        )


def isin_restrict(fragment, countries=None, genders=None, years=None,
                  quantities=None, min_age=0):
    """Records at ages >= min_age whose country, gender, year and quantity
    are among those given (`years` a set), by one `np.isin` per column."""
    keep = fragment.age >= min_age
    for column, names, wanted in ((fragment.country, fragment.countries, countries),
                                  (fragment.gender, GENDERS, genders),
                                  (fragment.quantity, QUANTITIES, quantities),
                                  (fragment.year, None, years)):
        if wanted is not None:
            codes = [i for i, name in enumerate(names) if name in wanted] \
                if names is not None else list(wanted)
            keep &= np.isin(column, codes)
    return SurfaceFragment(fragment.countries, **{
        name: getattr(fragment, name)[keep] for name in fragment.COLUMNS})


def per_name_codes(names, table):
    """Index into `table` of each of `names`, or -1 for a name it lacks,
    from one equality test of the whole column per name of `table`."""
    codes = np.full(len(names), -1, dtype=np.int8)
    for i, name in enumerate(table):
        codes[names == name] = i
    return codes


def scanning_check_coverage(config):
    """`config._check_coverage` as it scanned every declaration for each
    (country, year, quantity) it checks."""
    decls = config.individual_sources + config.weekly_sources
    for decl in decls:
        if decl.country not in config.countries:
            raise ConfigError(f"{decl.path}: declared country {decl.country} is not "
                              f"in the run ({', '.join(config.countries)})")
    cells = [(country, year, quantity) for country in config.countries
             for year in range(config.years.first, config.years.last + 1)
             for quantity in QUANTITIES]
    cells += sorted({(d.country, d.years.first, q) for d in decls for q in d.quantities})
    for country, year, quantity in cells:
        hits = [d for d in decls if d.country == country and quantity in d.quantities
                and d.years.first <= year <= d.years.last]
        if len(hits) != 1:
            what = "no source" if not hits else f"{len(hits)} overlapping sources"
            raise ConfigError(
                f"{what} for ({country}, {year}, {quantity}); declare exactly one")
    weekly = [(d.country, d.years.first, d.shape) for d in config.weekly_sources]
    for country, year, shape in weekly:
        if weekly.count((country, year, shape)) > 1:
            raise ConfigError(f"duplicate weekly {shape} declaration for {country}/{year}")


def full_age_life_table_rows(config, params, paths, gender, columns=2048):
    """`pipeline._life_table_rows` as it held every age of a block in one
    closure buffer: blocks of as many whole years as fit in `columns`
    columns, forces one year a call, one closure per block over all ages,
    one expectancy call per block and report age, then the cohort ages'
    calls."""
    probes = project.DEFAULT_PROBES
    span = {a: MAX_AGE - a + 1 for a in config.cohort_ages}
    a0 = config.ages.min_age   # closed curves cover ages a0..120
    n_ages = len(config.ages)
    report_ages = config.report_ages
    report_at = [config.ages.index(age) for age in report_ages]
    rows = len(paths.K[gender])
    n_years = len(paths.years)
    per_block = max(1, min(n_years, columns // rows))
    diag = {a: np.empty((span[a], rows)).T for a in config.cohort_ages}
    closure = np.empty((MAX_AGE + 1 - a0, per_block * rows)).T
    labels = [("K", None), ("kappa", None)] + [("q", age) for age in report_ages]
    labels += [("e_per", age) for age in report_ages]
    levels = np.empty((len(labels), n_years, len(probes) + 1))
    for first in range(0, n_years, per_block):
        last = min(first + per_block, n_years)
        years = [(j, slice((j - first) * rows, (j - first + 1) * rows))
                 for j in range(first, last)]
        mu_cl = closure[:len(years) * rows]
        mu = mu_cl[:, :n_ages]
        for j, cols in years:
            project.force_paths(params[gender], paths, gender, int(paths.years[j]),
                                out=mu[cols])
        project.kannisto_close(mu, a0, forces=True, out=mu_cl)
        table = np.empty((len(labels), len(mu)))
        table[0] = paths.K[gender][:, first:last].T.ravel()
        table[1] = paths.kappa[gender][:, first:last].T.ravel()
        table[2:2 + len(report_ages)] = -np.expm1(-mu.T[report_at])
        for k, age in enumerate(report_ages):
            table[2 + len(report_ages) + k] = project.period_life_expectancy(
                mu_cl[:, age - a0:], age)
        for j, cols in years:
            for age, width in span.items():
                if j < width:
                    diag[age][:, j] = mu_cl[cols, age + j - a0]
        for j, cols in years:
            levels[:, j, :-1] = project.quantile_summary(table[:, cols].T[1:], probes).T
            levels[:, j, -1] = table[:, cols.start]
    blocks = [(quantity, gender, age, paths.years, levels[k])
              for k, (quantity, age) in enumerate(labels)]
    if config.cohort_ages:
        e_coh = np.stack([project.period_life_expectancy(diag[age], age)
                          for age in config.cohort_ages])
        cohort = np.column_stack(
            [project.quantile_summary(e_coh.T[1:], probes).T, e_coh[:, 0]])
        blocks += [("e_coh", gender, age, paths.years[:1], cohort[k:k + 1])
                   for k, age in enumerate(config.cohort_ages)]
    return blocks
