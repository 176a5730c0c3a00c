"""Stochastic projection of period effects and derived mortality summaries.

Paths start at the calibrated jump-off values and evolve by the fitted
random-walk/AR(1) recursion, drawing one joint 4-dimensional Gaussian
innovation per (path, year).  Each path gets its own counter-based RNG
stream keyed by (seed, path index), so results are independent of
execution order or thread count.  The fan charts summarise one batch:
the zero-noise central path in row 0 and the simulated paths below it,
so a single life-table pass yields both the best estimate and the
quantiles.  Simulated forces are closed to age 120 with a Kannisto
logistic fitted on ages 80..90 and summarized as one-year death
probabilities, period/cohort life expectancies (one backward pass in place
over ages-major forces) and empirical quantiles.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import GENDERS, MAX_AGE
from .dynamics import TimeSeriesFit
from .errors import ValidationError
from .lilee import LiLeeParams

#: Ages whose logit-forces the Kannisto regression is fitted on.
KANNISTO_FIT_LO = 80
KANNISTO_FIT_HI = 90

#: Force clamp just below 1 so the logit stays defined.
FORCE_CLAMP = 1.0 - 1e-12

#: Default fan-chart probes.
DEFAULT_PROBES = (0.005, 0.5, 0.995)


@dataclass(frozen=True)
class ScenarioSpec:
    """What to simulate: horizon, path count, seed and jump-off state.

    `jump_off` is (K^M, kappa^M, K^F, kappa^F) in `jump_off_year`, the
    final calibration year.  `normals`, if given, are read in place of
    `draw_normals(seed, n_paths, H)`: specs sharing one array share noise.
    """

    jump_off_year: int
    horizon: int
    n_paths: int
    seed: int
    jump_off: tuple
    normals: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.horizon <= self.jump_off_year:
            raise ValidationError(
                f"horizon {self.horizon} must exceed jump-off year {self.jump_off_year}"
            )
        if self.n_paths < 1:
            raise ValidationError("need at least one path")
        if len(self.jump_off) != 4:
            raise ValidationError("jump_off must be (K_M, kappa_M, K_F, kappa_F)")
        shape = (self.n_paths, self.horizon - self.jump_off_year, 4)
        if self.normals is not None and np.shape(self.normals) != shape:
            raise ValidationError(f"normals have shape {np.shape(self.normals)}, "
                                  f"the spec needs {shape}")

    @property
    def years(self) -> np.ndarray:
        return np.arange(self.jump_off_year, self.horizon + 1)


@dataclass(frozen=True)
class SimulationPaths:
    """Period effects per gender, read-only arrays of shape (rows, n_years)
    with the jump-off year in column 0.  In a `path_batch` row 0 is the
    central path and row i + 1 is simulated path i."""

    years: np.ndarray
    K: dict
    kappa: dict

    def __post_init__(self):
        for table in (self.K, self.kappa):
            for arr in table.values():
                arr.flags.writeable = False

    def year_index(self, year: int) -> int:
        if not self.years[0] <= year <= self.years[-1]:
            raise ValidationError(f"year {year} outside simulated range")
        return int(year - self.years[0])


def _innovation_factor(C) -> np.ndarray:
    """A factor L = V sqrt(diag(lambda)) with L L' = C, from the
    eigendecomposition C = V diag(lambda) V'.  It is not symmetric: eigh
    fixes each eigenvector's sign arbitrarily, so a small change in C can
    flip columns of L (ROADMAP item 6).  Tolerates the exactly
    semidefinite covariances produced by degenerate test inputs."""
    C = np.asarray(C, dtype=float)
    if C.shape != (4, 4) or not np.allclose(C, C.T, atol=1e-10):
        raise ValidationError("covariance must be symmetric 4x4")
    eigval, eigvec = np.linalg.eigh(C)
    floor = -1e-10 * max(eigval.max(), 1.0)
    if eigval.min() < floor:
        raise ValidationError("covariance is not positive semidefinite")
    return eigvec * np.sqrt(np.clip(eigval, 0.0, None))


def _recur(spec: ScenarioSpec, fit: TimeSeriesFit, eps: np.ndarray) -> SimulationPaths:
    """Run the drift/AR recursion given innovations eps (n, H, 4)."""
    n, H, _ = eps.shape
    years = spec.years
    K = {g: np.empty((n, H + 1)) for g in GENDERS}
    kap = {g: np.empty((n, H + 1)) for g in GENDERS}
    K["M"][:, 0], kap["M"][:, 0], K["F"][:, 0], kap["F"][:, 0] = spec.jump_off
    cols = {"M": (0, 1), "F": (2, 3)}
    for g in GENDERS:
        theta = fit.drift(g)
        c = fit.ar_intercept(g)
        phi = fit.ar_coefficient(g)
        ki, di = cols[g]
        for h in range(H):
            K[g][:, h + 1] = K[g][:, h] + theta + eps[:, h, ki]
            kap[g][:, h + 1] = c + phi * kap[g][:, h] + eps[:, h, di]
    return SimulationPaths(years=years, K=K, kappa=kap)


def draw_normals(seed: int, n_paths: int, H: int) -> np.ndarray:
    """Standard normals (n_paths, H, 4), path i's from a Philox stream
    keyed by (seed, i).  One generator serves every path: before path i it
    is given the state a fresh `Philox(key=[seed, i])` starts in, so no
    generator is constructed per path."""
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bits)
    fresh = bits.state
    z = np.empty((n_paths, H, 4))
    for i in range(n_paths):
        fresh["state"]["key"][1] = i
        bits.state = fresh
        rng.standard_normal(out=z[i])
    return z


def simulate_period_effects(fit: TimeSeriesFit, spec: ScenarioSpec) -> SimulationPaths:
    """Simulate n paths of (K, kappa) for both genders.

    One 4-dim draw per (path, year) from a Philox stream keyed by
    (seed, path index): reruns with the same seed are bit-identical and
    path i's stream never depends on how many paths run or in what order.
    The draws are standard normals times the factor of the fit's C; the
    normals are `spec.normals` when given, else drawn for this call.
    """
    L = _innovation_factor(fit.C)
    H = spec.horizon - spec.jump_off_year
    z = draw_normals(spec.seed, spec.n_paths, H) if spec.normals is None else spec.normals
    return _recur(spec, fit, z @ L.T)


def central_period_effects(fit: TimeSeriesFit, spec: ScenarioSpec) -> SimulationPaths:
    """The noise-free central path (all innovations zero); one row."""
    return _recur(spec, fit, np.zeros((1, spec.horizon - spec.jump_off_year, 4)))


def path_batch(fit: TimeSeriesFit, spec: ScenarioSpec) -> SimulationPaths:
    """The central path in row 0, then simulated path i in row i + 1.

    Life tables run once over the whole batch: row 0 gives the fan
    charts' best estimate, rows 1.. their quantiles.
    """
    central = central_period_effects(fit, spec)
    paths = simulate_period_effects(fit, spec)
    return SimulationPaths(
        years=paths.years,
        K={g: np.vstack([central.K[g], paths.K[g]]) for g in GENDERS},
        kappa={g: np.vstack([central.kappa[g], paths.kappa[g]]) for g in GENDERS},
    )


# ---------------------------------------------------------------------------
# Link to mortality
# ---------------------------------------------------------------------------

def force_paths(params: LiLeeParams, paths: SimulationPaths, gender: str,
                year: int, out: np.ndarray | None = None, *, n_years: int = 1,
                ages: tuple | None = None) -> np.ndarray:
    """mu over the model ages for `n_years` years from `year`; shape
    (n_years * rows, n_ages), one column per (year, path row) in that
    order.  `ages`, a pair (lo, hi), keeps the model ages lo..hi only.

    The result is the transposed view of an ages-major array, the layout
    the closure and the expectancy kernel work in; with `out` it is
    written there, typically a band of a closure buffer."""
    j = paths.year_index(year)
    paths.year_index(year + n_years - 1)   # the block's last year is simulated too
    lo, hi = (params.ages.min_age, params.ages.max_age) if ages is None else ages
    x = slice(params.ages.index(lo), params.ages.index(hi) + 1)
    # K, 1 and kappa, each year's path rows after the year before.
    periods = np.ones((3, n_years, len(paths.K[gender])))
    periods[0] = paths.K[gender][:, j:j + n_years].T
    periods[2] = paths.kappa[gender][:, j:j + n_years].T
    # One contraction sums (B K + (A + alpha)) + beta kappa in that order, bit-equal
    # to broadcast sums on builds without fused multiply-add (not for one column).
    coef = np.stack([params.B[x], params.A[x] + params.alpha[x], params.beta[x]], axis=1)
    mu = np.einsum("xk,kr->xr", coef, periods.reshape(3, -1),
                   out=None if out is None else out.T)
    return np.exp(mu, out=mu).T


# ---------------------------------------------------------------------------
# Kannisto closure
# ---------------------------------------------------------------------------

def _pairwise_rows(rows) -> np.ndarray:
    """The sum of 8 to 15 rows, added in the order numpy's pairwise sum
    adds as many contiguous values, so a sum over an ages-major axis
    equals the same sum over a trailing age axis bit for bit."""
    (a, b, c, d, e, f, g, h), rest = rows[:8], rows[8:]
    total = ((a + b) + (c + d)) + ((e + f) + (g + h))
    for row in rest:
        total += row
    return total


def check_forces(mu: np.ndarray) -> None:
    """Refuse forces that are not all positive and finite."""
    # min and max propagate NaN, which compares false, so NaN fails the
    # check too; the initial values let an empty batch through.
    if not (mu.min(initial=np.inf) > 0 and mu.max(initial=-np.inf) < np.inf):
        raise ValidationError("forces must be positive and finite")


def kannisto_close(curve: np.ndarray, ages_lo: int = 0, *,
                   forces: bool = False, out: np.ndarray | None = None
                   ) -> np.ndarray:
    """Extend a mortality curve over ages `ages_lo`..90 up to age 120; it
    must hold the fit ages, so `ages_lo` is in 0..80.

    With `forces=True` the curve and the result are forces of mortality,
    the form the life tables use.  Otherwise both are one-year death
    probabilities q = 1 - e^-mu, turned into forces for the fit and back
    for the extension.  The forces on ages 80..90 are fitted with the
    logistic mu_x = c e^(phi x) / (1 + c e^(phi x)) by least squares on
    logit(mu_x), then evaluated on 91..120.  Ages up to 90 pass through
    unchanged.  A non-increasing fit (phi <= 0) warns but is applied;
    forces at or above 1 are clamped just below 1 before the logit, with a
    warning.  Input may carry leading path/year axes.  The result is laid
    out ages-major (the age axis outermost in memory), so that the
    expectancy kernel reads it without a copy; with `out` it is written
    there, and a curve that already is `out`'s leading ages is not copied.
    """
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
        check_forces(curve)
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
    slope = _pairwise_rows(weighted) / np.sum((x - xbar) ** 2)
    intercept = _pairwise_rows(y) / len(x) - slope * xbar
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


# ---------------------------------------------------------------------------
# Life expectancy
# ---------------------------------------------------------------------------

def _expectancy_kernel(mu: np.ndarray, after: np.ndarray | None,
                       survival: np.ndarray) -> np.ndarray:
    """Expected years lived from every age of a force sequence up to its
    end, by the backward recursion e_x = f_x + s_x e_(x+1), with the year
    fraction f = (1 - e^-mu)/mu (1 at mu = 0) and the survival factor
    s = 1 + expm1(-mu), both from one expm1 pass.  `mu` is C-contiguous
    with ages along axis 0 (the recursion steps over its contiguous rows)
    and ends holding the result; `survival` is flat scratch of at least
    its size.  An infinite force ends the sequence at that age.  `after`,
    the expectancy at the age past the last one (mu's shape without the
    age axis), continues the recursion from ages above."""
    # min propagates NaN, which compares false, so NaN fails the check
    # too; the initial value lets an empty batch through.
    least = mu.min(initial=np.inf)
    if not least >= 0:
        raise ValidationError("forces must be nonnegative and not NaN")
    # The zeros are found before the forces are overwritten.
    zero = mu == 0 if least == 0 else None
    # Steps run in place: every temporary of this size costs a fresh allocation.
    negated = np.negative(mu, out=mu)
    survival = np.expm1(negated, out=survival[:mu.size].reshape(mu.shape))
    # expm1(-mu)/(-mu) equals -expm1(-mu)/mu bit for bit (IEEE sign symmetry).
    with np.errstate(invalid="ignore"):   # 0/0 at mu = 0, set just below
        e = np.divide(survival, negated, out=negated)
    if zero is not None:
        e[zero] = 1.0
    survival += 1.0
    # Each age's step runs under the GIL, so it is two ufunc calls on
    # prepared rows with positional outputs; the product goes into the
    # survival row it used up.
    rows = list(e.reshape(len(e), -1))
    factors = list(survival.reshape(len(e), -1))
    if after is not None:
        rows.append(np.reshape(after, -1))
    for x in range(len(rows) - 2, -1, -1):
        np.multiply(factors[x], rows[x + 1], factors[x])
        np.add(rows[x], factors[x], rows[x])
    return e


@dataclass(frozen=True, eq=False)
class AgeBand:
    """Ages `first`.. of a force sequence that runs on to age 120, for
    `period_life_expectancy` to take a band at a time, the top band
    first.  `after` is the expectancy at the age past the band's last, one
    per column, from the band above (None for the band that ends at 120);
    `survival` is flat scratch of at least the band's size."""

    first: int
    after: np.ndarray | None
    survival: np.ndarray


def _whole_age(age) -> int:
    """`age` as an int, refused unless it is an integer in 0..120."""
    if not isinstance(age, (int, np.integer)) or not 0 <= age <= MAX_AGE:
        raise ValidationError(f"age must be an integer in 0..{MAX_AGE}, got {age!r}")
    return int(age)


def period_life_expectancy(mu: np.ndarray, age) -> np.ndarray:
    """Period life expectancy at `age` from one year's forces.

    `mu` covers ages `age`..120 on the trailing axis (leading axes may be
    paths); the sum truncates at age 120.  It is copied once, ages-major,
    and never written.

    `age` may also be an `AgeBand`: `mu`, laid out ages-major (a
    contiguous array with the age axis moved last), then covers the band's
    ages, and each of its forces is overwritten with the expectancy at its
    age, bit for bit as one backward pass from age 120 gives it; `mu` is
    returned.
    """
    if isinstance(age, AgeBand):
        last = _whole_age(age.first) + mu.shape[-1] - 1
        if last > MAX_AGE or (age.after is None) != (last == MAX_AGE):
            raise ValidationError(f"a band ending at age {last} needs the expectancy "
                                  f"past it if and only if it ends before {MAX_AGE}")
        band = np.moveaxis(mu, -1, 0)
        if not band.flags.c_contiguous:
            raise ValidationError("an age band must be laid out ages-major")
        _expectancy_kernel(band, age.after, age.survival)
        return mu
    age = _whole_age(age)
    mu = np.asarray(mu, dtype=float)
    expected = MAX_AGE - age + 1
    if mu.shape[-1] != expected:
        raise ValidationError(
            f"need forces for ages {age}..{MAX_AGE} ({expected} values), "
            f"got {mu.shape[-1]}"
        )
    # A copy even of an ages-major `mu`: the kernel overwrites its input.
    e = np.array(np.moveaxis(mu, -1, 0), order="C")
    return _expectancy_kernel(e, None, np.empty(e.size))[0]


def cohort_life_expectancy(mu_surface: np.ndarray, age: int) -> np.ndarray:
    """Cohort life expectancy at `age` in the surface's first year.

    `mu_surface` has shape (..., n_years, 121) with ages 0..120 on the
    trailing axis; the cohort follows the diagonal (age+k, first_year+k),
    and its expectancy is the period one of those forces.  Errors if the
    horizon cannot reach age 120.
    """
    age = _whole_age(age)
    mu_surface = np.asarray(mu_surface, dtype=float)
    if mu_surface.shape[-1] != MAX_AGE + 1:
        raise ValidationError(f"surface must cover ages 0..{MAX_AGE}")
    span = MAX_AGE - age + 1
    if mu_surface.shape[-2] < span:
        raise ValidationError(
            f"cohort at age {age} needs {span} projection years, surface has "
            f"{mu_surface.shape[-2]}; extend the simulation horizon"
        )
    steps = np.arange(span)
    return period_life_expectancy(mu_surface[..., steps, age + steps], age)


# ---------------------------------------------------------------------------
# Quantile summaries
# ---------------------------------------------------------------------------

def quantile_summary(samples: np.ndarray, probes=DEFAULT_PROBES) -> np.ndarray:
    """Empirical quantiles over the path axis (axis 0), linear
    interpolation of order statistics.

    Returns one level per probe on axis 0: shape (len(probes), ...).
    The values are `np.quantile(method="linear")`'s for float probes, from
    one sort along the path axis (fastest when that axis is contiguous).
    """
    samples = np.asarray(samples, dtype=float)
    probes = tuple(probes)
    if any(not 0.0 <= p <= 1.0 for p in probes):
        raise ValidationError("probes must lie in [0, 1]")
    ordered = np.sort(samples, axis=0)
    n = len(ordered)
    virtual = (n - 1) * np.array(probes, dtype=float)
    # numpy's rules: an index at or past the last reads it on both sides, and
    # the lerp runs from the upper neighbour when gamma >= 0.5.
    top = virtual >= n - 1
    below = np.where(top, -1.0, np.floor(virtual))
    gamma = (virtual - below).reshape((-1,) + (1,) * (ordered.ndim - 1))
    low = ordered[below.astype(np.intp)]
    high = ordered[np.where(top, -1, below + 1).astype(np.intp)]
    step = high - low
    levels = low + step * gamma
    np.subtract(high, step * (1 - gamma), out=levels, where=gamma >= 0.5)
    np.copyto(levels, ordered[-1], where=np.isnan(ordered[-1]))   # NaN sorts last
    return levels
