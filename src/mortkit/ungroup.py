"""Ungrouping of bucketed annual totals into individual ages.

Exposures: last year's individual-age curve is shifted one age upward
(age 0 extrapolated linearly), scaled per closed bucket to conserve the
bucket totals, and the open bucket is filled by shifting last year's
values uniformly by the bucket's year-on-year change spread over ages up
to 110.  Deaths: an auxiliary multi-population model calibrated on
observed years supplies a central-projected force; expected deaths on
virtual exposures give the within-bucket profile, scaled per closed
bucket, with dedicated open-bucket rules for 90+ (reference-year tail
plus a gender-specific share of the excess) and 85+ (model tail beyond
age 90 estimated via Kannisto closure and removed before scaling).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import (AgeBucket, AgeRange, BucketedAnnualSeries, GENDERS, MAX_FILE_AGE,
                   MultiPopulationDataset, YearRange)
from .dynamics import InstabilityWarning, TimeSeriesFit, fit_period_effects
from .errors import ValidationError
from .lilee import calibrate_dataset
from .project import ScenarioSpec, central_period_effects, kannisto_close

#: The model ages the protocols (the 90+ rule, the Kannisto tail) assume.
UNGROUPING_AGES = AgeRange(0, 90)

#: Default gender-specific share of open-bucket excess allocated to age 90.
DEATH_ALLOCATION_RATE = {"M": 0.20, "F": 0.145}


@dataclass(frozen=True)
class Ungrouped:
    """One year's virtual individual-age values over the model ages."""

    values: np.ndarray


# ---------------------------------------------------------------------------
# Exposure protocol
# ---------------------------------------------------------------------------

def shift_exposure_curve(prev_curve: np.ndarray) -> np.ndarray:
    """Advance last year's exposures one age: the age-x cohort becomes the
    age-(x+1) cohort.  Age 0 is extrapolated linearly from ages 0 and 1 of
    the source year; a nonpositive extrapolation is refused, not clamped.
    """
    prev = np.asarray(prev_curve, dtype=float)
    if prev.ndim != 1 or prev.size < 2:
        raise ValidationError("need a 1-d curve with at least two ages")
    shifted = np.empty_like(prev)
    shifted[1:] = prev[:-1]
    shifted[0] = 2.0 * prev[0] - prev[1]
    if shifted[0] <= 0:
        raise ValidationError(
            f"extrapolated age-0 exposure {shifted[0]:g} is nonpositive"
        )
    return shifted


def scale_curve_to_buckets(curve: np.ndarray, bucket_totals: dict,
                           first_age: int = 0
                           ) -> tuple[np.ndarray, dict]:
    """Rescale a curve so each closed bucket's sum matches its total.

    Returns the scaled curve and the factor applied to each bucket.  Ages
    outside the given buckets are copied through unchanged.  A bucket
    whose curve mass is zero against a positive total cannot be scaled.
    """
    curve = np.asarray(curve, dtype=float)
    out = curve.copy()
    factors = {}
    for bucket in sorted(bucket_totals):
        if bucket.is_open:
            raise ValidationError(f"bucket {bucket.label} is open; scale only closed ones")
        lo = bucket.lower - first_age
        hi = bucket.upper - first_age
        if lo < 0 or hi >= curve.size:
            raise ValidationError(f"bucket {bucket.label} outside the curve's ages")
        mass = float(curve[lo:hi + 1].sum())
        total = float(bucket_totals[bucket])
        if mass <= 0:
            if total > 0:
                raise ValidationError(
                    f"bucket {bucket.label}: zero curve mass against total {total:g}"
                )
            factors[bucket] = 1.0
            continue
        b = total / mass
        out[lo:hi + 1] = curve[lo:hi + 1] * b
        factors[bucket] = b
    return out, factors


def apply_open_bucket_exposure(prev_values: np.ndarray, open_total: float,
                               prev_open_total: float,
                               open_lower: int) -> np.ndarray:
    """Uniform-shift rule for the open exposure bucket.

    The bucket's year-on-year change is spread evenly over all its ages up
    to 110; last year's values at the retained ages move by that constant.
    Nonpositive results are refused.
    """
    prev = np.asarray(prev_values, dtype=float)
    width = MAX_FILE_AGE - open_lower + 1
    shift = (open_total - prev_open_total) / width
    adjusted = prev + shift
    if np.any(adjusted <= 0):
        age = open_lower + int(np.argmax(adjusted <= 0))
        raise ValidationError(
            f"open-bucket exposure at age {age} becomes nonpositive "
            f"(shift {shift:g})"
        )
    return adjusted


def _buckets(series: BucketedAnnualSeries, name: str, ages: AgeRange
             ) -> tuple[dict, AgeBucket]:
    """The closed buckets of the series' `name` totals and its one open
    bucket, which the closed ones tile up to from age 0, the first model
    age, and which starts no higher than the model top age."""
    table = getattr(series, name)
    who = f"{series.country}/{series.gender} {series.year} {name}"
    if ages.min_age != 0:
        raise ValidationError(f"{who}: ungrouping needs model ages from 0, got {ages}")
    if table is None:
        raise ValidationError(f"{who}: not in the annual series")
    closed = {b: v for b, v in table.items() if not b.is_open}
    opened = [b for b in table if b.is_open]
    if len(opened) != 1:
        expected = max((b.upper + 1 for b in closed), default=0)
        raise ValidationError(f"{who}: need one open bucket ({expected}+), found "
                              f"{', '.join(b.label for b in opened) or 'none'}")
    lower = opened[0].lower
    if sorted(age for b in closed for age in b.ages()) != list(range(lower)):
        raise ValidationError(f"{who}: closed buckets must tile ages 0..{lower - 1}")
    if lower > ages.max_age:
        raise ValidationError(f"{who}: open bucket {opened[0].label} starts above "
                              f"the model top age {ages.max_age}")
    return closed, opened[0]


def ungroup_exposures(prev_curve: np.ndarray, buckets: BucketedAnnualSeries,
                      ages: AgeRange, *, prev_above_top=()) -> Ungrouped:
    """Turn one year's bucketed exposures into individual ages 0..top.

    `prev_curve` is the previous year's individual-age exposures over the
    model ages (observed or already-virtual for chained years), and
    `prev_above_top` its observed exposures at ages above the model top
    age, if any.  Last year's open-bucket total is the curve's sum over
    the open bucket plus theirs.
    """
    prev = np.asarray(prev_curve, dtype=float)
    if prev.shape != (len(ages),):
        raise ValidationError("previous-year curve must cover the model ages")
    closed, open_bucket = _buckets(buckets, "exposures", ages)

    shifted = shift_exposure_curve(prev)
    scaled, _ = scale_curve_to_buckets(shifted, closed)

    open_lo = open_bucket.lower
    prev_open_total = float(prev[open_lo:].sum()) + float(np.sum(prev_above_top))
    scaled[open_lo:] = apply_open_bucket_exposure(
        prev[open_lo:], buckets.exposures[open_bucket], prev_open_total,
        open_bucket.lower,
    )
    return Ungrouped(scaled)


# ---------------------------------------------------------------------------
# Auxiliary projection model for the death protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuxiliaryModel:
    """Multi-population fit on observed years used to profile deaths."""

    country: str
    params: dict            # gender -> LiLeeParams
    ts_fit: TimeSeriesFit
    years: YearRange

    def central_force(self, gender: str, year: int) -> np.ndarray:
        """The force of the scenarios' central path, jumping off at the
        window's last year, in a year after the window."""
        if year <= self.years.last:
            raise ValidationError(
                f"{self.country}/{year}: weekly deaths must follow the auxiliary "
                f"window [{self.years.first}, {self.years.last}] "
                "(ungrouping.aux_start_year)")
        p = self.params[gender]
        central = central_period_effects(self.ts_fit, ScenarioSpec(
            jump_off_year=self.years.last, horizon=year, n_paths=1, seed=0,
            jump_off=self.params["M"].jump_off + self.params["F"].jump_off))
        K, kappa = central.K[gender][0, -1], central.kappa[gender][0, -1]
        # The link's order of addition; a one-row force_paths adds in another.
        return np.exp(p.A + p.B * K + p.alpha + p.beta * kappa)


def fit_auxiliary_projection_model(dataset: MultiPopulationDataset,
                                   country: str) -> AuxiliaryModel:
    """Calibrate the auxiliary model on individual-age (observed) years.

    The dataset must already be restricted to observed years.  This is
    the Li-Lee calibration and dynamics fit of the scenarios, with unit
    weights.  An AR(1) coefficient at or beyond the unit circle warns
    (projection would be unstable) but is kept.
    """
    params, _ = calibrate_dataset(dataset, country)
    fit = fit_period_effects(params)
    for gender in GENDERS:
        phi = fit.ar_coefficient(gender)
        if abs(phi) >= 1.0:
            warnings.warn(
                f"auxiliary AR(1) coefficient for {gender} is {phi:.4f}; "
                "central projection is unstable",
                InstabilityWarning, stacklevel=2,
            )
    return AuxiliaryModel(country=country, params=params, ts_fit=fit,
                          years=dataset.years)


def apply_open_bucket_deaths(reference_tail: np.ndarray, open_total: float,
                             allocation_rate: float) -> float:
    """Deaths at age 90 when the open bucket is 90+.

    reference_tail holds the reference year's deaths at ages 90, 91, ...
    The excess of this year's open-bucket total over the reference tail
    total is allocated to age 90 at the gender-specific rate; a negative
    result floors at zero with a warning.
    """
    tail = np.asarray(reference_tail, dtype=float)
    if tail.ndim != 1 or tail.size < 1:
        raise ValidationError("reference tail must hold at least age 90")
    if not 0.0 < allocation_rate <= 1.0:
        raise ValidationError(f"allocation rate {allocation_rate} outside (0, 1]")
    value = float(tail[0] + allocation_rate * (open_total - tail.sum()))
    if value < 0:
        warnings.warn(
            f"open-bucket death allocation is negative ({value:g}); floored at 0",
            RuntimeWarning, stacklevel=2,
        )
        value = 0.0
    return value


def _model_tail_share(force: np.ndarray, exposures: np.ndarray,
                      open_lower: int, ages: AgeRange) -> float:
    """Share of the open bucket expected beyond the model top age.

    The expected-death curve is extended past age 90 by Kannisto closure
    of the force, with exposures depleted cohort-wise by exp(-mu), up to
    age 110.
    """
    mu_closed = kannisto_close(force, forces=True)
    top = ages.max_age
    tail_mu = mu_closed[top + 1: MAX_FILE_AGE + 1]
    e = float(exposures[top])
    mu_prev = float(mu_closed[top])
    tail_expected = 0.0
    within = float(np.sum(force[open_lower:] * exposures[open_lower:]))
    for mu_x in tail_mu:
        e = e * np.exp(-mu_prev)
        tail_expected += float(mu_x) * e
        mu_prev = float(mu_x)
    total = within + tail_expected
    return tail_expected / total if total > 0 else 0.0


def needs_reference_tail(buckets: BucketedAnnualSeries, ages: AgeRange) -> bool:
    """Whether the year's open death bucket starts at the model top age
    (90+ against a model ending at 90) and so follows the reference-tail
    rule; one that starts below it follows the model-tail rule."""
    return _buckets(buckets, "deaths", ages)[1].lower == ages.max_age


def ungroup_deaths(aux: AuxiliaryModel, gender: str, year: int,
                   exposures: np.ndarray, buckets: BucketedAnnualSeries,
                   ages: AgeRange, *, reference_tail: np.ndarray | None = None,
                   allocation_rate: float) -> Ungrouped:
    """Turn one year's bucketed deaths into individual ages.

    `exposures` are the (virtual) individual-age exposures of the target
    year; the expected deaths mu * E on them give the profile within each
    bucket.  When `needs_reference_tail`, the open bucket needs
    `reference_tail` (reference-year deaths at ages >= 90), of whose
    excess `allocation_rate` goes to the top age; otherwise it uses the
    model-tail estimate.
    """
    exposures = np.asarray(exposures, dtype=float)
    if exposures.shape != (len(ages),) or not np.all(exposures > 0):
        raise ValidationError("exposures must cover the model ages and be > 0")
    closed, open_bucket = _buckets(buckets, "deaths", ages)

    force = aux.central_force(gender, year)
    profile = force * exposures
    out, _ = scale_curve_to_buckets(profile, closed)

    open_lo = open_bucket.lower
    open_total = float(buckets.deaths[open_bucket])

    if open_lo == ages.max_age:   # the reference-tail rule, as in needs_reference_tail
        if reference_tail is None:
            raise ValidationError("90+ bucket needs reference-year tail deaths")
        out[open_lo] = apply_open_bucket_deaths(reference_tail, open_total,
                                                allocation_rate)
    else:
        # 85+ style: estimate the share beyond the top age from the model
        # curve, remove it, scale the retained ages against the remainder.
        share = _model_tail_share(force, exposures, open_bucket.lower, ages)
        remainder = open_total - open_total * share
        mass = float(profile[open_lo:].sum())
        if mass <= 0 and remainder > 0:
            raise ValidationError(
                f"open bucket {open_bucket.label}: zero expected mass"
            )
        b = remainder / mass if mass > 0 else 1.0
        out[open_lo:] = profile[open_lo:] * b
    if np.any(out < 0):
        raise ValidationError("ungrouped deaths became negative")
    return Ungrouped(out)
