"""Mortality data types, CSV ingestion and weekly-to-annual conversion.

Three individual-age CSV shapes (HMD, EURO, STATBEL) share one schema;
two weekly bucketed shapes (STMF, EUROW) cover pandemic-era years that
lack individual-age publications.  Weekly data are annualized with the
52/53 ISO-week rule for deaths and the constant-weekly-exposure rule for
exposures.  UK data arrive as three constituents and are aggregated here.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

GENDERS = ("M", "F")

#: Admissible provenance codes for individual-age cells.
PROVENANCE_CODES = ("HMD", "EURO", "STATBEL", "STMF", "EUROW", "VIRTUAL")

#: Largest central death rate d/E accepted as plausible data.
RATE_SANITY_BOUND = 5.0

#: Relative tolerance for the weekly identity death_rate * exposure = deaths.
RATE_IDENTITY_RTOL = 1e-6

#: Relative tolerance for the constant-weekly-exposure check.
EXPOSURE_CONSTANCY_RTOL = 1e-6

#: Weeks in a regular ISO year; annual exposure is 52 * weekly exposure
#: regardless of week count, while deaths get the 52/week_count factor.
REGULAR_WEEKS = 52

INDIVIDUAL_HEADER = ("country", "year", "gender", "age", "deaths", "exposure")
STMF_HEADER = ("country", "year", "week", "gender", "bucket", "deaths", "death_rate")
EUROW_HEADER = ("country", "year", "week", "gender", "bucket", "deaths")

INDIVIDUAL_SHAPES = ("HMD", "EURO", "STATBEL")
WEEKLY_SHAPES = ("STMF", "EUROW")

#: Country code assigned to the aggregated United Kingdom.
UK_CODE = "UNK"


# ---------------------------------------------------------------------------
# Elementary range and bucket types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class AgeRange:
    """Inclusive integer age interval, bounded by 0 and 120."""

    min_age: int
    max_age: int

    def __post_init__(self):
        if not (0 <= self.min_age <= self.max_age <= 120):
            raise ValidationError(
                f"invalid age range [{self.min_age}, {self.max_age}]"
            )

    def __len__(self):
        return self.max_age - self.min_age + 1

    def values(self) -> np.ndarray:
        return np.arange(self.min_age, self.max_age + 1)

    def index(self, age: int) -> int:
        if not self.min_age <= age <= self.max_age:
            raise ValidationError(f"age {age} outside range {self}")
        return age - self.min_age

    def __str__(self):
        return f"[{self.min_age}, {self.max_age}]"


@dataclass(frozen=True, order=True)
class YearRange:
    """Inclusive calendar-year interval."""

    first: int
    last: int

    def __post_init__(self):
        if self.first > self.last:
            raise ValidationError(f"invalid year range [{self.first}, {self.last}]")

    def __len__(self):
        return self.last - self.first + 1

    def values(self) -> np.ndarray:
        return np.arange(self.first, self.last + 1)

    def index(self, year: int) -> int:
        if not self.first <= year <= self.last:
            raise ValidationError(f"year {year} outside range {self}")
        return year - self.first

    def __str__(self):
        return f"[{self.first}, {self.last}]"


@dataclass(frozen=True, order=True)
class AgeBucket:
    """Age bucket, closed (`lower-upper`) or open-ended (`lower+`)."""

    lower: int
    upper: int | None  # None marks the open bucket

    def __post_init__(self):
        if self.lower < 0 or (self.upper is not None and self.upper < self.lower):
            raise ValidationError(f"invalid bucket bounds ({self.lower}, {self.upper})")

    @property
    def is_open(self) -> bool:
        return self.upper is None

    @property
    def label(self) -> str:
        return f"{self.lower}+" if self.is_open else f"{self.lower}-{self.upper}"

    @classmethod
    def parse(cls, label: str) -> "AgeBucket":
        text = label.strip()
        if text.endswith("+"):
            return cls(int(text[:-1]), None)
        lo, sep, hi = text.partition("-")
        if not sep:
            raise ValidationError(f"unparseable bucket label {label!r}")
        return cls(int(lo), int(hi))

    def ages(self) -> np.ndarray:
        """Integer ages of a closed bucket."""
        if self.is_open:
            raise ValidationError(f"open bucket {self.label} has no finite age list")
        return np.arange(self.lower, self.upper + 1)

    def __str__(self):
        return self.label


#: STMF publishes five broad buckets.
STMF_BUCKETS = (
    AgeBucket(0, 14),
    AgeBucket(15, 64),
    AgeBucket(65, 74),
    AgeBucket(75, 84),
    AgeBucket(85, None),
)

#: Eurostat weekly deaths use nineteen five-year buckets.
EUROW_BUCKETS = tuple(
    [AgeBucket(lo, lo + 4) for lo in range(0, 90, 5)] + [AgeBucket(90, None)]
)

_BUCKET_SETS = {"STMF": frozenset(STMF_BUCKETS), "EUROW": frozenset(EUROW_BUCKETS)}


# ---------------------------------------------------------------------------
# Weekly and annual bucketed series
# ---------------------------------------------------------------------------

def _check_gender(gender: str):
    if gender not in GENDERS:
        raise ValidationError(f"gender must be one of {GENDERS}, got {gender!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class BucketedWeeklySeries:
    """Weekly bucketed counts for one (country, year, gender).

    Per-bucket arrays are indexed by week-1 and may contain NaN holes for
    weeks absent from the source file; annualization refuses such holes.
    `exposure_origin` records whether exposures came from an explicit
    column ("column") or were derived as deaths/death_rate ("derived").
    """

    country: str
    gender: str
    year: int
    week_count: int
    deaths: dict[AgeBucket, np.ndarray]
    exposures: dict[AgeBucket, np.ndarray] | None = None
    death_rates: dict[AgeBucket, np.ndarray] | None = None
    exposure_origin: str | None = None

    def __post_init__(self):
        _check_gender(self.gender)
        if self.week_count not in (52, 53):
            raise ValidationError(
                f"week count must be 52 or 53, got {self.week_count}"
            )
        for name, table in (
            ("deaths", self.deaths),
            ("exposures", self.exposures),
            ("death_rates", self.death_rates),
        ):
            if table is None:
                continue
            for bucket, arr in table.items():
                if arr.shape != (self.week_count,):
                    raise ValidationError(
                        f"{name}[{bucket}] has shape {arr.shape}, "
                        f"expected ({self.week_count},)"
                    )
        for bucket, arr in self.deaths.items():
            if np.any(arr[~np.isnan(arr)] < 0):
                raise ValidationError(f"negative deaths in bucket {bucket}")
        if self.exposures is not None:
            for bucket, arr in self.exposures.items():
                if np.any(arr[~np.isnan(arr)] <= 0):
                    raise ValidationError(f"nonpositive exposure in bucket {bucket}")
        self._check_rate_identity()

    def _check_rate_identity(self):
        # m * E must reproduce d where all three are present
        if self.exposures is None or self.death_rates is None:
            return
        for bucket in self.deaths:
            if bucket not in self.exposures or bucket not in self.death_rates:
                continue
            d = self.deaths[bucket]
            e = self.exposures[bucket]
            m = self.death_rates[bucket]
            ok = ~(np.isnan(d) | np.isnan(e) | np.isnan(m))
            err = np.abs(m[ok] * e[ok] - d[ok])
            bound = RATE_IDENTITY_RTOL * np.maximum(1.0, np.abs(d[ok]))
            if np.any(err > bound):
                week = int(np.argmax(err > bound)) + 1
                raise ValidationError(
                    f"death_rate * exposure != deaths in bucket {bucket} "
                    f"(first offending week {week})"
                )

    def buckets(self) -> tuple[AgeBucket, ...]:
        return tuple(sorted(self.deaths))


@dataclass(frozen=True)
class BucketedAnnualSeries:
    """Annualized bucket totals for one (country, year, gender)."""

    country: str
    gender: str
    year: int
    deaths: dict[AgeBucket, float] | None = None
    exposures: dict[AgeBucket, float] | None = None

    def __post_init__(self):
        _check_gender(self.gender)
        if self.deaths is None and self.exposures is None:
            raise ValidationError("annual series needs deaths or exposures")
        if self.deaths is not None and any(v < 0 for v in self.deaths.values()):
            raise ValidationError("negative annual deaths")
        if self.exposures is not None and any(v <= 0 for v in self.exposures.values()):
            raise ValidationError("nonpositive annual exposure")

    def buckets(self) -> tuple[AgeBucket, ...]:
        table = self.deaths if self.deaths is not None else self.exposures
        return tuple(sorted(table))


# ---------------------------------------------------------------------------
# Individual-age surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MortalitySurface:
    """Complete rectangular deaths/exposures grid for one (country, gender).

    Arrays are indexed [age, year].  Provenance is tracked separately for
    deaths and exposures because a single cell can mix sources (observed
    deaths next to ungrouped exposures).
    """

    country: str
    gender: str
    ages: AgeRange
    years: YearRange
    deaths: np.ndarray
    exposures: np.ndarray
    deaths_provenance: np.ndarray
    exposures_provenance: np.ndarray

    def __post_init__(self):
        _check_gender(self.gender)
        shape = (len(self.ages), len(self.years))
        for name in ("deaths", "exposures", "deaths_provenance", "exposures_provenance"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValidationError(f"{name} has shape {arr.shape}, expected {shape}")
        if np.any(~np.isfinite(self.deaths)) or np.any(self.deaths < 0):
            raise ValidationError(f"{self.country}/{self.gender}: deaths must be finite and >= 0")
        if np.any(~np.isfinite(self.exposures)) or np.any(self.exposures <= 0):
            raise ValidationError(f"{self.country}/{self.gender}: exposures must be finite and > 0")
        rates = self.deaths / self.exposures
        if np.any(rates > RATE_SANITY_BOUND):
            x, t = np.unravel_index(int(np.argmax(rates)), rates.shape)
            raise ValidationError(
                f"{self.country}/{self.gender}: death rate {rates[x, t]:.3f} at age "
                f"{self.ages.min_age + x}, year {self.years.first + t} exceeds "
                f"sanity bound {RATE_SANITY_BOUND}"
            )
        for name in ("deaths_provenance", "exposures_provenance"):
            bad = set(np.unique(getattr(self, name))) - set(PROVENANCE_CODES)
            if bad:
                raise ValidationError(f"unknown provenance codes {sorted(bad)}")

    @property
    def death_rates(self) -> np.ndarray:
        return self.deaths / self.exposures

    def virtual_cell_count(self) -> dict[str, int]:
        return {
            "deaths": int(np.sum(self.deaths_provenance == "VIRTUAL")),
            "exposures": int(np.sum(self.exposures_provenance == "VIRTUAL")),
        }


@dataclass
class SurfaceFragment:
    """Partial individual-age data keyed by (country, gender, age, year).

    Values are dicts with optional "deaths"/"exposure" entries plus their
    provenance codes; fragments merge field-wise so deaths and exposures
    for one cell may come from different files.
    """

    cells: dict = field(default_factory=dict)

    def set_value(self, country, gender, age, year, quantity, value, provenance):
        key = (country, gender, age, year)
        cell = self.cells.setdefault(key, {})
        if quantity in cell:
            raise ValidationError(
                f"duplicate {quantity} for {country}/{gender} age {age} year {year}"
            )
        cell[quantity] = (float(value), provenance)

    def restrict(self, countries=None, years=None, quantities=None) -> "SurfaceFragment":
        """Copy retaining only matching cells/fields; used to apply a
        config's per-(country, year, quantity) source declarations."""
        out = SurfaceFragment()
        for (country, gender, age, year), cell in self.cells.items():
            if countries is not None and country not in countries:
                continue
            if years is not None and year not in years:
                continue
            for quantity, (value, prov) in cell.items():
                if quantities is not None and quantity not in quantities:
                    continue
                out.set_value(country, gender, age, year, quantity, value, prov)
        return out

    def update(self, other: "SurfaceFragment"):
        for (country, gender, age, year), cell in other.cells.items():
            for quantity, (value, prov) in cell.items():
                self.set_value(country, gender, age, year, quantity, value, prov)

    def deaths_tail(self, country, gender, year, min_age) -> np.ndarray:
        """Death counts at ages >= min_age for one year, age-ascending."""
        rows = sorted(
            (age, cell["deaths"][0])
            for (c, g, age, y), cell in self.cells.items()
            if c == country and g == gender and y == year
            and age >= min_age and "deaths" in cell
        )
        if not rows:
            raise ValidationError(
                f"no deaths at ages >= {min_age} for {country}/{gender} in {year}"
            )
        return np.array([v for _, v in rows])


def build_surface(fragment: SurfaceFragment, country: str, gender: str,
                  ages: AgeRange, years: YearRange) -> MortalitySurface:
    """Assemble a complete surface from a fragment, failing loudly on gaps."""
    shape = (len(ages), len(years))
    deaths = np.full(shape, np.nan)
    exposures = np.full(shape, np.nan)
    dprov = np.full(shape, "", dtype="<U8")
    eprov = np.full(shape, "", dtype="<U8")
    for (c, g, age, year), cell in fragment.cells.items():
        if c != country or g != gender:
            continue
        if not (ages.min_age <= age <= ages.max_age and years.first <= year <= years.last):
            continue
        i, j = age - ages.min_age, year - years.first
        if "deaths" in cell:
            deaths[i, j], dprov[i, j] = cell["deaths"]
        if "exposure" in cell:
            exposures[i, j], eprov[i, j] = cell["exposure"]
    missing = []
    for name, arr in (("deaths", deaths), ("exposures", exposures)):
        holes = np.argwhere(np.isnan(arr))
        if holes.size:
            x, t = holes[0]
            missing.append(
                f"{len(holes)} {name} cells (first: age {ages.min_age + x}, "
                f"year {years.first + t})"
            )
    if missing:
        raise ValidationError(
            f"{country}/{gender}: incomplete grid, missing " + "; ".join(missing)
        )
    return MortalitySurface(country, gender, ages, years,
                            _freeze(deaths), _freeze(exposures), dprov, eprov)


@dataclass(frozen=True)
class MultiPopulationDataset:
    """Aligned surfaces for several countries plus the common-trend pool."""

    surfaces: dict  # (country, gender) -> MortalitySurface
    common_pool: tuple[str, ...]

    def __post_init__(self):
        if not self.surfaces:
            raise ValidationError("dataset has no surfaces")
        ranges = {(s.ages, s.years) for s in self.surfaces.values()}
        if len(ranges) != 1:
            raise ValidationError("surfaces disagree on age/year ranges")
        for country in self.common_pool:
            for gender in GENDERS:
                if (country, gender) not in self.surfaces:
                    raise ValidationError(f"pool country {country}/{gender} has no surface")

    @property
    def ages(self) -> AgeRange:
        return next(iter(self.surfaces.values())).ages

    @property
    def years(self) -> YearRange:
        return next(iter(self.surfaces.values())).years

    def surface(self, country: str, gender: str) -> MortalitySurface:
        return self.surfaces[(country, gender)]

    def aggregate(self, gender: str) -> tuple[np.ndarray, np.ndarray]:
        """Pool-level (deaths, exposures) by cell-wise summation."""
        d = sum(self.surfaces[(c, gender)].deaths for c in self.common_pool)
        e = sum(self.surfaces[(c, gender)].exposures for c in self.common_pool)
        return d, e


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _open_rows(path):
    path = Path(path)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ParseError(f"{path}: empty file")
    return path, rows


def _parse_float(text, what, path, lineno, allow_empty=False):
    text = text.strip()
    if not text:
        if allow_empty:
            return None
        raise ParseError(f"{path}:{lineno}: empty {what}")
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: unparseable {what} {text!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{path}:{lineno}: non-finite {what}")
    return value


def _parse_int(text, what, path, lineno):
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: unparseable {what} {text!r}") from exc


def load_individual_age_csv(path, source_shape: str) -> SurfaceFragment:
    """Read an individual-age file into a fragment.

    Header: country,year,gender,age,deaths,exposure with an optional
    trailing provenance column (written by the ungrouping emitter).  The
    exposure field may be empty for deaths-only publications.
    """
    if source_shape not in INDIVIDUAL_SHAPES + ("VIRTUAL",):
        raise ValidationError(f"unknown individual-age shape {source_shape!r}")
    path, rows = _open_rows(path)
    header = tuple(h.strip() for h in rows[0])
    if header[:6] != INDIVIDUAL_HEADER:
        raise ParseError(f"{path}:1: expected header {','.join(INDIVIDUAL_HEADER)}")
    has_prov = len(header) > 6 and header[6] == "provenance"
    fragment = SurfaceFragment()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) < 6:
            raise ParseError(f"{path}:{lineno}: expected >= 6 fields, got {len(row)}")
        country = row[0].strip()
        year = _parse_int(row[1], "year", path, lineno)
        gender = row[2].strip()
        if gender not in GENDERS:
            raise ParseError(f"{path}:{lineno}: gender must be one of {GENDERS}")
        age = _parse_int(row[3], "age", path, lineno)
        if not 0 <= age <= 110:
            raise ParseError(f"{path}:{lineno}: age {age} outside 0..110")
        deaths = _parse_float(row[4], "deaths", path, lineno)
        if deaths < 0:
            raise ValidationError(f"{path}:{lineno}: negative deaths")
        exposure = _parse_float(row[5], "exposure", path, lineno, allow_empty=True)
        if exposure is not None and exposure <= 0:
            raise ValidationError(f"{path}:{lineno}: nonpositive exposure")
        prov = source_shape
        if has_prov and len(row) > 6 and row[6].strip():
            prov = row[6].strip()
            if prov not in PROVENANCE_CODES:
                raise ParseError(f"{path}:{lineno}: unknown provenance {prov!r}")
        try:
            fragment.set_value(country, gender, age, year, "deaths", deaths, prov)
            if exposure is not None:
                fragment.set_value(country, gender, age, year, "exposure", exposure, prov)
        except ValidationError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return fragment


def write_individual_age_csv(path, records):
    """Write (country, year, gender, age, deaths, exposure, provenance)
    records in the ingestion schema.  Exposure may be None."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(INDIVIDUAL_HEADER + ("provenance",))
        for country, year, gender, age, deaths, exposure, prov in records:
            writer.writerow([
                country, year, gender, age,
                format(float(deaths), ".17g"),
                "" if exposure is None else format(float(exposure), ".17g"),
                prov,
            ])


def derive_weekly_exposure(deaths: float, death_rate: float) -> float:
    """Invert the death-rate definition: E = d / m.  Requires m > 0."""
    if death_rate <= 0:
        raise ValidationError(f"death rate must be positive, got {death_rate}")
    return deaths / death_rate


def load_weekly_csv(path, source_shape: str, *, country=None, year=None,
                    gender=None) -> BucketedWeeklySeries:
    """Read a weekly bucketed file into a single series.

    Optional country/year/gender filters select one series from files
    that interleave several; after filtering the keys must be unique.
    STMF exposures come from the optional exposure column when present,
    otherwise from deaths/death_rate for weeks with a positive rate.
    """
    if source_shape not in WEEKLY_SHAPES:
        raise ValidationError(f"unknown weekly shape {source_shape!r}")
    path, rows = _open_rows(path)
    header = tuple(h.strip() for h in rows[0])
    base = STMF_HEADER if source_shape == "STMF" else EUROW_HEADER
    if header[: len(base)] != base:
        raise ParseError(f"{path}:1: expected header starting {','.join(base)}")
    has_exposure = source_shape == "STMF" and len(header) > 7 and header[7] == "exposure"
    allowed = _BUCKET_SETS[source_shape]

    records = {}
    keys = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) < len(base):
            raise ParseError(f"{path}:{lineno}: expected >= {len(base)} fields")
        row_country = row[0].strip()
        row_year = _parse_int(row[1], "year", path, lineno)
        week = _parse_int(row[2], "week", path, lineno)
        row_gender = row[3].strip()
        if row_gender not in GENDERS:
            raise ParseError(f"{path}:{lineno}: gender must be one of {GENDERS}")
        if country is not None and row_country != country:
            continue
        if year is not None and row_year != year:
            continue
        if gender is not None and row_gender != gender:
            continue
        try:
            bucket = AgeBucket.parse(row[4])
        except (ValidationError, ValueError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if bucket not in allowed:
            raise ParseError(
                f"{path}:{lineno}: bucket {bucket.label} not valid for {source_shape}"
            )
        if week < 1:
            raise ParseError(f"{path}:{lineno}: week {week} < 1")
        deaths = _parse_float(row[5], "deaths", path, lineno)
        rate = None
        exposure = None
        if source_shape == "STMF":
            rate = _parse_float(row[6], "death_rate", path, lineno, allow_empty=True)
            if has_exposure and len(row) > 7:
                exposure = _parse_float(row[7], "exposure", path, lineno, allow_empty=True)
        key = (row_country, row_year, row_gender)
        keys.add(key)
        if len(keys) > 1:
            raise ParseError(
                f"{path}: multiple series {sorted(keys)}; pass country/year/gender filters"
            )
        cell = (bucket, week)
        if cell in records:
            raise ParseError(
                f"{path}:{lineno}: duplicate row for bucket {bucket.label}, week {week}"
            )
        records[cell] = (deaths, rate, exposure)

    if not records:
        raise ParseError(f"{path}: no rows match the requested series")
    (s_country, s_year, s_gender), = keys
    week_count = max(week for _, week in records)
    buckets = sorted({bucket for bucket, _ in records})

    deaths = {b: np.full(week_count, np.nan) for b in buckets}
    rates = {b: np.full(week_count, np.nan) for b in buckets} if source_shape == "STMF" else None
    exposures = None
    origin = None
    if source_shape == "STMF":
        exposures = {b: np.full(week_count, np.nan) for b in buckets}
        origin = "column" if has_exposure else "derived"
    for (bucket, week), (d, m, e) in records.items():
        deaths[bucket][week - 1] = d
        if rates is not None and m is not None:
            rates[bucket][week - 1] = m
        if exposures is not None:
            if has_exposure:
                if e is not None:
                    exposures[bucket][week - 1] = e
            elif m is not None and m > 0:
                exposures[bucket][week - 1] = derive_weekly_exposure(d, m)
    return BucketedWeeklySeries(
        country=s_country, gender=s_gender, year=s_year, week_count=week_count,
        deaths=deaths, exposures=exposures, death_rates=rates,
        exposure_origin=origin,
    )


def write_weekly_csv(path, series: BucketedWeeklySeries, source_shape: str,
                     *, append=False):
    """Emit a weekly series in STMF or EUROW schema (fixture support)."""
    if source_shape not in WEEKLY_SHAPES:
        raise ValidationError(f"unknown weekly shape {source_shape!r}")
    path = Path(path)
    mode = "a" if append and path.exists() else "w"
    with_exposure = source_shape == "STMF" and series.exposures is not None
    with path.open(mode, newline="") as handle:
        writer = csv.writer(handle)
        if mode == "w":
            if source_shape == "STMF":
                header = STMF_HEADER + (("exposure",) if with_exposure else ())
            else:
                header = EUROW_HEADER
            writer.writerow(header)
        for bucket in sorted(series.deaths):
            for week in range(1, series.week_count + 1):
                d = series.deaths[bucket][week - 1]
                row = [series.country, series.year, week, series.gender,
                       bucket.label, format(float(d), ".17g")]
                if source_shape == "STMF":
                    if series.death_rates is not None:
                        m = series.death_rates[bucket][week - 1]
                    else:
                        m = d / series.exposures[bucket][week - 1]
                    row.append("" if np.isnan(m) else format(float(m), ".17g"))
                    if with_exposure:
                        e = series.exposures[bucket][week - 1]
                        row.append(format(float(e), ".17g"))
                writer.writerow(row)


# ---------------------------------------------------------------------------
# Weekly-to-annual conversion
# ---------------------------------------------------------------------------

def _require_complete(series: BucketedWeeklySeries, table, name):
    for bucket in sorted(table):
        holes = np.flatnonzero(np.isnan(table[bucket]))
        if holes.size:
            weeks = ", ".join(str(w + 1) for w in holes[:5])
            raise ValidationError(
                f"{series.country}/{series.gender} {series.year}: {name} missing for "
                f"bucket {bucket.label}, week(s) {weeks}"
                + ("..." if holes.size > 5 else "")
            )


def annualize_weekly_deaths(series: BucketedWeeklySeries) -> BucketedAnnualSeries:
    """Sum weekly deaths; 53-week years are rescaled by 52/53 after summing."""
    _require_complete(series, series.deaths, "deaths")
    factor = REGULAR_WEEKS / series.week_count
    totals = {b: factor * float(np.sum(arr)) for b, arr in series.deaths.items()}
    return BucketedAnnualSeries(series.country, series.gender, series.year,
                                deaths=totals)


def annualize_weekly_exposure(series: BucketedWeeklySeries) -> BucketedAnnualSeries:
    """Annual exposure = 52 * the constant weekly exposure, also in 53-week years.

    The weekly values must be constant to relative 1e-6; STMF back-derives
    them from a constant annual figure, so any wobble signals broken input.
    """
    if series.exposures is None:
        raise ValidationError(
            f"{series.country}/{series.gender} {series.year}: series has no exposures"
        )
    _require_complete(series, series.exposures, "exposure")
    totals = {}
    for bucket, arr in sorted(series.exposures.items()):
        ref = float(arr[0])
        if np.any(np.abs(arr - ref) > EXPOSURE_CONSTANCY_RTOL * abs(ref)):
            raise ValidationError(
                f"{series.country}/{series.gender} {series.year}: weekly exposure "
                f"not constant in bucket {bucket.label}"
            )
        totals[bucket] = REGULAR_WEEKS * ref
    return BucketedAnnualSeries(series.country, series.gender, series.year,
                                exposures=totals)


def aggregate_uk(constituents) -> BucketedWeeklySeries:
    """Cell-wise sum of Northern Ireland, England & Wales and Scotland.

    All constituents must share year, gender, week count and bucket
    structure, with no missing weeks.  Death rates are recomputed from the
    summed counts when exposures are available everywhere.
    """
    series = list(constituents)
    if len(series) < 2:
        raise ValidationError("UK aggregation needs at least two constituents")
    first = series[0]
    for other in series[1:]:
        if (other.year, other.gender, other.week_count) != (
            first.year, first.gender, first.week_count
        ):
            raise ValidationError("constituents disagree on year/gender/week count")
        if set(other.deaths) != set(first.deaths):
            raise ValidationError("constituents disagree on bucket structure")
    for s in series:
        _require_complete(s, s.deaths, "deaths")
    have_exposures = all(s.exposures is not None for s in series)
    if have_exposures:
        for s in series:
            _require_complete(s, s.exposures, "exposure")
    deaths = {
        b: np.sum([s.deaths[b] for s in series], axis=0) for b in first.deaths
    }
    exposures = None
    rates = None
    if have_exposures:
        exposures = {
            b: np.sum([s.exposures[b] for s in series], axis=0) for b in first.deaths
        }
        rates = {b: deaths[b] / exposures[b] for b in deaths}
    return BucketedWeeklySeries(
        country=UK_CODE, gender=first.gender, year=first.year,
        week_count=first.week_count, deaths=deaths, exposures=exposures,
        death_rates=rates,
        exposure_origin=series[0].exposure_origin if have_exposures else None,
    )


# ---------------------------------------------------------------------------
# Eurostat / STMF cross-source check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of rolling EUROW buckets up to STMF buckets and comparing."""

    comparable: bool
    consistent: bool
    mismatches: tuple
    detail: str = ""


def _eurow_cover(stmf_bucket: AgeBucket) -> tuple[AgeBucket, ...]:
    """EUROW buckets that tile one STMF bucket (85+ = [85,89] + 90+)."""
    if stmf_bucket.is_open:
        return tuple(b for b in EUROW_BUCKETS
                     if b.lower >= stmf_bucket.lower)
    return tuple(b for b in EUROW_BUCKETS
                 if not b.is_open
                 and b.lower >= stmf_bucket.lower and b.upper <= stmf_bucket.upper)


def check_eurostat_stmf_consistency(
    euro: BucketedWeeklySeries, stmf: BucketedWeeklySeries,
    rel_tol: float = 1e-3, abs_slack: float = 1.0,
) -> ConsistencyReport:
    """Compare EUROW weekly deaths, rolled up to STMF buckets, per week.

    Counts agree when |euro - stmf| <= abs_slack + rel_tol * max(|counts|);
    the absolute slack absorbs sub-one rounding in published counts.
    Inconsistency is an outcome, not an error.
    """
    if euro.week_count != stmf.week_count:
        return ConsistencyReport(False, False, (),
                                 detail="differing week counts")
    euro_buckets = set(euro.deaths)
    mismatches = []
    for stmf_bucket in sorted(stmf.deaths):
        cover = _eurow_cover(stmf_bucket)
        if not cover or not set(cover) <= euro_buckets:
            missing = [b.label for b in cover if b not in euro_buckets]
            return ConsistencyReport(
                False, False, (),
                detail=f"EUROW buckets do not refine {stmf_bucket.label}; "
                       f"missing {missing or 'all'}",
            )
        euro_total = np.sum([euro.deaths[b] for b in cover], axis=0)
        stmf_total = stmf.deaths[stmf_bucket]
        for week in range(1, euro.week_count + 1):
            e, s = euro_total[week - 1], stmf_total[week - 1]
            if np.isnan(e) or np.isnan(s):
                continue
            if abs(e - s) > abs_slack + rel_tol * max(abs(e), abs(s)):
                mismatches.append((stmf_bucket.label, week, float(e), float(s)))
    return ConsistencyReport(True, not mismatches, tuple(mismatches))
