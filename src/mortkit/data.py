"""Mortality data types, CSV ingestion and weekly-to-annual conversion.

Three individual-age CSV shapes (HMD, EURO, STATBEL) share one schema;
two weekly bucketed shapes (STMF, EUROW) cover pandemic-era years that
lack individual-age publications.  Weekly data are annualized with the
52/53 ISO-week rule for deaths and the constant-weekly-exposure rule for
exposures.  UK data arrive as three constituents and are aggregated here.
"""
from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

GENDERS = ("M", "F")

#: Admissible provenance names for individual-age cells; surfaces and
#: fragments store the index of a name, and the CSV files the name.
PROVENANCE_CODES = ("HMD", "EURO", "STATBEL", "STMF", "EUROW", "VIRTUAL")

#: Code of the cells that ungrouping filled.
VIRTUAL = PROVENANCE_CODES.index("VIRTUAL")

#: The two quantities of a cell: source declarations name them, and a
#: SurfaceFragment record holds the index of one.
QUANTITIES = ("deaths", "exposures")

#: Highest age an individual-age file may carry; open buckets end here.
MAX_FILE_AGE = 110

#: Oldest age of any age range and after closure; life tables end here.
MAX_AGE = 120

#: Largest central death rate d/E accepted as plausible data.
RATE_SANITY_BOUND = 5.0

#: Relative tolerance for the weekly identity death_rate * exposure = deaths,
#: checked where an STMF file has an exposure column.
RATE_IDENTITY_RTOL = 1e-6

#: EUROW and STMF weekly deaths agree within CONSISTENCY_SLACK plus
#: CONSISTENCY_RTOL times the larger count; the slack absorbs sub-one
#: rounding in published counts.
CONSISTENCY_RTOL = 1e-3
CONSISTENCY_SLACK = 1.0

#: Relative tolerance for the constant-weekly-exposure check.
EXPOSURE_CONSTANCY_RTOL = 1e-6

#: Weeks in a regular ISO year; annual exposure is 52 * weekly exposure
#: regardless of week count, while deaths get the 52/week_count factor.
REGULAR_WEEKS = 52

#: Week counts of an ISO year.
WEEK_COUNTS = (52, 53)

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
    """Inclusive integer age interval, bounded by 0 and `MAX_AGE`."""

    min_age: int
    max_age: int

    def __post_init__(self):
        if not (0 <= self.min_age <= self.max_age <= MAX_AGE):
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

#: Each weekly shape's buckets by label: a file's label is looked up, not parsed.
_BUCKET_LABELS = {shape: {bucket.label: bucket for bucket in buckets}
                  for shape, buckets in (("STMF", STMF_BUCKETS), ("EUROW", EUROW_BUCKETS))}


# ---------------------------------------------------------------------------
# Weekly and annual bucketed series
# ---------------------------------------------------------------------------

def _check_gender(gender: str):
    if gender not in GENDERS:
        raise ValidationError(f"gender must be one of {GENDERS}, got {gender!r}")


@dataclass(frozen=True)
class BucketedWeeklySeries:
    """Weekly bucketed counts for one (country, year, gender).

    Per-bucket arrays are indexed by week-1 and complete: a week left
    empty (NaN) is refused here, so no reader checks for holes again.
    `exposure_origin` records whether exposures came from an explicit
    column ("column"), were derived as deaths/death_rate ("derived") or,
    in a UK aggregate, came from constituents that differ ("mixed").
    A series holds no death rates: the loader turns them into exposures.
    """

    country: str
    gender: str
    year: int
    week_count: int
    deaths: dict[AgeBucket, np.ndarray]
    exposures: dict[AgeBucket, np.ndarray] | None = None
    exposure_origin: str | None = None

    def __post_init__(self):
        _check_gender(self.gender)
        if self.week_count not in WEEK_COUNTS:
            raise ValidationError(
                f"week count must be 52 or 53, got {self.week_count}"
            )
        for name, table in (("deaths", self.deaths), ("exposure", self.exposures)):
            for bucket in sorted(table or ()):
                arr = table[bucket]
                if arr.shape != (self.week_count,):
                    raise ValidationError(
                        f"{name}[{bucket}] has shape {arr.shape}, "
                        f"expected ({self.week_count},)"
                    )
                holes = np.flatnonzero(np.isnan(arr))
                if holes.size:
                    raise ValidationError(
                        f"{self.country}/{self.gender} {self.year}: {name} missing for "
                        f"bucket {bucket.label}, week(s) "
                        + ", ".join(str(w + 1) for w in holes[:5])
                        + ("..." if holes.size > 5 else ""))
        for bucket, arr in self.deaths.items():
            if np.any(arr < 0):
                raise ValidationError(f"negative deaths in bucket {bucket}")
        for bucket, arr in (self.exposures or {}).items():
            if np.any(arr <= 0):
                raise ValidationError(f"nonpositive exposure in bucket {bucket}")


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


# ---------------------------------------------------------------------------
# Individual-age surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MortalitySurface:
    """Complete rectangular deaths/exposures grid for one (country, gender).

    Arrays are indexed [age, year].  Provenance is tracked separately for
    deaths and exposures because a single cell can mix sources (observed
    deaths next to ungrouped exposures); it is held as int8 codes into
    PROVENANCE_CODES.
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
            codes = getattr(self, name)
            if not (codes.dtype == np.int8 and codes.min() >= 0
                    and codes.max() < len(PROVENANCE_CODES)):
                raise ValidationError(
                    f"{name} must hold int8 codes 0..{len(PROVENANCE_CODES) - 1}")

    def virtual_cell_count(self) -> dict[str, int]:
        return {
            "deaths": int(np.sum(self.deaths_provenance == VIRTUAL)),
            "exposures": int(np.sum(self.exposures_provenance == VIRTUAL)),
        }


class SurfaceFragment:
    """Partial individual-age data, one record per (cell, quantity).

    Parallel record arrays in insertion order: `country` (index into
    `countries`), `gender` (into GENDERS), `age`, `year`, `quantity` (into
    QUANTITIES), `value` and `provenance` (into PROVENANCE_CODES).
    Deaths and exposures of one cell may come from different files.
    """

    COLUMNS = {"country": np.int64, "gender": np.int8, "age": np.int64,
               "year": np.int64, "quantity": np.int8, "value": np.float64,
               "provenance": np.int8}

    def __init__(self, countries=(), **columns):
        self.countries = tuple(countries)
        for name, dtype in self.COLUMNS.items():
            setattr(self, name, np.asarray(columns.get(name, ()), dtype=dtype))
        if len({getattr(self, name).shape for name in self.COLUMNS}) != 1:
            raise ValidationError("fragment columns differ in length")

    def restrict(self, countries=None, genders=None, years=None, quantities=None,
                 min_age=0) -> "SurfaceFragment":
        """Records at ages >= min_age whose country, gender and quantity are
        among those given and whose year is in the `range` of consecutive
        years `years`; used to apply a config's per-(country, years,
        quantity) source declarations.  Each code column indexes a boolean
        table with one entry per name."""
        keep = self.age >= min_age
        for column, names, wanted in ((self.country, self.countries, countries),
                                      (self.gender, GENDERS, genders),
                                      (self.quantity, QUANTITIES, quantities)):
            if wanted is not None:
                keep &= np.array([name in wanted for name in names], dtype=bool)[column]
        if years is not None:
            keep &= (self.year >= years.start) & (self.year < years.stop)
        if keep.all():
            keep = slice(None)  # views of every record, not copies
        return SurfaceFragment(self.countries, **{
            name: getattr(self, name)[keep] for name in self.COLUMNS})

    def update(self, *others: "SurfaceFragment"):
        """Append the records of each of `others`, in order."""
        parts = (self,) + others
        names = list(dict.fromkeys(c for part in parts for c in part.countries))
        country = [np.array([names.index(c) for c in part.countries],
                            dtype=np.int64)[part.country] for part in parts]
        for name in self.COLUMNS:
            setattr(self, name, np.concatenate(
                country if name == "country" else [getattr(p, name) for p in parts]))
        self.countries = tuple(names)

    def deaths_tail(self, country, gender, year, min_age) -> np.ndarray:
        """Death counts at ages >= min_age for one year, age-ascending."""
        tail = self.restrict({country}, {gender}, range(year, year + 1), {"deaths"},
                             min_age)
        if not tail.value.size:
            raise ValidationError(
                f"no deaths at ages >= {min_age} for {country}/{gender} in {year}"
            )
        return tail.value[np.argsort(tail.age, kind="stable")]


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

def _read_csv(path):
    """The path, the stripped header fields and the file's text as one
    stream, positioned after the header, which every reader of the rows
    reads in place."""
    path = Path(path)
    with path.open(newline="") as handle:
        source = io.StringIO(handle.read(), newline="")
    first = next(csv.reader(source), None)
    if first is None:
        raise ParseError(f"{path}: empty file")
    return path, tuple(h.strip() for h in first), source


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


#: Row layout of the one-call parse.  Every string field is one character
#: wider than any value the fast path accepts, so a value filling the
#: width marks a truncation.
_ROW_DTYPE = np.dtype([("country", "U8"), ("year", np.int64), ("gender", "U2"),
                       ("age", np.int64), ("deaths", np.float64),
                       ("exposure", np.float64), ("provenance", "U8")])


def load_individual_age_csv(path, source_shape: str) -> SurfaceFragment:
    """Read an individual-age file into a fragment.

    Header: country,year,gender,age,deaths,exposure with an optional
    trailing provenance column (written by `write_individual_age_csv`).  The
    exposure field may be empty for deaths-only publications.  The data
    rows are parsed in one `np.loadtxt` call; a file that call cannot
    provably read as the row loop would is read row by row, which is also
    where every `file:line` error comes from.
    """
    if source_shape not in INDIVIDUAL_SHAPES:
        raise ValidationError(f"unknown individual-age shape {source_shape!r}")
    path, header, source = _read_csv(path)
    if header[:6] != INDIVIDUAL_HEADER:
        raise ParseError(f"{path}:1: expected header {','.join(INDIVIDUAL_HEADER)}")
    has_prov = len(header) > 6 and header[6] == "provenance"
    rows_start = source.tell()
    fragment = _parse_rows_at_once(source, has_prov, source_shape)
    if fragment is None:
        source.seek(rows_start)
        fragment = _parse_rows_one_by_one(path, csv.reader(source), has_prov,
                                          source_shape)
    return fragment


def _parse_rows_at_once(source, has_prov: bool, source_shape: str):
    """The data rows of the stream `source` parsed by one `np.loadtxt` call,
    or None unless that call provably read what the row loop reads and
    every row passes the row loop's checks.  loadtxt silently truncates
    strings to the dtype width, keeps padding, drops trailing NULs, cannot
    read an empty field as a number, warns on a file without rows and, in
    older numpy releases, reads an integer field such as "1.5" through
    float with only a DeprecationWarning (any warning refuses the parse);
    with csv's quoting and line splitting it otherwise agrees."""
    if "\x00" in source.getvalue():
        return None
    names = _ROW_DTYPE.names[:7 if has_prov else 6]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(source, dtype=_ROW_DTYPE[list(names)], delimiter=",",
                               comments=None, quotechar='"', ndmin=1,
                               usecols=range(len(names)))
    except (ValueError, Warning):
        return None
    age, deaths, exposure = table["age"], table["deaths"], table["exposure"]
    provenance = table["provenance"] if has_prov else np.full(len(table), source_shape)
    if not (np.all((age >= 0) & (age <= MAX_FILE_AGE))
            and np.all(np.isfinite(deaths) & (deaths >= 0))
            and np.all(np.isfinite(exposure) & (exposure > 0))):
        return None
    fragment = _fragment_of_rows(table["country"], table["year"], table["gender"], age,
                                 deaths, exposure, provenance)
    if (any(len(name) >= 8 or name.strip() != name for name in fragment.countries)
            or np.any(fragment.gender < 0) or np.any(fragment.provenance < 0)
            or _repeats(fragment)):
        return None
    return fragment


def _repeats(fragment) -> bool:
    """Whether `fragment` gives a (cell, quantity) twice, found by one plain
    sort of one int64 key per record: each column offset by its minimum
    and packed by its range.  Keys that would not fit in int64 (a very
    wide range of years) answer True, which sends the file to the row
    loop."""
    key, size = np.zeros(len(fragment.value), dtype=np.int64), 1
    for column in (fragment.country, fragment.gender, fragment.age, fragment.year,
                   fragment.quantity):
        lo = int(column.min())
        span = int(column.max()) - lo + 1
        size *= span
        if size >= 2**63:
            return True
        key *= span
        key += column
        key -= lo  # int64 arithmetic: any wrap of the sum is undone here
    ordered = np.sort(key)
    return bool(np.any(ordered[1:] == ordered[:-1]))


def _parse_rows_one_by_one(path, rows, has_prov, source_shape) -> SurfaceFragment:
    """The row loop: the reference for the one-call parse, and the only
    source of `file:line` errors."""
    records = []
    seen = set()
    for lineno, row in enumerate(rows, start=2):
        if not "".join(row).strip():
            continue
        if len(row) < 6:
            raise ParseError(f"{path}:{lineno}: expected >= 6 fields, got {len(row)}")
        country = row[0].strip()
        year = _parse_int(row[1], "year", path, lineno)
        if not -2**63 <= year < 2**63:
            raise ParseError(f"{path}:{lineno}: year {year} out of range")
        gender = row[2].strip()
        if gender not in GENDERS:
            raise ParseError(f"{path}:{lineno}: gender must be one of {GENDERS}")
        age = _parse_int(row[3], "age", path, lineno)
        if not 0 <= age <= MAX_FILE_AGE:
            raise ParseError(f"{path}:{lineno}: age {age} outside 0..{MAX_FILE_AGE}")
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
        if (country, gender, age, year) in seen:
            raise ParseError(f"{path}:{lineno}: duplicate deaths for {country}/{gender} "
                             f"age {age} year {year}")
        seen.add((country, gender, age, year))
        records.append((country, year, gender, age, deaths,
                        np.nan if exposure is None else exposure, prov))
    if not records:
        return SurfaceFragment()
    return _fragment_of_rows(*(np.array(column) for column in zip(*records)))


def _fragment_of_rows(country, year, gender, age, deaths, exposure, provenance):
    """One file's rows as records: each row's deaths, then its exposure
    unless that is NaN (empty).  Gender and provenance are coded against
    GENDERS and PROVENANCE_CODES, with -1 for a name outside them."""
    countries, country = _first_seen_codes(country)
    values = np.column_stack([deaths, exposure]).ravel()
    keep = ~np.isnan(values)

    def per_record(column):
        return np.repeat(column, 2)[keep]

    return SurfaceFragment(
        countries, country=per_record(country),
        gender=per_record(_codes(gender, GENDERS)), age=per_record(age),
        year=per_record(year), quantity=np.tile([0, 1], len(deaths))[keep],
        value=values[keep], provenance=per_record(_codes(provenance, PROVENANCE_CODES)),
    )


def _runs(names: np.ndarray):
    """The first index and the length of each run of equal neighbours in
    `names`: one comparison of neighbours, so callers work per run rather
    than per row."""
    starts = np.ones(len(names), dtype=bool)
    starts[1:] = names[1:] != names[:-1]
    starts = np.flatnonzero(starts)
    return starts, np.diff(starts, append=len(names))


def _codes(names: np.ndarray, table) -> np.ndarray:
    """Index into `table` of each of `names`, or -1 for a name it lacks,
    looked up once per run."""
    starts, lengths = _runs(names)
    index = {name: i for i, name in enumerate(table)}
    codes = [index.get(name, -1) for name in names[starts].tolist()]
    return np.repeat(np.array(codes, dtype=np.int8), lengths)


def _first_seen_codes(names: np.ndarray):
    """The distinct `names` in first-seen order and the index of each into
    them, found once per run."""
    starts, lengths = _runs(names)
    index = {}
    codes = [index.setdefault(name, len(index)) for name in names[starts].tolist()]
    return tuple(index), np.repeat(np.array(codes, dtype=np.int64), lengths)


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


def load_weekly_csv(path, source_shape: str, *, year=None, gender=None):
    """Read a weekly bucketed file into a single series.

    Optional year/gender filters select one series from files that
    interleave several; after filtering the keys must be unique.  A tuple
    of genders splits the file in one parse: the result then maps each of
    those genders to its series, and the keys must be unique per gender.
    STMF exposures come from the optional exposure column when present,
    otherwise from the death rates (`_weekly_series`).
    """
    if source_shape not in WEEKLY_SHAPES:
        raise ValidationError(f"unknown weekly shape {source_shape!r}")
    path, header, source = _read_csv(path)
    base = STMF_HEADER if source_shape == "STMF" else EUROW_HEADER
    if header[: len(base)] != base:
        raise ParseError(f"{path}:1: expected header starting {','.join(base)}")
    has_exposure = source_shape == "STMF" and len(header) > 7 and header[7] == "exposure"
    labels = _BUCKET_LABELS[source_shape]
    split = isinstance(gender, tuple)
    wanted = gender if split else (gender,)

    # Per series slot (the gender when splitting, else None): its key and
    # its {(bucket, week): (deaths, rate, exposure)} records.
    keys = {}
    records = {}
    for lineno, row in enumerate(csv.reader(source), start=2):
        if not "".join(row).strip():
            continue
        if len(row) < len(base):
            raise ParseError(f"{path}:{lineno}: expected >= {len(base)} fields")
        row_country = row[0].strip()
        row_year = _parse_int(row[1], "year", path, lineno)
        week = _parse_int(row[2], "week", path, lineno)
        row_gender = row[3].strip()
        if row_gender not in GENDERS:
            raise ParseError(f"{path}:{lineno}: gender must be one of {GENDERS}")
        if year is not None and row_year != year:
            continue
        if gender is not None and row_gender not in wanted:
            continue
        bucket = labels.get(row[4].strip())
        if bucket is None:
            raise ParseError(f"{path}:{lineno}: bucket {row[4].strip()!r} not valid "
                             f"for {source_shape}")
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
        slot = row_gender if split else None
        if keys.setdefault(slot, key) != key:
            raise ParseError(
                f"{path}: multiple series {sorted({keys[slot], key})}; "
                "pass year/gender filters"
            )
        cells = records.setdefault(slot, {})
        if (bucket, week) in cells:
            raise ParseError(
                f"{path}:{lineno}: duplicate row for bucket {bucket.label}, week {week}"
            )
        cells[bucket, week] = (deaths, rate, exposure)

    series = {}
    for slot in (wanted if split else (None,)):
        if slot not in records:
            raise ParseError(f"{path}: no rows match the requested series")
        try:
            series[slot] = _weekly_series(keys[slot], records[slot], source_shape,
                                          has_exposure)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    return series if split else series[None]


def _weekly_series(key, records, source_shape, has_exposure) -> BucketedWeeklySeries:
    """One series from its (country, year, gender) key and its records.

    The one place STMF's weekly death rates m are read.  Without an
    exposure column the exposures are d / m wherever m > 0, and a week
    with no deaths at rate 0 takes the bucket's first such value; with
    one, m * E = d is checked once the series has passed its own checks.
    """
    s_country, s_year, s_gender = key
    week_count = max(week for _, week in records)
    buckets = sorted({bucket for bucket, _ in records})
    deaths, rates, exposures = ({b: np.full(week_count, np.nan) for b in buckets}
                                for _ in range(3))
    for (bucket, week), (d, m, e) in records.items():
        deaths[bucket][week - 1] = d
        if m is not None:
            rates[bucket][week - 1] = m
        if e is not None:
            exposures[bucket][week - 1] = e
    if source_shape == "EUROW":
        return BucketedWeeklySeries(country=s_country, gender=s_gender, year=s_year,
                                    week_count=week_count, deaths=deaths)
    if not has_exposure:
        for bucket in buckets:
            d, m, e = deaths[bucket], rates[bucket], exposures[bucket]
            rated = m > 0
            e[rated] = d[rated] / m[rated]  # from the definition m = d / E
            if rated.any():
                e[(m == 0) & (d == 0)] = e[rated][0]
    series = BucketedWeeklySeries(
        country=s_country, gender=s_gender, year=s_year, week_count=week_count,
        deaths=deaths, exposures=exposures,
        exposure_origin="column" if has_exposure else "derived",
    )
    if has_exposure:
        for bucket in buckets:
            d = deaths[bucket]
            # False in any week without a rate
            wrong = np.abs(rates[bucket] * exposures[bucket] - d) \
                > RATE_IDENTITY_RTOL * np.maximum(1.0, np.abs(d))
            if wrong.any():
                raise ValidationError(
                    f"death_rate * exposure != deaths in bucket {bucket} "
                    f"(first offending week {int(np.argmax(wrong)) + 1})"
                )
    return series


def write_weekly_csv(path, series, source_shape: str):
    """Emit weekly series in STMF or EUROW schema (fixture support): one
    header, then every series of the sequence `series` in order.  STMF
    rows give the rate deaths / exposure, and the exposure column exactly
    when the series' exposures came from one (`exposure_origin` "column")."""
    if source_shape not in WEEKLY_SHAPES:
        raise ValidationError(f"unknown weekly shape {source_shape!r}")
    stmf = source_shape == "STMF"
    carried = {stmf and s.exposure_origin == "column" for s in series}
    if len(carried) > 1:
        raise ValidationError("weekly series disagree on carrying exposures")
    with_exposure = carried == {True}
    if stmf:
        header = STMF_HEADER + (("exposure",) if with_exposure else ())
    else:
        header = EUROW_HEADER
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for one in series:
            for bucket in sorted(one.deaths):
                for week in range(1, one.week_count + 1):
                    d = one.deaths[bucket][week - 1]
                    row = [one.country, one.year, week, one.gender,
                           bucket.label, format(float(d), ".17g")]
                    if stmf:
                        e = one.exposures[bucket][week - 1]
                        row.append(format(float(d / e), ".17g"))
                        if with_exposure:
                            row.append(format(float(e), ".17g"))
                    writer.writerow(row)


# ---------------------------------------------------------------------------
# Weekly-to-annual conversion
# ---------------------------------------------------------------------------

def annualize_weekly_deaths(series: BucketedWeeklySeries) -> BucketedAnnualSeries:
    """Sum weekly deaths; 53-week years are rescaled by 52/53 after summing."""
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
    structure.  The exposures' origin is the constituents' when they all
    share it, else "mixed".
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
    deaths = {
        b: np.sum([s.deaths[b] for s in series], axis=0) for b in first.deaths
    }
    exposures = origin = None
    if all(s.exposures is not None for s in series):
        exposures = {
            b: np.sum([s.exposures[b] for s in series], axis=0) for b in first.deaths
        }
        origins = {s.exposure_origin for s in series}
        origin = origins.pop() if len(origins) == 1 else "mixed"
    return BucketedWeeklySeries(
        country=UK_CODE, gender=first.gender, year=first.year,
        week_count=first.week_count, deaths=deaths, exposures=exposures,
        exposure_origin=origin,
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


def check_eurostat_stmf_consistency(euro: BucketedWeeklySeries,
                                    stmf: BucketedWeeklySeries) -> ConsistencyReport:
    """Compare EUROW weekly deaths, rolled up to STMF buckets, per week.

    Counts agree when |euro - stmf| <= CONSISTENCY_SLACK + CONSISTENCY_RTOL
    * max(|counts|).  Inconsistency is an outcome, not an error.
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
        larger = np.maximum(np.abs(euro_total), np.abs(stmf_total))
        wrong = np.abs(euro_total - stmf_total) > CONSISTENCY_SLACK + CONSISTENCY_RTOL * larger
        mismatches += [(stmf_bucket.label, int(w) + 1, float(euro_total[w]),
                        float(stmf_total[w])) for w in np.flatnonzero(wrong)]
    return ConsistencyReport(True, not mismatches, tuple(mismatches))
