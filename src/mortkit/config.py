"""Declarative run configuration: schema, parsing and validation.

A run config is one YAML file declaring the country of interest, the
common pool, the calibration window, an explicit per-(country, year,
quantity) source matrix, the method grid, the simulation spec and the
output directory.  Sources are declared for run countries only, one per
(country, year, quantity) and one weekly declaration per (country, year, shape);
overlap, window gaps and a repeated weekly shape are refused up front.
`load_yaml` and `read_section` read both YAML documents, the run config
and the fixture params, so each refuses a malformed value the same way.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .data import (AgeRange, YearRange, INDIVIDUAL_SHAPES, MAX_AGE, QUANTITIES,
                   UK_CODE, WEEKLY_SHAPES)
from .errors import ConfigError
from .lilee import ADJUSTED_LEE_MILLER
from .project import KANNISTO_FIT_HI, KANNISTO_FIT_LO
from .ungroup import DEATH_ALLOCATION_RATE, UNGROUPING_AGES

WEIGHTED_LIKELIHOOD = "WEIGHTED_LIKELIHOOD"
METHOD_KINDS = (WEIGHTED_LIKELIHOOD, ADJUSTED_LEE_MILLER)

#: The safe YAML loader, in C where PyYAML was built with libyaml.
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class SourceDecl:
    """One source file and the (country, years, quantities) it supplies.

    `paths` usually holds one file; several files mark UK-style
    constituents that are aggregated cell-wise into country UNK before use
    (weekly only).
    """

    paths: tuple
    shape: str
    country: str
    years: YearRange
    quantities: tuple

    @property
    def weekly(self) -> bool:
        return self.shape in WEEKLY_SHAPES

    @property
    def path(self) -> Path:
        return self.paths[0]


@dataclass(frozen=True)
class RunConfig:
    country_of_interest: str
    common_pool: tuple
    ages: AgeRange
    years: YearRange
    individual_sources: tuple
    weekly_sources: tuple
    aux_start_year: dict
    aux_pool: tuple
    death_allocation_rate: dict
    reference_year: dict
    method_kind: str
    method_grid: tuple
    n_paths: int
    horizon: int
    seed: int
    report_ages: tuple
    cohort_ages: tuple
    output_dir: Path

    def with_overrides(self, seed=None, output_dir=None) -> "RunConfig":
        out = self
        if seed is not None:
            out = replace(out, seed=int(seed))
        if output_dir is not None:
            out = replace(out, output_dir=Path(output_dir))
        return out

    @property
    def countries(self) -> tuple:
        extra = () if self.country_of_interest in self.common_pool \
            else (self.country_of_interest,)
        return self.common_pool + extra


def _as(kind, value, key, where):
    """`value` of `key` in `where` read by `kind`, refused as a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value {value!r} for {key!r} in {where}") from exc


def load_yaml(path, what: str) -> dict:
    """The mapping in the YAML file at `path`, called the `what` in
    messages; an empty file is an empty mapping.  A file that cannot be
    read or parsed, or holds another value, is a one-line ConfigError
    naming it."""
    path = Path(path)
    try:
        with path.open() as handle:
            doc = yaml.load(handle, Loader=_SAFE_LOADER)
    except (OSError, yaml.YAMLError) as exc:
        problem = " ".join(str(exc).split())
        raise ConfigError(f"cannot read {what} {path}: {problem}") from exc
    if not isinstance(doc, (dict, type(None))):
        raise ConfigError(f"{path}: {what} must be a mapping")
    return doc or {}


def read_section(node, where: str, spec: dict) -> dict:
    """The values of the YAML mapping `node`, called `where` in messages, by
    `spec`: key -> kind if required, (kind, default) if optional.  A kind
    turns a YAML value into the value read, raising TypeError or ValueError
    on one it cannot take.  An absent or null optional key takes its
    default, read by its kind, or is left out when that is None.  A
    non-mapping, an unknown or missing key and a value its kind refuses are
    each a ConfigError: a misspelt key would leave its default in force."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping")
    for key in node:
        if key not in spec:
            raise ConfigError(f"unknown key {key!r} in {where}")
    values = {}
    for key, entry in spec.items():
        kind, *default = entry if isinstance(entry, tuple) else (entry,)
        value = node.get(key)
        if value is None and default:
            if default[0] is None:
                continue
            value = default[0]
        elif key not in node:
            raise ConfigError(f"missing key {key!r} in {where}")
        values[key] = _as(kind, value, key, where)
    return values


def section(where: str, spec: dict, build=None):
    """The kind reading a YAML mapping as the section `where` by `spec`:
    the values read, or `build` called with them in `spec`'s order."""
    def read(node):
        values = read_section(node, where, spec)
        return values if build is None else build(*values.values())
    return read


def raw(value):
    """A YAML value as it stands, for a section its caller reads next."""
    return value


def only(cls):
    """The kind taking a YAML value of the Python type `cls` as it stands
    and no other: a number where a name belongs, a bare NO (false) where a
    country belongs or the string "false" where a flag belongs is refused."""
    def read(value):
        if not isinstance(value, cls):
            raise TypeError(value)
        return value
    return read


def whole(value):
    """The kind taking a YAML integer as it stands and no other: a float
    such as 65.7 is refused, not cut to 65, and so is a boolean, which
    Python counts as an int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(value)
    return value


def real(value):
    """The kind reading a YAML number by float, as it does a string such as
    5e4, which PyYAML leaves a string; a boolean is refused, not read as
    1.0 or 0.0."""
    if isinstance(value, bool):
        raise TypeError(value)
    return float(value)


def sequence(kind=raw):
    """The kind reading a YAML sequence, and no lone item, into a tuple,
    each item by `kind`."""
    return lambda value: tuple(map(kind, only(list)(value)))


def mapping(kind):
    """The kind reading a YAML mapping of names into a dict, each value by
    `kind`."""
    return lambda value: {TEXT(name): kind(item)
                          for name, item in only(dict)(value).items()}


#: The kinds of a name or a path and of a flag, and the keys of an age
#: range and of a span of years.
TEXT, FLAG = only(str), only(bool)
AGES = {"min": whole, "max": whole}
YEARS = {"first": whole, "last": whole}


def _parse_source(entry, base: Path, index: int) -> SourceDecl:
    where = f"sources[{index}]"
    read = read_section(entry, where, {
        "shape": TEXT, "path": (TEXT, None), "paths": (sequence(TEXT), None),
        "country": TEXT, "year": (whole, None),
        "years": (section(f"{where}.years", YEARS, YearRange), None),
        "quantities": (sequence(TEXT), list(QUANTITIES))})
    for one, many in (("path", "paths"), ("year", "years")):
        if (one in read) == (many in read):
            both = ", not both" if one in read else ""
            raise ConfigError(f"{where}: give {one!r} or {many!r}{both}")
    shape, country, quantities = read["shape"], read["country"], read["quantities"]
    if shape not in INDIVIDUAL_SHAPES + WEEKLY_SHAPES:
        raise ConfigError(f"{where}: unknown shape {shape!r}")
    paths = tuple(base / p for p in (read["paths"] if "paths" in read else [read["path"]]))
    if len(paths) > 1 and shape not in WEEKLY_SHAPES:
        raise ConfigError(f"{where}: constituent lists are weekly-only")
    if len(paths) > 1 and country != UK_CODE:
        raise ConfigError(f"{where}: constituent aggregation produces country "
                          f"{UK_CODE}, declaration says {country}")
    years = read["years"] if "years" in read else YearRange(read["year"], read["year"])
    bad = set(quantities) - set(QUANTITIES)
    if bad or not quantities:
        raise ConfigError(f"{where}: quantities must be a nonempty subset of {QUANTITIES}")
    if shape == "EUROW" and "exposures" in quantities:
        raise ConfigError(f"{where}: EUROW files carry no exposures")
    weekly = shape in WEEKLY_SHAPES
    if weekly and len(years) != 1:
        raise ConfigError(f"{where}: weekly sources cover one year each")
    return SourceDecl(paths=paths, shape=shape, country=country,
                      years=years, quantities=quantities)


def _check_coverage(config: RunConfig):
    """Every declaration names a run country, one declaration supplies
    each (country, year, quantity) of the model window and of every
    declared year, and no two weekly declarations share a (country, year,
    shape).  An overlap starts in the first year of one of its
    declarations, so only those years are checked after the window's;
    each declaration is counted once in every checked year it covers."""
    decls = config.individual_sources + config.weekly_sources
    for decl in decls:
        if decl.country not in config.countries:
            raise ConfigError(f"{decl.path}: declared country {decl.country} is not "
                              f"in the run ({', '.join(config.countries)})")
    cells = [(country, year, quantity) for country in config.countries
             for year in range(config.years.first, config.years.last + 1)
             for quantity in QUANTITIES]
    cells += sorted({(d.country, d.years.first, q) for d in decls for q in d.quantities})
    checked = sorted({year for _, year, _ in cells})
    hits = Counter()
    for d in decls:
        covered = checked[bisect_left(checked, d.years.first):
                          bisect_right(checked, d.years.last)]
        hits.update((d.country, year, q) for year in covered for q in d.quantities)
    for country, year, quantity in cells:
        count = hits[country, year, quantity]
        if count != 1:
            what = "no source" if not count else f"{count} overlapping sources"
            raise ConfigError(
                f"{what} for ({country}, {year}, {quantity}); declare exactly one")
    weekly = Counter((d.country, d.years.first, d.shape) for d in config.weekly_sources)
    for (country, year, shape), count in weekly.items():
        if count > 1:
            raise ConfigError(f"duplicate weekly {shape} declaration for {country}/{year}")


def load_run_config(path) -> RunConfig:
    path = Path(path)
    return build_run_config(load_yaml(path, "config"), path.parent)


def build_run_config(doc: dict, base: Path) -> RunConfig:
    top = read_section(doc, "config", {
        "country_of_interest": TEXT, "common_pool": sequence(TEXT),
        "ages": section("ages", AGES, AgeRange), "years": section("years", YEARS, YearRange),
        "sources": section("sources", dict.fromkeys(("individual", "weekly"),
                                                    (sequence(), []))),
        "ungrouping": (raw, {}),
        "method": section("method", {"kind": TEXT, "grid": sequence(real)}),
        "simulation": section("simulation", dict.fromkeys(("n_paths", "horizon", "seed"),
                                                          whole)),
        "report": (section("report", {"ages": (sequence(whole), [0, 65]),
                                      "cohort_ages": (sequence(whole), [])}), {}),
        "output_dir": (TEXT, "out")})
    country, pool, ages, years = (top["country_of_interest"], top["common_pool"],
                                  top["ages"], top["years"])
    if not pool:
        raise ConfigError("common_pool must not be empty")
    if not (ages.min_age <= KANNISTO_FIT_LO and KANNISTO_FIT_HI <= ages.max_age):
        raise ConfigError(f"model ages {ages} must contain the Kannisto fit ages "
                          f"{KANNISTO_FIT_LO}..{KANNISTO_FIT_HI}")
    if len(years) < 3:
        raise ConfigError("calibration window must span at least three years")

    entries = top["sources"]["individual"] + top["sources"]["weekly"]
    decls = [_parse_source(entry, base, i) for i, entry in enumerate(entries)]
    individual = tuple(decl for decl in decls if not decl.weekly)
    weekly = tuple(decl for decl in decls if decl.weekly)
    if weekly and ages != UNGROUPING_AGES:
        raise ConfigError(f"ungrouping protocols require the {UNGROUPING_AGES.min_age}"
                          f"..{UNGROUPING_AGES.max_age} age range")

    run_countries = pool + (country,)
    ung = read_section(top["ungrouping"], "ungrouping", {
        "aux_start_year": (raw, years.first), "aux_pool": (sequence(TEXT), list(pool)),
        "death_allocation_rate": (raw, {}), "reference_year": (raw, {})})
    if isinstance(ung["aux_start_year"], dict):
        aux_start = read_section(ung["aux_start_year"], "ungrouping.aux_start_year", {
            "default": (whole, years.first), **dict.fromkeys(run_countries, (whole, None))})
    else:
        aux_start = {"default": _as(whole, ung["aux_start_year"], "aux_start_year",
                                    "ungrouping")}
    rates = read_section(ung["death_allocation_rate"], "ungrouping.death_allocation_rate",
                         {gender: (real, rate)
                          for gender, rate in DEATH_ALLOCATION_RATE.items()})
    for gender, rate in rates.items():
        if not 0.0 < rate <= 1.0:
            raise ConfigError(f"death allocation rate for {gender} outside (0, 1]")
    reference_year = read_section(ung["reference_year"], "ungrouping.reference_year",
                                  dict.fromkeys(run_countries, (whole, None)))

    kind = top["method"]["kind"].upper()
    if kind not in METHOD_KINDS:
        raise ConfigError(f"method kind must be one of {METHOD_KINDS}, got {kind!r}")
    grid = top["method"]["grid"]
    if not grid:
        raise ConfigError("method grid must not be empty")
    if any(not 0.0 <= v <= 1.0 for v in grid):
        raise ConfigError("method grid values must lie in [0, 1]")
    if len(set(grid)) != len(grid):
        raise ConfigError("method grid values must be distinct")

    n_paths, horizon, seed = top["simulation"].values()
    if horizon <= years.last:
        raise ConfigError(f"horizon {horizon} must exceed the calibration end {years.last}")
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")

    report_ages, cohort_ages = top["report"].values()
    for key, listed in (("ages", report_ages), ("cohort_ages", cohort_ages)):
        if len(set(listed)) != len(listed):
            raise ConfigError(f"report {key} must be distinct")
    for age in report_ages + cohort_ages:
        if not ages.min_age <= age <= ages.max_age:
            raise ConfigError(f"report age {age} outside the model ages {ages}")
    for age in cohort_ages:
        needed = years.last + (MAX_AGE - age)
        if horizon < needed:
            raise ConfigError(
                f"cohort life expectancy at age {age} needs horizon >= {needed}, "
                f"got {horizon}; extend the simulation"
            )

    config = RunConfig(
        country_of_interest=country, common_pool=pool, ages=ages, years=years,
        individual_sources=individual, weekly_sources=weekly,
        aux_start_year=aux_start, aux_pool=ung["aux_pool"],
        death_allocation_rate=rates, reference_year=reference_year,
        method_kind=kind, method_grid=grid, n_paths=n_paths, horizon=horizon,
        seed=seed, report_ages=report_ages, cohort_ages=cohort_ages,
        output_dir=base / top["output_dir"],
    )
    for c in config.aux_pool:
        if c not in config.countries:
            raise ConfigError(f"aux_pool country {c} has no declared sources")
    _check_coverage(config)
    return config


def aux_start_for(config: RunConfig, country: str) -> int:
    return config.aux_start_year.get(country, config.aux_start_year["default"])
