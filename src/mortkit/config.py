"""Declarative run configuration: schema, parsing and validation.

A run config is one YAML file declaring the country of interest, the
common pool, the calibration window, an explicit per-(country, year,
quantity) source matrix, the method grid, the simulation spec and the
output directory.  Sources are declared for run countries only, one per
(country, year, quantity) and one weekly declaration per (country, year, shape);
overlap, window gaps and a repeated weekly shape are refused up front.
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


def check_keys(mapping, keys, where):
    """Refuse `mapping` unless it is a mapping whose keys are all among
    `keys`, the ones its reader reads: a misspelt key would otherwise
    leave its default in force unseen."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    for key in mapping:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _need(mapping, key, where, kind=None):
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    return mapping[key] if kind is None else _as(kind, mapping[key], key, where)


def _year_range(node, where) -> YearRange:
    check_keys(node, ("first", "last"), where)
    return YearRange(_need(node, "first", where, int), _need(node, "last", where, int))


def _parse_source(node, base: Path, index: int) -> SourceDecl:
    where = f"sources[{index}]"
    check_keys(node, ("shape", "path", "paths", "country", "year", "years",
                      "quantities"), where)
    for one, many in (("path", "paths"), ("year", "years")):
        if one in node and many in node:
            raise ConfigError(f"{where}: give {one!r} or {many!r}, not both")
    shape = str(_need(node, "shape", where))
    if shape not in INDIVIDUAL_SHAPES + WEEKLY_SHAPES:
        raise ConfigError(f"{where}: unknown shape {shape!r}")
    raw_paths = node.get("paths", node.get("path"))
    if raw_paths is None:
        raise ConfigError(f"{where}: missing path(s)")
    if isinstance(raw_paths, (str, Path)):
        raw_paths = [raw_paths]
    paths = tuple(base / p for p in raw_paths)
    if len(paths) > 1 and shape not in WEEKLY_SHAPES:
        raise ConfigError(f"{where}: constituent lists are weekly-only")
    country = str(_need(node, "country", where))
    if len(paths) > 1 and country != UK_CODE:
        raise ConfigError(f"{where}: constituent aggregation produces country "
                          f"{UK_CODE}, declaration says {country}")
    if "year" in node:
        year = _need(node, "year", where, int)
        years = YearRange(year, year)
    else:
        years = _year_range(_need(node, "years", where), f"{where}.years")
    quantities = tuple(node.get("quantities", QUANTITIES))
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
    try:
        with path.open() as handle:
            doc = yaml.load(handle, Loader=_SAFE_LOADER)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    base = path.parent
    return build_run_config(doc, base)


def build_run_config(doc: dict, base: Path) -> RunConfig:
    check_keys(doc, ("country_of_interest", "common_pool", "ages", "years", "sources",
                     "ungrouping", "method", "simulation", "report", "output_dir"),
               "config")
    country = str(_need(doc, "country_of_interest", "config"))
    pool = tuple(str(c) for c in _need(doc, "common_pool", "config"))
    if not pool:
        raise ConfigError("common_pool must not be empty")

    ages_node = _need(doc, "ages", "config")
    check_keys(ages_node, ("min", "max"), "ages")
    ages = AgeRange(_need(ages_node, "min", "ages", int),
                    _need(ages_node, "max", "ages", int))
    if not (ages.min_age <= KANNISTO_FIT_LO and KANNISTO_FIT_HI <= ages.max_age):
        raise ConfigError(f"model ages {ages} must contain the Kannisto fit ages "
                          f"{KANNISTO_FIT_LO}..{KANNISTO_FIT_HI}")
    years = _year_range(_need(doc, "years", "config"), "years")
    if len(years) < 3:
        raise ConfigError("calibration window must span at least three years")

    sources_node = _need(doc, "sources", "config")
    check_keys(sources_node, ("individual", "weekly"), "sources")
    individual = []
    weekly = []
    all_nodes = list(sources_node.get("individual", ())) \
        + list(sources_node.get("weekly", ()))
    for i, node in enumerate(all_nodes):
        decl = _parse_source(node, base, i)
        (weekly if decl.weekly else individual).append(decl)
    if weekly and ages != UNGROUPING_AGES:
        raise ConfigError(f"ungrouping protocols require the {UNGROUPING_AGES.min_age}"
                          f"..{UNGROUPING_AGES.max_age} age range")

    ung = doc.get("ungrouping", {}) or {}
    check_keys(ung, ("aux_start_year", "aux_pool", "death_allocation_rate",
                     "reference_year"), "ungrouping")
    run_countries = pool + (country,)
    raw_start = ung.get("aux_start_year", years.first)
    if isinstance(raw_start, dict):
        check_keys(raw_start, run_countries + ("default",), "ungrouping.aux_start_year")
        aux_start = {str(k): _as(int, v, str(k), "ungrouping.aux_start_year")
                     for k, v in raw_start.items()}
        aux_start.setdefault("default", years.first)
    else:
        aux_start = {"default": _as(int, raw_start, "aux_start_year", "ungrouping")}
    aux_pool = tuple(str(c) for c in ung.get("aux_pool", pool))
    rates = dict(DEATH_ALLOCATION_RATE)
    raw_rates = ung.get("death_allocation_rate", {}) or {}
    check_keys(raw_rates, tuple(rates), "ungrouping.death_allocation_rate")
    rates.update({k: _as(float, v, k, "ungrouping.death_allocation_rate")
                  for k, v in raw_rates.items()})
    for gender, rate in rates.items():
        if not 0.0 < rate <= 1.0:
            raise ConfigError(f"death allocation rate for {gender} outside (0, 1]")
    raw_reference = ung.get("reference_year", {}) or {}
    check_keys(raw_reference, run_countries, "ungrouping.reference_year")
    reference_year = {k: _as(int, v, k, "ungrouping.reference_year")
                      for k, v in raw_reference.items()}

    method_node = _need(doc, "method", "config")
    check_keys(method_node, ("kind", "grid"), "method")
    kind = str(_need(method_node, "kind", "method")).upper()
    if kind not in METHOD_KINDS:
        raise ConfigError(f"method kind must be one of {METHOD_KINDS}, got {kind!r}")
    grid = tuple(_as(float, v, "grid", "method")
                 for v in _need(method_node, "grid", "method"))
    if not grid:
        raise ConfigError("method grid must not be empty")
    if any(not 0.0 <= v <= 1.0 for v in grid):
        raise ConfigError("method grid values must lie in [0, 1]")
    if len(set(grid)) != len(grid):
        raise ConfigError("method grid values must be distinct")

    sim = _need(doc, "simulation", "config")
    check_keys(sim, ("n_paths", "horizon", "seed"), "simulation")
    n_paths = _need(sim, "n_paths", "simulation", int)
    horizon = _need(sim, "horizon", "simulation", int)
    seed = _need(sim, "seed", "simulation", int)
    if horizon <= years.last:
        raise ConfigError(f"horizon {horizon} must exceed the calibration end {years.last}")
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")

    report = doc.get("report", {}) or {}
    check_keys(report, ("ages", "cohort_ages"), "report")
    report_ages = tuple(_as(int, a, "ages", "report")
                        for a in report.get("ages", (0, 65)))
    cohort_ages = tuple(_as(int, a, "cohort_ages", "report")
                        for a in report.get("cohort_ages", ()))
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

    out_dir = base / str(doc.get("output_dir", "out"))

    config = RunConfig(
        country_of_interest=country, common_pool=pool, ages=ages, years=years,
        individual_sources=tuple(individual), weekly_sources=tuple(weekly),
        aux_start_year=aux_start, aux_pool=aux_pool,
        death_allocation_rate=rates, reference_year=reference_year,
        method_kind=kind, method_grid=grid, n_paths=n_paths, horizon=horizon,
        seed=seed, report_ages=report_ages, cohort_ages=cohort_ages,
        output_dir=out_dir,
    )
    for c in config.aux_pool:
        if c not in config.countries:
            raise ConfigError(f"aux_pool country {c} has no declared sources")
    _check_coverage(config)
    return config


def aux_start_for(config: RunConfig, country: str) -> int:
    return config.aux_start_year.get(country, config.aux_start_year["default"])
