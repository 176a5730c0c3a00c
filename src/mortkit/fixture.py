"""Synthetic multi-country mortality fixtures for tests and demos.

Generates a fully consistent bundle: individual-age CSVs for observed
years, weekly bucketed files for degraded years (deaths split across
weeks by a smooth seasonal profile so annualization recovers the annual
totals exactly, exposures constant per week), the true individual-age
values for the degraded years, and a ready-to-run YAML config.  All
randomness flows from one seeded counter-based generator, so a params
document maps to byte-identical outputs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .config import (AGES, FLAG, TEXT, WEIGHTED_LIKELIHOOD, YEARS, load_yaml, mapping,
                     raw, read_section, real, section, sequence, whole)
from .data import (AgeRange, BucketedWeeklySeries, EUROW_BUCKETS, GENDERS, MAX_AGE,
                   REGULAR_WEEKS, STMF_BUCKETS, WEEK_COUNTS, YearRange,
                   write_individual_age_csv, write_weekly_csv)
from .errors import ConfigError

#: Seasonal modulation amplitude for weekly death counts.
SEASONAL_AMPLITUDE = 0.18


@dataclass(frozen=True)
class WeeklyDegradation:
    country: str
    year: int
    shapes: tuple            # subset of ("STMF", "EUROW")
    weeks: int = REGULAR_WEEKS
    constituents: dict = field(default_factory=dict)   # name -> share

    def __post_init__(self):
        if self.weeks not in WEEK_COUNTS:
            raise ConfigError(f"weekly year must have 52 or 53 weeks, got {self.weeks}")
        bad = set(self.shapes) - {"STMF", "EUROW"}
        if bad or not self.shapes:
            raise ConfigError(f"weekly shapes must be STMF/EUROW, got {self.shapes}")
        if "STMF" not in self.shapes:
            raise ConfigError(
                f"{self.country}/{self.year}: STMF is required (exposure source)"
            )
        if self.constituents:
            total = sum(self.constituents.values())
            if abs(total - 1.0) > 1e-12:
                raise ConfigError("constituent shares must sum to 1")


@dataclass(frozen=True)
class FixtureParams:
    countries: tuple = ("AAA", "BBB")
    country_of_interest: str = "AAA"
    country_scale: dict = field(default_factory=dict)
    ages: AgeRange = AgeRange(0, 90)
    years: YearRange = YearRange(2000, 2019)
    base_exposure: float = 5e4
    seed: int = 20260814
    theta: dict = field(default_factory=lambda: {"M": -0.20, "F": -0.17})
    phi: dict = field(default_factory=lambda: {"M": 0.95, "F": 0.95})
    ar_intercept: dict = field(default_factory=lambda: {"M": 0.0, "F": 0.0})
    sigma_K: float = 0.15
    sigma_kappa: float = 0.10
    alpha_scale: float = 0.05
    shock: dict | None = None          # {"year", "log_factor", "min_age"}
    weekly: tuple = ()
    stmf_exposure_column: bool = True
    n_paths: int = 200
    horizon: int | None = None
    sim_seed: int = 4242
    report_ages: tuple = (65, 85)
    cohort_ages: tuple = (65,)
    method_kind: str = WEIGHTED_LIKELIHOOD
    method_grid: tuple = (1.0, 0.0)

    def scale(self, country: str) -> float:
        return float(self.country_scale.get(country, 1.0))


def load_fixture_params(path) -> FixtureParams:
    return fixture_params_from_doc(load_yaml(path, "fixture params"))


def fixture_params_from_doc(doc: dict) -> FixtureParams:
    """The params a document gives; a key it leaves out keeps its
    FixtureParams default."""
    where = "fixture params"
    kinds = {
        "countries": sequence(TEXT), "country_of_interest": TEXT, "country_scale": raw,
        "ages": section(f"{where}.ages", AGES, AgeRange),
        "years": section(f"{where}.years", YEARS, YearRange),
        "base_exposure": real, "sigma_K": real, "sigma_kappa": real,
        "alpha_scale": real, "seed": whole, "n_paths": whole, "sim_seed": whole,
        **{key: section(f"{where}.{key}", dict.fromkeys(GENDERS, real))
           for key in ("theta", "phi", "ar_intercept")},
        "horizon": whole,
        "shock": section(f"{where}.shock",
                         {"year": whole, "log_factor": real, "min_age": (whole, 0)}),
        "stmf_exposure_column": FLAG, "report_ages": sequence(whole),
        "cohort_ages": sequence(whole),
        "method": section(f"{where}.method",
                          {"kind": (TEXT, None), "grid": (sequence(real), None)}),
        "weekly": sequence(),
    }
    read = read_section(doc, where, {key: (kind, None) for key, kind in kinds.items()})
    if "country_scale" in read:
        countries = read.get("countries", FixtureParams.countries)
        read["country_scale"] = read_section(read["country_scale"], f"{where}.country_scale",
                                             dict.fromkeys(countries, (real, None)))
    read.update({f"method_{key}": value for key, value in read.pop("method", {}).items()})
    weekly = {"country": TEXT, "year": whole, "shapes": (sequence(TEXT), ["STMF", "EUROW"]),
              "weeks": (whole, REGULAR_WEEKS), "constituents": (mapping(real), {})}
    read["weekly"] = tuple(section(f"{where}.weekly[{i}]", weekly, WeeklyDegradation)(entry)
                           for i, entry in enumerate(read.get("weekly", ())))
    return FixtureParams(**read)


# ---------------------------------------------------------------------------
# Truth surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixtureTruth:
    """Period effects and per-(country, gender) cell values."""

    ages: AgeRange
    years: YearRange
    K: dict                  # gender -> (n_years,)
    kappa: dict              # (country, gender) -> (n_years,)
    deaths: dict             # (country, gender) -> (n_ages, n_years)
    exposures: dict


def _baseline_profile(x: np.ndarray, gender: str) -> np.ndarray:
    """Log-force age profile: infant hump, then near-Gompertz increase."""
    a = -7.8 + 0.07 * x + 1.1 * np.exp(-x / 2.0)
    return a - 0.22 if gender == "F" else a


def _unit_scale(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt(np.sum(v ** 2))


def build_truth(params: FixtureParams) -> FixtureTruth:
    rng = np.random.Generator(
        np.random.Philox(key=np.array([params.seed, 0], dtype=np.uint64))
    )
    x = params.ages.values().astype(float)
    nt = len(params.years)
    A, B, K = {}, {}, {}
    for gender in GENDERS:
        A[gender] = _baseline_profile(x, gender)
        B[gender] = _unit_scale(1.25 - x / 130.0)
        steps = params.theta[gender] + params.sigma_K * rng.standard_normal(nt - 1)
        walk = np.concatenate([[0.0], np.cumsum(steps)])
        A[gender] = A[gender] + B[gender] * walk.mean()
        K[gender] = walk - walk.mean()

    kappa, deaths, exposures = {}, {}, {}
    t_idx = np.arange(nt, dtype=float)
    age_profile = 0.25 + 0.75 * np.exp(-x / 45.0)
    for idx, country in enumerate(params.countries):
        for gender in GENDERS:
            key = (country, gender)
            a_dev = params.alpha_scale * np.cos(x / 15.0 + idx + (gender == "F"))
            b_dev = _unit_scale(1.0 + 0.1 * idx + (90.0 - x) / 400.0)
            series = np.zeros(nt)
            c0 = params.ar_intercept[gender]
            for t in range(1, nt):
                series[t] = c0 + params.phi[gender] * series[t - 1] \
                    + params.sigma_kappa * rng.standard_normal()
            a_dev = a_dev + b_dev * series.mean()
            series = series - series.mean()
            kappa[key] = series

            log_mu = (A[gender][:, None] + np.outer(B[gender], K[gender])
                      + a_dev[:, None] + np.outer(b_dev, series))
            if params.shock is not None:
                j = params.shock["year"] - params.years.first
                if 0 <= j < nt:
                    mask = x >= params.shock["min_age"]
                    log_mu[mask, j] += params.shock["log_factor"]
            E = (params.base_exposure * params.scale(country)
                 * np.outer(age_profile, 1.003 ** t_idx))
            deaths[key] = rng.poisson(np.exp(log_mu) * E).astype(float)
            exposures[key] = E
    return FixtureTruth(ages=params.ages, years=params.years, K=K, kappa=kappa,
                        deaths=deaths, exposures=exposures)


# ---------------------------------------------------------------------------
# Weekly degradation
# ---------------------------------------------------------------------------

def seasonal_weights(weeks: int) -> np.ndarray:
    """Normalized weekly death shares with a winter peak."""
    w = np.arange(1, weeks + 1, dtype=float)
    raw = 1.0 + SEASONAL_AMPLITUDE * np.cos(2.0 * np.pi * (w - 2.0) / 52.0)
    return raw / raw.sum()


def _bucket_totals(values: np.ndarray, buckets, ages: AgeRange) -> dict:
    out = {}
    for bucket in buckets:
        lo = bucket.lower - ages.min_age
        hi = ages.max_age if bucket.is_open else bucket.upper
        out[bucket] = float(values[lo: hi - ages.min_age + 1].sum())
    return out


def degrade_to_weekly(truth: FixtureTruth, spec: WeeklyDegradation,
                      country: str, gender: str, shape: str,
                      share: float = 1.0, *,
                      exposure_column: bool = True) -> BucketedWeeklySeries:
    """One gender's weekly series for a degraded year, labelled `country`:
    the degraded country or a constituent that carries `share` of it.

    Deaths follow the seasonal profile scaled so that the 52/weeks
    annualization rule returns the annual bucket totals exactly; weekly
    exposures are the constant annual/52 value, marked derived unless
    `exposure_column`, so that an STMF file gives only their rates.
    """
    j = truth.years.index(spec.year)
    d_col = truth.deaths[(spec.country, gender)][:, j] * share
    e_col = truth.exposures[(spec.country, gender)][:, j] * share
    buckets = STMF_BUCKETS if shape == "STMF" else EUROW_BUCKETS
    d_tot = _bucket_totals(d_col, buckets, truth.ages)
    e_tot = _bucket_totals(e_col, buckets, truth.ages)
    p = seasonal_weights(spec.weeks)
    deaths = {b: d_tot[b] * p * (spec.weeks / REGULAR_WEEKS) for b in buckets}
    if shape == "EUROW":
        return BucketedWeeklySeries(
            country=country, gender=gender, year=spec.year,
            week_count=spec.weeks, deaths=deaths,
        )
    exposures = {b: np.full(spec.weeks, e_tot[b] / REGULAR_WEEKS) for b in buckets}
    return BucketedWeeklySeries(
        country=country, gender=gender, year=spec.year, week_count=spec.weeks,
        deaths=deaths, exposures=exposures,
        exposure_origin="column" if exposure_column else "derived",
    )


# ---------------------------------------------------------------------------
# Bundle writer
# ---------------------------------------------------------------------------

def _observed_segments(years: YearRange, degraded: set) -> list:
    """Contiguous runs of non-degraded years."""
    runs, start, prev = [], None, None
    for year in years.values():
        year = int(year)
        if year in degraded:
            if start is not None:
                runs.append((start, prev))
                start = None
            continue
        if start is None:
            start = year
        prev = year
    if start is not None:
        runs.append((start, prev))
    return runs


def _surface_records(truth: FixtureTruth, country: str, years) -> list:
    records = []
    for gender in GENDERS:
        d = truth.deaths[(country, gender)]
        e = truth.exposures[(country, gender)]
        for year in years:
            j = truth.years.index(year)
            for i, age in enumerate(truth.ages.values()):
                records.append((country, int(year), gender, int(age),
                                float(d[i, j]), float(e[i, j]), "HMD"))
    return records


def make_synthetic_fixture(params: FixtureParams, out_dir) -> dict:
    """Write the full bundle; returns a manifest of what was written."""
    out = Path(out_dir)
    for sub in ("data", "weekly", "truth"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    if params.country_of_interest not in params.countries:
        raise ConfigError("country_of_interest must be in countries")
    for spec in params.weekly:
        if spec.country not in params.countries:
            raise ConfigError(f"weekly country {spec.country} not generated")
        if not params.years.first < spec.year <= params.years.last:
            raise ConfigError(
                f"weekly year {spec.year} must lie after the first model year"
            )

    truth = build_truth(params)
    degraded = {}
    for spec in params.weekly:
        degraded.setdefault(spec.country, set()).add(spec.year)

    individual_decls = []
    for country in params.countries:
        path = out / "data" / f"{country}.csv"
        segments = _observed_segments(params.years, degraded.get(country, set()))
        all_years = [y for lo, hi in segments for y in range(lo, hi + 1)]
        write_individual_age_csv(path, _surface_records(truth, country, all_years))
        for lo, hi in segments:
            individual_decls.append({
                "path": f"data/{country}.csv", "shape": "HMD",
                "country": country, "years": {"first": lo, "last": hi},
                "quantities": ["deaths", "exposures"],
            })

    weekly_decls = []
    weekly_files = []
    for spec in sorted(params.weekly, key=lambda s: (s.country, s.year)):
        pieces = spec.constituents or {spec.country: 1.0}
        for shape in ("STMF", "EUROW"):
            if shape not in spec.shapes:
                continue
            paths = []
            for name, share in pieces.items():
                rel = f"weekly/{name}_{spec.year}_{shape.lower()}.csv"
                paths.append(rel)
                write_weekly_csv(out / rel, [
                    degrade_to_weekly(truth, spec, name, gender, shape, share,
                                      exposure_column=params.stmf_exposure_column)
                    for gender in GENDERS], shape)
            weekly_files.extend(paths)
            if shape == "STMF":
                quantities = ["exposures"] if "EUROW" in spec.shapes \
                    else ["deaths", "exposures"]
            else:
                quantities = ["deaths"]
            decl = {"shape": shape, "country": spec.country, "year": spec.year,
                    "quantities": quantities}
            decl["paths" if len(paths) > 1 else "path"] = \
                paths if len(paths) > 1 else paths[0]
            weekly_decls.append(decl)

    truth_files = {}
    for country, years in sorted(degraded.items()):
        rel = f"truth/{country}_virtual_truth.csv"
        write_individual_age_csv(out / rel,
                                 _surface_records(truth, country, sorted(years)))
        truth_files[country] = rel

    truth_doc = {
        "seed": params.seed,
        "theta": params.theta, "phi": params.phi,
        "ar_intercept": params.ar_intercept,
        "sigma_K": params.sigma_K, "sigma_kappa": params.sigma_kappa,
        "shock": params.shock,
        "K": {g: truth.K[g].tolist() for g in GENDERS},
        "kappa": {f"{c}/{g}": truth.kappa[(c, g)].tolist()
                  for c in params.countries for g in GENDERS},
    }
    with (out / "truth" / "params.json").open("w") as handle:
        json.dump(truth_doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

    horizon = params.horizon
    if horizon is None:
        fallback = params.years.last + 10
        needed = [params.years.last + (MAX_AGE - a) for a in params.cohort_ages]
        horizon = max([fallback] + needed)
    config_doc = {
        "country_of_interest": params.country_of_interest,
        "common_pool": list(params.countries),
        "ages": {"min": params.ages.min_age, "max": params.ages.max_age},
        "years": {"first": params.years.first, "last": params.years.last},
        "sources": {"individual": individual_decls, "weekly": weekly_decls},
        "ungrouping": {"aux_pool": list(params.countries)},
        "method": {"kind": params.method_kind,
                   "grid": list(params.method_grid)},
        "simulation": {"n_paths": params.n_paths, "horizon": horizon,
                       "seed": params.sim_seed},
        "report": {"ages": list(params.report_ages),
                   "cohort_ages": list(params.cohort_ages)},
        "output_dir": "out",
    }
    config_path = out / "config.yaml"
    with config_path.open("w") as handle:
        yaml.safe_dump(config_doc, handle, sort_keys=False)

    return {
        "config": str(config_path),
        "individual": [d["path"] for d in individual_decls],
        "weekly": weekly_files,
        "truth": truth_files,
    }
