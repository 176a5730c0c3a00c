"""End-to-end scenario pipeline: ingest, ungroup, calibrate, simulate, report.

Data assembly builds complete per-(country, gender) surfaces from the
declared sources, ungrouping weekly-bucketed years into VIRTUAL cells.
Each method-grid value then becomes one scenario (a weight on the final
year, or a blend weight of the adjusted variant) producing parameter,
time-series-fit and fan-chart CSVs.  Scenarios are isolated: one failing
scenario is reported as failed without aborting the others.  Reruns of
the same config are byte-identical; wall-clock timings therefore go to a
sidecar file outside the hashed outputs.  Every output is written under a
temporary name and moved into place, `report.json` last, and the previous
report is moved aside before the first of them, so a `report.json` on disk
always matches the files beside it.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics, lilee, project
from .config import RunConfig, WEIGHTED_LIKELIHOOD, aux_start_for
from .data import (GENDERS, QUANTITIES, VIRTUAL, MortalitySurface,
                   MultiPopulationDataset, SurfaceFragment, YearRange,
                   aggregate_uk, annualize_weekly_deaths, annualize_weekly_exposure,
                   check_eurostat_stmf_consistency, load_individual_age_csv,
                   load_weekly_csv)
from .errors import ConfigError, ValidationError
from .ungroup import (fit_auxiliary_projection_model, needs_reference_tail,
                      ungroup_deaths, ungroup_exposures)

#: Fixed fan-chart row ordering.
_QUANTITY_ORDER = ("K", "kappa", "q", "e_per", "e_coh")

#: Where a run keeps the previous run's report until its own is in place.
_PREVIOUS_REPORT = ".report.json.prev"

#: Columns, one per (projection year, path row), that one force, closure
#: and expectancy call of the life tables take at most; a path batch of
#: more rows takes one year a call.  An age band over this many columns
#: (41 x 4096 doubles, 1.3 MB) fits a core's 2 MB L2 cache.
LIFE_TABLE_COLUMNS = 4096


# ---------------------------------------------------------------------------
# Data assembly
# ---------------------------------------------------------------------------

@dataclass
class AssembledData:
    dataset: MultiPopulationDataset
    consistency: list
    exposure_origins: dict
    virtual_cells: dict


def _load_weekly_decl(decl):
    """One series per gender for a weekly declaration.  Several paths are
    constituents, which the config has declared for country UNK; they are
    aggregated cell-wise."""
    loaded = [load_weekly_csv(p, decl.shape, year=decl.years.first, gender=GENDERS)
              for p in decl.paths]
    if len(loaded) > 1:
        return {gender: aggregate_uk([by_gender[gender] for by_gender in loaded])
                for gender in GENDERS}
    for series in loaded[0].values():
        if series.country != decl.country:
            raise ConfigError(f"{decl.path}: file country {series.country} does not "
                              f"match declared {decl.country}")
    return loaded[0]


class _Assembler:
    def __init__(self, config: RunConfig):
        self.config = config
        self.ages = config.ages
        self.years = config.years
        # Indexed [country, gender, quantity, age, year], quantities in
        # QUANTITIES order; the per-(country, gender) grids are views.
        # A cell no source filled keeps NaN and provenance code 0 until the
        # gap check refuses it.
        shape = (len(config.countries), len(GENDERS), len(QUANTITIES),
                 len(config.ages), len(config.years))
        self._values = np.full(shape, np.nan)
        self._provenance = np.zeros(shape, dtype=np.int8)
        self.observed = SurfaceFragment()
        self.weekly = {}
        self.consistency = []
        self.exposure_origins = {}
        self._aux_cache = {}

    # -- ingestion ---------------------------------------------------------

    def load_sources(self):
        """Read every declared file.  Each individual-age declaration goes
        straight into the grids, and `observed` keeps only its records from
        the model top age up, the only ones ungrouping reads.  `weekly`
        maps each weekly declaration, in (country, year) order, to its
        series by gender.  The loader refuses repeats within a file; the
        config has refused every overlap across declarations."""
        above_top = []
        for decl in self.config.individual_sources:
            years = range(decl.years.first, decl.years.last + 1)
            fragment = load_individual_age_csv(decl.path, decl.shape).restrict(
                countries={decl.country}, years=years, quantities=decl.quantities)
            self._fill_observed(fragment, decl.country)
            above_top.append(fragment.restrict(min_age=self.ages.max_age))
        self.observed.update(*above_top)
        for decl in sorted(self.config.weekly_sources,
                           key=lambda d: (d.country, d.years.first)):
            self.weekly[decl] = _load_weekly_decl(decl)
        self._cross_check()

    def _fill_observed(self, fragment, country):
        """Scatter the records of one declaration's `fragment`, all of the
        run country `country`, that lie inside the model window into the
        grids, by one flat index per record."""
        ok = ((fragment.age >= self.ages.min_age) & (fragment.age <= self.ages.max_age)
              & (fragment.year >= self.years.first) & (fragment.year <= self.years.last))
        at = np.full(len(ok), self.config.countries.index(country), dtype=np.int64)
        for column, first, size in ((fragment.gender, 0, len(GENDERS)),
                                    (fragment.quantity, 0, len(QUANTITIES)),
                                    (fragment.age, self.ages.min_age, len(self.ages)),
                                    (fragment.year, self.years.first, len(self.years))):
            at *= size
            at += column
            at -= first
        at = at[ok]
        self._values.reshape(-1)[at] = fragment.value[ok]
        self._provenance.reshape(-1)[at] = fragment.provenance[ok]

    def _cross_check(self):
        """Compare the weekly deaths of each EUROW declaration with the
        STMF declaration of its (country, year), if there is one."""
        stmf = {(decl.country, decl.years.first): series
                for decl, series in self.weekly.items() if decl.shape == "STMF"}
        for decl, euro in self.weekly.items():
            country, year = decl.country, decl.years.first
            if decl.shape != "EUROW" or (country, year) not in stmf:
                continue
            for gender in GENDERS:
                report = check_eurostat_stmf_consistency(euro[gender],
                                                         stmf[country, year][gender])
                self.consistency.append({
                    "country": country, "year": year, "gender": gender,
                    "comparable": report.comparable,
                    "consistent": report.consistent,
                    "mismatches": len(report.mismatches),
                    "detail": report.detail,
                })
                if not report.consistent:
                    warnings.warn(
                        f"EUROW/STMF weekly deaths disagree for {country}/{year}/"
                        f"{gender} ({report.detail or len(report.mismatches)})",
                        RuntimeWarning, stacklevel=2,
                    )

    # -- observed-year bookkeeping ------------------------------------------

    def last_observed(self, country, quantities) -> int:
        """The last year whose full model-age columns of `quantities` are
        observed for both genders."""
        c = self.config.countries.index(country)
        q = [QUANTITIES.index(name) for name in quantities]
        unobserved = np.isnan(self._values[c][:, q]) \
            | (self._provenance[c][:, q] == VIRTUAL)
        years = self.years.values()[~unobserved.any(axis=(0, 1, 2))]
        if not years.size:
            raise ValidationError(f"{country}: no fully observed years")
        return int(years[-1])

    # -- ungrouping ----------------------------------------------------------

    def _aux_model(self, country):
        if country in self._aux_cache:
            return self._aux_cache[country]
        pool = tuple(self.config.aux_pool)
        members = pool if country in pool else pool + (country,)
        start = max(aux_start_for(self.config, country), self.years.first)
        # The window ends before the first year a member has from weekly
        # data, which is ungrouped with this model, not observed.
        end = min([self.last_observed(c, QUANTITIES) for c in members]
                  + [decl.years.first - 1 for decl in self.weekly
                     if decl.country in members and decl.years.first >= start])
        if end - start < 7:
            raise ValidationError(
                f"auxiliary window [{start}, {end}] too short; time dynamics "
                "need >= 8 years"
            )
        window = YearRange(start, end)
        aux = fit_auxiliary_projection_model(self._dataset(members, pool, window),
                                             country)
        self._aux_cache[country] = aux
        return aux

    def ungroup_all(self):
        """Ungroup each weekly declaration's quantities into its year:
        exposures first, as they chain on each other, then deaths, which
        need the year's virtual exposures and the auxiliary model."""
        for quantity, ungroup_year in (("exposures", self._ungroup_exposure_year),
                                       ("deaths", self._ungroup_death_year)):
            for decl, series in self.weekly.items():
                if quantity in decl.quantities:
                    ungroup_year(decl.country, decl.years.first, series)

    def _ungroup_exposure_year(self, country, year, series):
        j = self.years.index(year)
        if j == 0:
            raise ValidationError(
                f"{country}/{year}: cannot ungroup exposures without a previous year"
            )
        c = self.config.countries.index(country)
        for g, gender in enumerate(GENDERS):
            self.exposure_origins[f"{country}/{year}/{gender}"] = series[gender].exposure_origin
            annual = annualize_weekly_exposure(series[gender])
            _, exposures = self._values[c, g]
            _, provenance = self._provenance[c, g]
            if np.any(np.isnan(exposures[:, j - 1])):
                raise ValidationError(
                    f"{country}/{gender}: exposures for {year - 1} incomplete; "
                    "ungroup in chronological order"
                )
            above_top = self.observed.restrict({country}, {gender}, range(year - 1, year),
                                               {"exposures"}, self.ages.max_age + 1)
            result = ungroup_exposures(exposures[:, j - 1], annual, self.ages,
                                       prev_above_top=above_top.value)
            exposures[:, j] = result.values
            provenance[:, j] = VIRTUAL

    def _ungroup_death_year(self, country, year, series):
        j = self.years.index(year)
        aux = self._aux_model(country)
        c = self.config.countries.index(country)
        for g, gender in enumerate(GENDERS):
            annual = annualize_weekly_deaths(series[gender])
            deaths, exposures = self._values[c, g]
            provenance, _ = self._provenance[c, g]
            if np.any(np.isnan(exposures[:, j])):
                raise ValidationError(
                    f"{country}/{gender}: exposures for {year} incomplete; "
                    "declare an exposure source for that year"
                )
            tail = None
            if needs_reference_tail(annual, self.ages):
                ref_year = self.config.reference_year.get(country)
                if ref_year is None:
                    ref_year = self.last_observed(country, ("deaths",))
                tail = self.observed.deaths_tail(country, gender, ref_year,
                                                 self.ages.max_age)
            result = ungroup_deaths(
                aux, gender, year, exposures[:, j], annual, self.ages,
                reference_tail=tail,
                allocation_rate=self.config.death_allocation_rate[gender],
            )
            deaths[:, j] = result.values
            provenance[:, j] = VIRTUAL

    # -- datasets -------------------------------------------------------------

    def _dataset(self, countries, pool, window) -> MultiPopulationDataset:
        """One surface per (country, gender) over the years of `window`,
        copied from the grids; a cell no source filled is refused by name."""
        cols = slice(self.years.index(window.first), self.years.index(window.last) + 1)
        surfaces = {}
        for country in countries:
            c = self.config.countries.index(country)
            for g, gender in enumerate(GENDERS):
                d, e = self._values[c, g, :, :, cols]
                for name, arr in zip(QUANTITIES, (d, e)):
                    holes = np.argwhere(np.isnan(arr))
                    if holes.size:
                        x, t = holes[0]
                        raise ValidationError(
                            f"{country}/{gender}: no source produced {name} for "
                            f"age {self.ages.min_age + x}, year "
                            f"{window.first + t} (and {len(holes) - 1} more cells)"
                        )
                dp, ep = self._provenance[c, g, :, :, cols]
                surfaces[country, gender] = MortalitySurface(
                    country, gender, self.ages, window, d.copy(), e.copy(),
                    dp.copy(), ep.copy())
        return MultiPopulationDataset(surfaces=surfaces, common_pool=pool)

    def build(self) -> AssembledData:
        dataset = self._dataset(self.config.countries, self.config.common_pool,
                                self.years)
        virtual = {}
        for (country, _), surface in dataset.surfaces.items():
            counts = virtual.setdefault(country, {"deaths": 0, "exposures": 0})
            for name, count in surface.virtual_cell_count().items():
                counts[name] += count
        return AssembledData(dataset=dataset, consistency=self.consistency,
                             exposure_origins=self.exposure_origins,
                             virtual_cells=virtual)


def assemble_dataset(config: RunConfig) -> AssembledData:
    """Run ingestion, cross-checks and ungrouping; returns complete surfaces."""
    assembler = _Assembler(config)
    assembler.load_sources()
    assembler.ungroup_all()
    return assembler.build()


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def _scenario_label(config, value) -> str:
    prefix = "w" if config.method_kind == WEIGHTED_LIKELIHOOD else "alm"
    return f"{prefix}{value:g}"


@contextmanager
def _clock(layers: dict, layer: str):
    """Add the wall time of the block to `layers[layer]`."""
    start = time.perf_counter()
    try:
        yield
    finally:
        layers[layer] = layers.get(layer, 0.0) + time.perf_counter() - start


def _timed(unit, *args):
    """Run one work unit as `unit(*args, layers)`.  Returns its result, the
    wall time of each layer it ran (`layers`) and its own wall time."""
    start = time.perf_counter()
    layers = {}
    result = unit(*args, layers)
    return result, layers, time.perf_counter() - start


def _life_table_rows(config, params, paths, gender, layers):
    """The life-table unit of one (scenario, gender): the gender's fan-chart
    blocks (quantity, gender, age, years, levels) from the scenario's path
    batch, unordered.  The projection years go in blocks of as many whole
    years as fit in LIFE_TABLE_COLUMNS columns, one per (year, path row),
    and at least one, and each block's ages in bands of at most the
    closure's 41 ages, top band first: the model ages from 80 up, closed
    to age 120, then the model ages below 80.  Each band's forces give its
    report ages' death probabilities and its cells of the cohorts'
    diagonals, then its expectancies, in place and continued from the band
    above.  Quantiles take one call per block, and the cohort ages take one
    expectancy call each and one quantile call.  `levels` has one row per
    year and one column per probe, then one with row 0 of the batch (the
    best estimate).  Adds the wall time of each layer it ran to `layers`."""
    probes = project.DEFAULT_PROBES
    fit_lo, top = project.KANNISTO_FIT_LO, project.MAX_AGE
    width = top + 1 - fit_lo
    a0 = config.ages.min_age
    report_ages = config.report_ages
    n_report = len(report_ages)
    r0 = min(report_ages, default=top + 1)   # no expectancy below this age
    rows = len(paths.K[gender])
    n_years = len(paths.years)
    per_block = max(1, min(n_years, LIFE_TABLE_COLUMNS // rows))
    # (first age, last age) of each band, top band first.
    bands = [(fit_lo, top)]
    bands += [(max(a0, hi + 1 - width), hi) for hi in range(fit_lo - 1, a0 - 1, -width)]
    # One ages-major band buffer, its survival scratch and the expectancy
    # carried down to the band below, for every block.
    buffer = np.empty(width * per_block * rows)
    survival = np.empty_like(buffer)
    carried = np.empty(per_block * rows)
    # Ages-major like the bands, so the kernel reads it in place.
    diag = {a: np.empty((top - a + 1, rows)).T for a in config.cohort_ages}
    labels = [("K", None), ("kappa", None)] + [("q", age) for age in report_ages]
    labels += [("e_per", age) for age in report_ages]
    levels = np.empty((len(labels), n_years, len(probes) + 1))
    for first in range(0, n_years, per_block):
        n_block = min(per_block, n_years - first)
        n_cols = n_block * rows
        after = None
        with _clock(layers, "life_tables"):
            table = np.empty((len(labels), n_cols))   # one row per label
            table[0] = paths.K[gender][:, first:first + n_block].T.ravel()
            table[1] = paths.kappa[gender][:, first:first + n_block].T.ravel()
            for lo, hi in bands:
                band = buffer[:(hi - lo + 1) * n_cols].reshape(hi - lo + 1, n_cols)
                forced = min(hi, config.ages.max_age)   # the closure fills the rest
                mu = project.force_paths(params[gender], paths, gender,
                                         int(paths.years[first]),
                                         out=band[:forced - lo + 1].T,
                                         n_years=n_block, ages=(lo, forced))
                if hi == top:
                    project.kannisto_close(mu, lo, forces=True, out=band.T)
                else:
                    project.check_forces(band)
                for k, age in enumerate(report_ages):
                    if lo <= age <= hi:
                        table[2 + k] = -np.expm1(-band[age - lo])
                for age, cells in diag.items():
                    for j in range(max(first, lo - age), min(first + n_block, hi + 1 - age)):
                        col = (j - first) * rows
                        cells[:, j] = band[age + j - lo, col:col + rows]
                start = max(lo, r0)
                if start > hi:
                    continue
                project.period_life_expectancy(
                    band[start - lo:].T, project.AgeBand(start, after, survival))
                for k, age in enumerate(report_ages):
                    if start <= age <= hi:
                        table[2 + n_report + k] = band[age - lo]
                after = carried[:n_cols]
                after[:] = band[start - lo]
        with _clock(layers, "quantiles"):
            # (path row, label, year): the paths of every year, row 0 aside
            samples = table.reshape(len(labels), n_block, rows).transpose(2, 0, 1)
            levels[:, first:first + n_block, :-1] = np.moveaxis(
                project.quantile_summary(samples[1:], probes), 0, -1)
            levels[:, first:first + n_block, -1] = samples[0]
    blocks = [(quantity, gender, age, paths.years, levels[k])
              for k, (quantity, age) in enumerate(labels)]
    if config.cohort_ages:
        # Cohort expectancy: the period kernel applied on the diagonal.
        with _clock(layers, "life_tables"):
            e_coh = np.stack([project.period_life_expectancy(diag[age], age)
                              for age in config.cohort_ages])
        with _clock(layers, "quantiles"):
            cohort = np.column_stack(
                [project.quantile_summary(e_coh.T[1:], probes).T, e_coh[:, 0]])
        blocks += [("e_coh", gender, age, paths.years[:1], cohort[k:k + 1])
                   for k, age in enumerate(config.cohort_ages)]
    return blocks


def _write_fanchart(path, blocks):
    """Write the blocks in the fan chart's fixed order: quantity, gender and
    age, then each block's years, each year's probes and its best estimate."""
    probes = [format(p, "g") for p in project.DEFAULT_PROBES] + ["best"]
    order = {q: i for i, q in enumerate(_QUANTITY_ORDER)}
    blocks = sorted(blocks, key=lambda b: (order[b[0]], b[1],
                                           -1 if b[2] is None else b[2]))
    with Path(path).open("w", newline="") as handle:
        handle.write("quantity,gender,age,year,probe,value\n")
        for quantity, gender, age, years, levels in blocks:
            head = f"{quantity},{gender},{'' if age is None else age}"
            for year, row in zip(years.tolist(), levels.tolist()):
                for probe, value in zip(probes, row):
                    handle.write(f"{head},{year},{probe},{format(value, '.17g')}\n")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _publish(out_dir: Path, writers: dict):
    """Write each output under a temporary name in `out_dir`, then move
    them all into place with `os.replace`.  `writers` maps a file name to
    a function that writes a given path.  If any write raises, none of
    the outputs is moved and no temporary file is left behind, so a file
    on disk is always complete."""
    staged = {name: out_dir / f".{name}.tmp" for name in writers}
    try:
        for name, write in writers.items():
            write(staged[name])
        for name, path in staged.items():
            os.replace(path, out_dir / name)
    finally:
        for path in staged.values():
            path.unlink(missing_ok=True)


def _remove_stale(out_dir: Path, results):
    """Delete each scenario file that the previous report in `out_dir`
    (_PREVIOUS_REPORT) lists and `results` did not write, so that the
    directory holds only what the next report lists.  Only a plain file
    name naming a file counts, and a missing or unreadable report deletes
    nothing."""
    try:
        previous = json.loads((out_dir / _PREVIOUS_REPORT).read_text())
        listed = {name for scenario in previous["scenarios"]
                  for name in scenario["files"].values()}
    except (OSError, ValueError, LookupError, TypeError, AttributeError):
        return
    written = {name for scenario in results for name in scenario.files.values()}
    for name in listed - written:
        path = out_dir / str(name)
        if path.name == name and path.is_file():
            path.unlink(missing_ok=True)


def _write_json(path, blob, **options):
    with Path(path).open("w") as handle:
        json.dump(blob, handle, indent=2, **options)
        handle.write("\n")


@dataclass
class ScenarioResult:
    label: str
    value: float
    status: str
    error: str | None = None
    ts_params: dict | None = None
    ts_se: dict | None = None
    stationary: dict | None = None
    ridged: bool | None = None
    loglik: float | None = None
    score_norm: float | None = None
    calibration: dict | None = None
    files: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)
    elapsed: float = 0.0
    layers: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "label": self.label, "value": self.value, "status": self.status,
            "files": self.files, "hashes": self.hashes,
        }
        if self.status == "ok":
            out.update(ts_params=self.ts_params, ts_se=self.ts_se,
                       stationary=self.stationary, ridged=self.ridged,
                       loglik=self.loglik, score_norm=self.score_norm,
                       calibration=self.calibration)
        else:
            out["error"] = self.error
        return out


@dataclass
class RunReport:
    config_summary: dict
    virtual_cells: dict
    consistency: list
    exposure_origins: dict
    scenarios: list

    @property
    def all_ok(self) -> bool:
        return all(s.status == "ok" for s in self.scenarios)

    def to_json(self) -> dict:
        return {
            "config": self.config_summary,
            "virtual_cells": self.virtual_cells,
            "consistency": self.consistency,
            "weekly_exposure_origin": self.exposure_origins,
            "scenarios": [s.to_json() for s in self.scenarios],
        }


def run_scenario(config: RunConfig, dataset, value: float, shared_calibration,
                 normals: np.ndarray, layers: dict):
    """The fit unit of one grid value: calibrate (or reuse the shared Li-Lee
    calibration), fit the dynamics and simulate from the run's `normals` the
    path batch both genders' life-table units read.  Returns (params,
    calibration, fit, paths) and adds each layer's wall time to `layers`."""
    if config.method_kind == WEIGHTED_LIKELIHOOD:
        params, calibration = shared_calibration
        weight_last = value
    else:
        with _clock(layers, "calibrate"):
            params, calibration = lilee.calibrate_dataset(
                dataset, config.country_of_interest, value)
        weight_last = None
    with _clock(layers, "dynamics"):
        fit = dynamics.fit_period_effects(params, weight_last)
    with _clock(layers, "simulate"):
        paths = project.path_batch(fit, project.ScenarioSpec(
            jump_off_year=config.years.last, horizon=config.horizon,
            n_paths=config.n_paths, seed=config.seed,
            jump_off=params["M"].jump_off + params["F"].jump_off, normals=normals,
        ))
    return params, calibration, fit, paths


def _write_scenario(config: RunConfig, value: float, units, out_dir: Path
                    ) -> ScenarioResult:
    """The write step of one scenario: publish its files, the fan chart from
    the blocks of its M and F life-table units, and hash them.  `units` are
    the (result, layers, seconds) of its fit unit and of those two units; the
    scenario's layer times and wall time are their sums plus this step's."""
    start = time.perf_counter()
    (params, calibration, fit, _), *tables = [result for result, _, _ in units]
    layers = Counter()
    for _, unit_layers, _ in units:
        layers.update(unit_layers)
    blocks = [block for table in tables for block in table]
    label = _scenario_label(config, value)
    files = {
        "params": f"params_{label}.csv",
        "tsfit": f"tsfit_{label}.csv",
        "fanchart": f"fanchart_{label}.csv",
    }
    with _clock(layers, "write"):
        _publish(out_dir, {
            files["params"]: lambda path: lilee.export_params_csv(path, params),
            files["tsfit"]: lambda path: dynamics.export_fit_csv(path, fit),
            files["fanchart"]: lambda path: _write_fanchart(path, blocks),
        })
        hashes = {name: _sha256(out_dir / name) for name in files.values()}
    elapsed = sum(seconds for _, _, seconds in units) + time.perf_counter() - start
    return ScenarioResult(
        label=label, value=value, status="ok", error=None,
        ts_params={name: float(v) for name, v in zip(dynamics.PSI_NAMES, fit.psi)},
        ts_se=dict(zip(dynamics.PSI_NAMES, np.sqrt(np.diag(fit.psi_cov)).tolist())),
        stationary=fit.stationary, ridged=fit.ridged, loglik=float(fit.loglik),
        score_norm=fit.score_norm, calibration=calibration, files=files,
        hashes=hashes, elapsed=elapsed, layers=layers,
    )


def run_pipeline(config: RunConfig, jobs: int | None = None) -> RunReport:
    """Execute every scenario in the method grid and write all outputs.

    Each scenario is split into work units on one thread pool: a fit unit
    (`run_scenario`), then one life-table unit per gender once its paths
    exist, then a write step on this thread once both are done.  Workers
    never wait on a future, so any pool size makes progress."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # No report.json until this run's is in place.  Without one, the report
    # that a crashed run moved aside is still the last one, and stays.
    with suppress(FileNotFoundError):
        os.replace(out_dir / "report.json", out_dir / _PREVIOUS_REPORT)
    timings = {}

    # An assembly error fails every scenario, as a shared calibration error
    # does, and is raised once the report that says so is written.
    shared_calibration = None
    shared_error = assembly_error = None
    t0 = time.perf_counter()
    try:
        assembled = assemble_dataset(config)
    except Exception as exc:
        assembly_error, shared_error = exc, f"{type(exc).__name__}: {exc}"
        assembled = AssembledData(dataset=None, consistency=[], exposure_origins={},
                                  virtual_cells={})
    timings["assemble"] = time.perf_counter() - t0

    if config.method_kind == WEIGHTED_LIKELIHOOD and shared_error is None:
        t0 = time.perf_counter()
        try:
            shared_calibration = lilee.calibrate_dataset(
                assembled.dataset, config.country_of_interest)
        except Exception as exc:  # isolated: reported on every scenario
            shared_error = f"{type(exc).__name__}: {exc}"
        timings["calibrate"] = time.perf_counter() - t0

    def finish(value, units):
        """The scenario's result once its units are done.  Its first failed
        unit, in the order fit, M, F, fails it."""
        error = shared_error
        if error is None:
            try:
                return _write_scenario(config, value, [u.result() for u in units],
                                       out_dir)
            except Exception as exc:  # one scenario never aborts the others
                error = f"{type(exc).__name__}: {exc}"
        return ScenarioResult(_scenario_label(config, value), value, "failed", error)

    # Every grid value's paths read this one read-only draw.
    t0 = time.perf_counter()
    normals = project.draw_normals(config.seed, config.n_paths,
                                   config.horizon - config.years.last)
    normals.flags.writeable = False
    timings["normals"] = time.perf_counter() - t0

    workers = jobs if jobs else len(config.method_grid)
    grid = config.method_grid if shared_error is None else ()
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        units = {value: [pool.submit(_timed, run_scenario, config, assembled.dataset,
                                     value, shared_calibration, normals)]
                 for value in grid}
        for scenario in units.values():
            if scenario[0].exception() is None:
                params, _, _, paths = scenario[0].result()[0]
                scenario += [pool.submit(_timed, _life_table_rows, config, params,
                                         paths, gender) for gender in GENDERS]
        results = [finish(value, units.pop(value, ())) for value in config.method_grid]
    timings["scenarios"] = time.perf_counter() - t0

    report = RunReport(
        config_summary={
            "country_of_interest": config.country_of_interest,
            "common_pool": list(config.common_pool),
            "years": [config.years.first, config.years.last],
            "ages": [config.ages.min_age, config.ages.max_age],
            "method": config.method_kind,
            "grid": list(config.method_grid),
            "n_paths": config.n_paths,
            "horizon": config.horizon,
            "seed": config.seed,
        },
        virtual_cells=assembled.virtual_cells,
        consistency=assembled.consistency,
        exposure_origins=assembled.exposure_origins,
        scenarios=results,
    )
    timings["scenario_seconds"] = {s.label: s.elapsed for s in results}
    timings["scenario_layers"] = {s.label: s.layers for s in results}
    # The report is moved into place last: once it is on disk, so is every
    # file it hashes, and no file that only the previous report listed.
    _remove_stale(out_dir, results)
    _publish(out_dir, {
        "timings.json": lambda path: _write_json(path, timings),
        "report.json": lambda path: _write_json(path, report.to_json(),
                                                sort_keys=True),
    })
    (out_dir / _PREVIOUS_REPORT).unlink(missing_ok=True)
    if assembly_error is not None:
        raise assembly_error
    return report


# ---------------------------------------------------------------------------
# Report diffing
# ---------------------------------------------------------------------------

def diff_reports(report_a: dict, report_b: dict, pairs=None) -> dict:
    """Structured parameter deltas (a minus b) between two run reports.

    Scenarios are paired by label, in report a's order, except that
    `pairs` maps a label of report a to the label of report b it is
    compared with (such an entry is labelled "A=B"); scenarios left
    unpaired are listed under `unmatched`.  Paired scenarios must carry
    the same parameter schema.  Antisymmetric: diff(a, b) == -diff(b, a)
    value-wise, with `pairs` inverted.
    """
    scen_a = report_a.get("scenarios", [])
    scen_b = report_b.get("scenarios", [])
    by_label_b = {s.get("label"): s for s in scen_b}
    pairs = dict(pairs or {})
    for label_a, label_b in pairs.items():
        if label_a not in {s.get("label") for s in scen_a} or label_b not in by_label_b:
            raise ValidationError(f"pair {label_a}={label_b}: no such scenarios")
    entries = []
    paired = {"a": set(), "b": set()}
    for a in scen_a:
        label = a.get("label")
        target = pairs.get(label, label)
        if target not in by_label_b:
            continue
        b = by_label_b[target]
        paired["a"].add(label)
        paired["b"].add(target)
        entry = {"label": label if target == label else f"{label}={target}"}
        pa, pb = a.get("ts_params"), b.get("ts_params")
        if pa and pb:
            if set(pa) != set(pb):
                raise ValidationError("scenario parameter schemas differ")
            entry["ts_params"] = {k: pa[k] - pb[k] for k in sorted(pa)}
            entry["loglik"] = a.get("loglik", 0.0) - b.get("loglik", 0.0)
        else:
            entry["incomparable"] = True
        entries.append(entry)
    return {
        "scenario_count": [len(scen_a), len(scen_b)],
        "scenarios": entries,
        "unmatched": {
            side: [s.get("label") for s in scen if s.get("label") not in paired[side]]
            for side, scen in (("a", scen_a), ("b", scen_b))
        },
    }
