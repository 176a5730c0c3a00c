"""Config validation, fixture bundles, pipeline orchestration and the CLI."""
import copy
import hashlib
import importlib.util
import json
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from oracles import (cumsum_expectancy, full_age_life_table_rows, np_quantile_summary,
                     outer_product_force_paths, q_space_kannisto_close,
                     relative_error, scanning_check_coverage)
from readback import import_params_csv

from mortkit import config as mk_config, dynamics, lilee, pipeline, project
from mortkit.cli import main
from mortkit.config import SourceDecl, load_run_config
from mortkit.data import AgeRange, EUROW_BUCKETS, GENDERS, PROVENANCE_CODES, QUANTITIES, \
    STMF_BUCKETS, VIRTUAL, YearRange, load_weekly_csv
from mortkit.errors import ConfigError, ValidationError
from mortkit.fixture import (FixtureParams, WeeklyDegradation, build_truth,
                             fixture_params_from_doc, make_synthetic_fixture,
                             seasonal_weights)
from mortkit.pipeline import assemble_dataset, diff_reports, run_pipeline

TRUE_THETA = {"M": -0.20, "F": -0.17}

BENCH_WORLDS = Path(__file__).resolve().parents[1] / "bench" / "worlds"


def quiet_run(config, jobs=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_pipeline(config, jobs=jobs)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def rewrite_config(root, name, **changes):
    """Clone config.yaml with overrides; relative paths stay valid."""
    with (root / "config.yaml").open() as handle:
        doc = yaml.safe_load(handle)
    doc.update(changes)
    target = root / name
    with target.open("w") as handle:
        yaml.safe_dump(doc, handle, sort_keys=False)
    return target


# ---------------------------------------------------------------------------
# Shared bundles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wbundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("weighted")
    params = FixtureParams(
        countries=("AAA", "BBB", "CCC"),
        country_of_interest="CCC",
        country_scale={"CCC": 0.5},
        years=YearRange(2004, 2020),
        phi={"M": 0.8, "F": 0.8},
        weekly=(
            WeeklyDegradation("CCC", 2019, ("STMF",), 53),
            WeeklyDegradation("CCC", 2020, ("STMF", "EUROW")),
        ),
    )
    manifest = make_synthetic_fixture(params, root)
    return root, params, manifest


@pytest.fixture(scope="module")
def wrun(wbundle):
    root, _, _ = wbundle
    config = load_run_config(root / "config.yaml")
    report = quiet_run(config)
    return config, report


@pytest.fixture(scope="module")
def assembled(wbundle):
    root, _, _ = wbundle
    return assemble_dataset(load_run_config(root / "config.yaml"))


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    """Eight calibration years: seven design rows, so zeroing the final
    weight starves the time-series fit below its effective minimum."""
    root = tmp_path_factory.mktemp("small")
    params = FixtureParams(
        countries=("AAA", "BBB"),
        ages=AgeRange(60, 90),
        years=YearRange(2013, 2020),
        phi={"M": 0.5, "F": 0.5},
        n_paths=80,
        horizon=2030,
        report_ages=(65,),
        cohort_ages=(),
    )
    make_synthetic_fixture(params, root)
    return root, params


@pytest.fixture(scope="module")
def almrun(wbundle, tmp_path_factory):
    root, _, _ = wbundle
    cfg_path = rewrite_config(
        root, "alm.yaml",
        method={"kind": "ADJUSTED_LEE_MILLER", "grid": [1.0, 0.5]},
        output_dir="out_alm",
    )
    config = load_run_config(cfg_path)
    report = quiet_run(config)
    return config, report


# ---------------------------------------------------------------------------
# Run configuration schema
# ---------------------------------------------------------------------------

def base_doc():
    def source(country):
        return {
            "path": f"data/{country}.csv", "shape": "HMD", "country": country,
            "years": {"first": 2010, "last": 2020},
            "quantities": ["deaths", "exposures"],
        }
    return {
        "country_of_interest": "AAA",
        "common_pool": ["AAA", "BBB"],
        "ages": {"min": 60, "max": 90},
        "years": {"first": 2010, "last": 2020},
        "sources": {"individual": [source("AAA"), source("BBB")]},
        "method": {"kind": "WEIGHTED_LIKELIHOOD", "grid": [1.0, 0.0]},
        "simulation": {"n_paths": 50, "horizon": 2030, "seed": 1},
        "report": {"ages": [65], "cohort_ages": []},
    }


def load_doc(tmp_path, doc):
    path = tmp_path / "cfg.yaml"
    with path.open("w") as handle:
        yaml.safe_dump(doc, handle)
    return load_run_config(path)


def coverage_outcome(check, config):
    """The message with which `check` refuses `config`, or None."""
    try:
        check(config)
    except ConfigError as exc:
        return str(exc)
    return None


@st.composite
def declarations(draw):
    """Up to six declarations over run countries AAA and BBB, one foreign
    country and years around the 2010-2020 window, a third of them weekly,
    often after two that cover the window."""
    decls = []
    if draw(st.booleans()):
        decls = [SourceDecl(paths=(Path(f"{c}.csv"),), shape="HMD", country=c,
                            years=YearRange(2010, 2020), quantities=QUANTITIES)
                 for c in ("AAA", "BBB")]
    for _ in range(draw(st.integers(0, 6))):
        country = draw(st.sampled_from(["AAA", "BBB"] * 4 + ["ZZZ"]))
        quantities = draw(st.sampled_from([QUANTITIES, ("deaths",), ("exposures",)]))
        first = draw(st.integers(2005, 2022))
        if draw(st.integers(0, 2)) == 0:
            shape, last = draw(st.sampled_from(["STMF", "EUROW"])), first
            if shape == "EUROW":
                quantities = ("deaths",)
        else:
            shape, last = "HMD", draw(st.integers(first, 2025))
        decls.append(SourceDecl(paths=(Path(f"{country}{len(decls)}.csv"),), shape=shape,
                                country=country, years=YearRange(first, last),
                                quantities=quantities))
    return decls


class TestRunConfig:
    @settings(deadline=None, max_examples=300)
    @given(declarations())
    def test_coverage_refusals_match_the_scanning_check(self, decls):
        # Counting each declaration once per checked year it covers refuses
        # the same configs as scanning every declaration per cell, with the
        # same message.
        valid = mk_config.build_run_config(base_doc(), Path("."))
        config = replace(valid, individual_sources=tuple(d for d in decls if not d.weekly),
                         weekly_sources=tuple(d for d in decls if d.weekly))
        assert coverage_outcome(mk_config._check_coverage, config) == \
            coverage_outcome(scanning_check_coverage, config)

    @pytest.mark.parametrize("world", ["projection", "ingest", "nowcast", "small"])
    def test_both_yaml_loaders_build_equal_configs(self, world, tmp_path, monkeypatch,
                                                   request):
        # The configs of the three benchmark worlds and of a test bundle.
        if world == "small":
            path = request.getfixturevalue("small_bundle")[0] / "config.yaml"
        else:
            doc = yaml.safe_load((BENCH_WORLDS / f"{world}.yaml").read_text())
            make_synthetic_fixture(fixture_params_from_doc(doc["fixture"]), tmp_path)
            path = tmp_path / "config.yaml"
        fast = load_run_config(path)
        assert mk_config._SAFE_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        monkeypatch.setattr(mk_config, "_SAFE_LOADER", yaml.SafeLoader)
        assert load_run_config(path) == fast

    def test_valid_document_parses(self, tmp_path):
        config = load_doc(tmp_path, base_doc())
        assert config.countries == ("AAA", "BBB")
        assert config.method_grid == (1.0, 0.0)
        assert config.output_dir == tmp_path / "out"

    def test_every_cell_needs_a_source(self, tmp_path):
        doc = base_doc()
        doc["sources"]["individual"][1]["years"]["last"] = 2019
        with pytest.raises(ConfigError, match=r"no source for \(BBB, 2020"):
            load_doc(tmp_path, doc)

    def test_overlapping_sources_refused(self, tmp_path):
        doc = base_doc()
        extra = copy.deepcopy(doc["sources"]["individual"][0])
        extra["path"] = "data/AAA2.csv"
        doc["sources"]["individual"].append(extra)
        with pytest.raises(ConfigError, match="2 overlapping sources"):
            load_doc(tmp_path, doc)

    def test_overlap_outside_the_window_refused(self, tmp_path):
        doc = base_doc()
        doc["sources"]["individual"][0]["years"]["first"] = 2005
        doc["sources"]["individual"].append({
            "path": "data/AAA_old.csv", "shape": "HMD", "country": "AAA",
            "years": {"first": 2000, "last": 2007}, "quantities": ["deaths"]})
        with pytest.raises(ConfigError, match=r"^2 overlapping sources for "
                                              r"\(AAA, 2005, deaths\); "):
            load_doc(tmp_path, doc)

    def test_empty_grid_refused(self, tmp_path):
        doc = base_doc()
        doc["method"]["grid"] = []
        with pytest.raises(ConfigError, match="grid must not be empty"):
            load_doc(tmp_path, doc)

    def test_grid_outside_unit_interval_refused(self, tmp_path):
        doc = base_doc()
        doc["method"]["grid"] = [0.5, 1.2]
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            load_doc(tmp_path, doc)

    def test_duplicate_grid_values_refused(self, tmp_path):
        doc = base_doc()
        doc["method"]["grid"] = [1.0, 1.0]
        with pytest.raises(ConfigError, match="distinct"):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("key", ["ages", "cohort_ages"])
    def test_duplicate_report_ages_refused(self, tmp_path, key):
        doc = base_doc()
        doc["simulation"]["horizon"] = 2100
        doc["report"][key] = [65, 70, 65]
        with pytest.raises(ConfigError, match=f"report {key} must be distinct"):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("ages", [(85, 90), (81, 100), (0, 89), (60, 60)])
    def test_model_ages_must_contain_the_fit_ages(self, tmp_path, monkeypatch, ages):
        # Refused before any source is looked at, and so before a file is
        # read: the closure of every scenario would fail on them.
        doc = base_doc()
        doc["ages"] = {"min": ages[0], "max": ages[1]}
        monkeypatch.setattr(mk_config, "_parse_source", None)
        with pytest.raises(ConfigError, match=rf"model ages \[{ages[0]}, {ages[1]}\] must "
                                              r"contain the Kannisto fit ages 80\.\.90"):
            load_doc(tmp_path, doc)

    def test_method_kind_is_case_insensitive(self, tmp_path):
        doc = base_doc()
        doc["method"]["kind"] = "weighted_likelihood"
        assert load_doc(tmp_path, doc).method_kind == "WEIGHTED_LIKELIHOOD"

    def test_unknown_method_kind_refused(self, tmp_path):
        doc = base_doc()
        doc["method"]["kind"] = "LEE_CARTER"
        with pytest.raises(ConfigError, match="method kind"):
            load_doc(tmp_path, doc)

    def test_eurow_sources_carry_no_exposures(self, tmp_path):
        doc = base_doc()
        doc["sources"]["weekly"] = [{
            "path": "weekly/AAA_2020.csv", "shape": "EUROW", "country": "AAA",
            "year": 2020, "quantities": ["exposures"],
        }]
        with pytest.raises(ConfigError, match="EUROW files carry no exposures"):
            load_doc(tmp_path, doc)

    def test_weekly_sources_force_standard_age_range(self, tmp_path):
        doc = base_doc()
        doc["sources"]["weekly"] = [{
            "path": "weekly/AAA_2020.csv", "shape": "STMF", "country": "AAA",
            "year": 2020, "quantities": ["deaths", "exposures"],
        }]
        with pytest.raises(ConfigError, match="0..90"):
            load_doc(tmp_path, doc)

    def test_weekly_sources_cover_one_year(self, tmp_path):
        doc = base_doc()
        doc["ages"] = {"min": 0, "max": 90}
        doc["sources"]["weekly"] = [{
            "path": "weekly/AAA.csv", "shape": "STMF", "country": "AAA",
            "years": {"first": 2019, "last": 2020},
            "quantities": ["deaths", "exposures"],
        }]
        with pytest.raises(ConfigError, match="one year each"):
            load_doc(tmp_path, doc)

    def test_horizon_must_extend_past_calibration(self, tmp_path):
        doc = base_doc()
        doc["simulation"]["horizon"] = 2020
        with pytest.raises(ConfigError, match="horizon"):
            load_doc(tmp_path, doc)

    def test_cohort_age_needs_reachable_top_age(self, tmp_path):
        doc = base_doc()
        doc["report"]["cohort_ages"] = [65]
        with pytest.raises(ConfigError, match="extend the simulation"):
            load_doc(tmp_path, doc)

    def test_report_age_must_be_modelled(self, tmp_path):
        doc = base_doc()
        doc["report"]["ages"] = [30]
        with pytest.raises(ConfigError, match="report age 30"):
            load_doc(tmp_path, doc)

    def test_aux_pool_needs_declared_sources(self, tmp_path):
        doc = base_doc()
        doc["ungrouping"] = {"aux_pool": ["AAA", "ZZZ"]}
        with pytest.raises(ConfigError, match="ZZZ"):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("section, key, value", [
        ("simulation", "n_paths", "many"),
        ("ages", "min", None),
        ("method", "grid", ["x"]),
    ])
    def test_malformed_value_names_key_and_section(self, tmp_path, section,
                                                   key, value):
        doc = base_doc()
        doc[section][key] = value
        with pytest.raises(ConfigError, match=f"'{key}' in {section}"):
            load_doc(tmp_path, doc)

    def test_malformed_weekly_year_names_its_source(self, tmp_path):
        doc = base_doc()
        doc["ages"] = {"min": 0, "max": 90}
        doc["sources"]["weekly"] = [{
            "path": "weekly/AAA_2020.csv", "shape": "STMF", "country": "AAA",
            "year": "2020a", "quantities": ["deaths", "exposures"],
        }]
        with pytest.raises(ConfigError, match=r"'2020a' for 'year' in sources\[2\]"):
            load_doc(tmp_path, doc)

    def test_overrides_replace_seed_and_output(self, tmp_path):
        config = load_doc(tmp_path, base_doc())
        updated = config.with_overrides(seed=99, output_dir=tmp_path / "elsewhere")
        assert updated.seed == 99
        assert updated.output_dir == tmp_path / "elsewhere"
        assert config.seed == 1


def misspelt(path, key, value):
    """An edit of `base_doc()` that sets `key` to `value` at `path`, a
    tuple of keys and list indices below the document."""
    def edit(doc):
        node = doc
        for step in path:
            node = node.setdefault(step, {}) if isinstance(step, str) else node[step]
        node[key] = value
    return edit


class TestUnreadKeys:
    """Every mapping of a run config and of fixture params is refused when
    it holds a key its reader does not read, naming the key and where."""

    @pytest.mark.parametrize("edit, message", [
        (misspelt(("ungrouping",), "death_alocation_rate", {"M": 0.3}),
         "unknown key 'death_alocation_rate' in ungrouping"),
        (misspelt((), "reprot", {"ages": [0]}), "unknown key 'reprot' in config"),
        (misspelt(("simulation",), "n_path", 10), "unknown key 'n_path' in simulation"),
        (misspelt(("ages",), "mx", 90), "unknown key 'mx' in ages"),
        (misspelt(("years",), "frist", 2010), "unknown key 'frist' in years"),
        (misspelt(("sources",), "indvidual", []), "unknown key 'indvidual' in sources"),
        (misspelt(("sources", "individual", 1), "quantity", ["deaths"]),
         "unknown key 'quantity' in sources[1]"),
        (misspelt(("sources", "individual", 0, "years"), "lst", 2020),
         "unknown key 'lst' in sources[0].years"),
        (misspelt(("sources", "individual", 0), "paths", ["data/AAA.csv"]),
         "sources[0]: give 'path' or 'paths', not both"),
        (misspelt(("sources", "individual", 0), "year", 2010),
         "sources[0]: give 'year' or 'years', not both"),
        (misspelt(("method",), "grids", [1.0]), "unknown key 'grids' in method"),
        (misspelt(("report",), "cohort_age", [65]), "unknown key 'cohort_age' in report"),
        (misspelt(("ungrouping", "death_allocation_rate"), "m", 0.3),
         "unknown key 'm' in ungrouping.death_allocation_rate"),
        (misspelt(("ungrouping", "reference_year"), "ZZZ", 2015),
         "unknown key 'ZZZ' in ungrouping.reference_year"),
        (misspelt(("ungrouping", "aux_start_year"), "ZZZ", 2012),
         "unknown key 'ZZZ' in ungrouping.aux_start_year"),
        (misspelt((), "ungrouping", ["aux_pool"]), "ungrouping must be a mapping"),
    ], ids=["death_alocation_rate", "reprot", "n_path", "ages", "years", "sources",
            "source", "source-years", "path-and-paths", "year-and-years", "method",
            "report", "rate-gender", "reference-country", "aux-start-country",
            "not-a-mapping"])
    def test_run_config_refuses_an_unread_key(self, tmp_path, edit, message):
        doc = base_doc()
        edit(doc)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("edit, message", [
        (misspelt(("ungrouping",), "death_alocation_rate", {"M": 0.3}),
         "unknown key 'death_alocation_rate' in ungrouping"),
        (misspelt((), "reprot", {"ages": [0]}), "unknown key 'reprot' in config"),
        (misspelt(("simulation",), "n_path", 10), "unknown key 'n_path' in simulation"),
    ], ids=["death_alocation_rate", "reprot", "n_path"])
    def test_run_prints_the_unread_key_on_one_line(self, tmp_path, edit, message):
        doc = base_doc()
        edit(doc)
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert_run_fails_on_one_line(config, message)

    def test_every_key_read_is_accepted(self, tmp_path):
        # AAA's first year as a one-year `year` declaration of a `paths`
        # list, next to the `path` and `years` forms.
        doc = base_doc()
        aaa = doc["sources"]["individual"][0]
        doc["sources"]["individual"].append({**aaa, "years": {"first": 2011,
                                                              "last": 2020}})
        del aaa["path"], aaa["years"]
        aaa.update(paths=["data/AAA.csv"], year=2010)
        doc["ungrouping"] = {"aux_start_year": {"default": 2011, "BBB": 2012},
                             "aux_pool": ["AAA"],
                             "death_allocation_rate": {"M": 0.3, "F": 0.25},
                             "reference_year": {"AAA": 2015}}
        doc["output_dir"] = "elsewhere"
        config = load_doc(tmp_path, doc)
        assert config.individual_sources[0].years == YearRange(2010, 2010)
        assert config.aux_start_year == {"default": 2011, "BBB": 2012}
        assert config.aux_pool == ("AAA",)
        assert config.death_allocation_rate == {"M": 0.3, "F": 0.25}
        assert config.reference_year == {"AAA": 2015}
        assert config.output_dir == tmp_path / "elsewhere"

    @pytest.mark.parametrize("doc, message", [
        ({"n_path": 10}, "unknown key 'n_path' in fixture params"),
        ({"ages": {"min": 0, "mx": 90}}, "unknown key 'mx' in fixture params.ages"),
        ({"years": {"first": 2000, "lst": 2019}},
         "unknown key 'lst' in fixture params.years"),
        ({"theta": {"M": -0.2, "f": -0.1}}, "unknown key 'f' in fixture params.theta"),
        ({"countries": ["AAA", "CCC"], "country_scale": {"BBB": 0.5}},
         "unknown key 'BBB' in fixture params.country_scale"),
        ({"shock": {"year": 2010, "log_factor": 0.1, "min_ages": 60}},
         "unknown key 'min_ages' in fixture params.shock"),
        ({"method": {"grid": [1.0], "knd": "WEIGHTED_LIKELIHOOD"}},
         "unknown key 'knd' in fixture params.method"),
        ({"weekly": [{"country": "AAA", "year": 2019},
                     {"country": "BBB", "year": 2019, "week": 53}]},
         "unknown key 'week' in fixture params.weekly[1]"),
    ], ids=["n_path", "ages", "years", "theta", "country_scale", "shock", "method",
            "weekly"])
    def test_fixture_params_refuse_an_unread_key(self, doc, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            fixture_params_from_doc(doc)

    def test_fixture_prints_the_unread_key_on_one_line(self, tmp_path):
        params = tmp_path / "params.yaml"
        params.write_text("n_path: 10\n")
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from mortkit.cli import main; sys.exit(main(sys.argv[2:]))")
        done = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).resolve().parents[1] / "src"),
             "fixture", "--params", str(params), "--out", str(tmp_path / "world")],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert done.stderr.splitlines() == [
            "error: unknown key 'n_path' in fixture params"]
        assert not (tmp_path / "world").exists()

    def test_every_fixture_key_read_is_accepted(self):
        doc = {"countries": ["AAA", "BBB"], "country_of_interest": "BBB",
               "country_scale": {"BBB": 0.5}, "ages": {"min": 0, "max": 90},
               "years": {"first": 2001, "last": 2019}, "base_exposure": 4e4,
               "sigma_K": 0.1, "sigma_kappa": 0.05, "alpha_scale": 0.04, "seed": 3,
               "n_paths": 20, "sim_seed": 4, "theta": {"M": -0.1, "F": -0.2},
               "phi": {"M": 0.9, "F": 0.8}, "ar_intercept": {"M": 0.01, "F": 0.02},
               "horizon": 2040, "shock": {"year": 2010, "log_factor": 0.1,
                                          "min_age": 60},
               "stmf_exposure_column": False, "report_ages": [65],
               "cohort_ages": [], "method": {"kind": "ADJUSTED_LEE_MILLER",
                                             "grid": [1.0]},
               "weekly": [{"country": "AAA", "year": 2019, "shapes": ["STMF"],
                           "weeks": 53, "constituents": {}}]}
        params = fixture_params_from_doc(doc)
        assert (params.country_of_interest, params.n_paths, params.horizon,
                params.stmf_exposure_column, params.method_grid) == \
            ("BBB", 20, 2040, False, (1.0,))
        assert params.weekly[0].weeks == 53

    @pytest.mark.parametrize("world", sorted(p.stem for p in BENCH_WORLDS.glob("*.yaml")))
    def test_bench_worlds_load_under_the_strict_readers(self, world, tmp_path):
        # A misspelt key in a benchmark world would otherwise change its
        # workload unseen.
        doc = yaml.safe_load((BENCH_WORLDS / f"{world}.yaml").read_text())
        params = fixture_params_from_doc(doc["fixture"])
        config = load_run_config(make_synthetic_fixture(params, tmp_path)["config"])
        assert (config.n_paths, config.method_grid) == (params.n_paths,
                                                        params.method_grid)


class TestMalformedValues:
    """A value of the wrong kind in a run config or in fixture params is
    refused on one `error:` line that names the key and its section; it is
    never read as something else (a string as a list of its letters, the
    string "false" as true)."""

    @pytest.mark.parametrize("edit, message", [
        (misspelt((), "common_pool", 5), "bad value 5 for 'common_pool' in config"),
        (misspelt((), "report", {"ages": 65}), "bad value 65 for 'ages' in report"),
        (misspelt(("method",), "grid", 1.0), "bad value 1.0 for 'grid' in method"),
        (misspelt((), "sources", {"individual": 5}),
         "bad value 5 for 'individual' in sources"),
        (misspelt(("sources", "individual", 0), "quantities", 5),
         "bad value 5 for 'quantities' in sources[0]"),
        (misspelt(("sources", "individual", 0), "path", 5),
         "bad value 5 for 'path' in sources[0]"),
        (misspelt(("ungrouping",), "aux_pool", "AAA"),
         "bad value 'AAA' for 'aux_pool' in ungrouping"),
        (misspelt(("report",), "cohort_ages", "65"),
         "bad value '65' for 'cohort_ages' in report"),
        (misspelt((), "country_of_interest", ["AAA"]),
         "bad value ['AAA'] for 'country_of_interest' in config"),
        (misspelt(("simulation",), "seed", True), "bad value True for 'seed' in simulation"),
        (misspelt(("report",), "ages", [65.7]), "bad value [65.7] for 'ages' in report"),
        (misspelt(("method",), "grid", [True]), "bad value [True] for 'grid' in method"),
    ], ids=["common_pool", "report-ages", "method-grid", "sources-individual",
            "source-quantities", "source-path", "aux_pool", "cohort_ages",
            "country_of_interest", "seed-true", "report-age-float", "grid-true"])
    def test_run_refuses_it_on_one_line(self, tmp_path, capsys, edit, message):
        doc = base_doc()
        edit(doc)
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("text, message", [
        ("countries: 5\n", "bad value 5 for 'countries' in fixture params"),
        ("report_ages: 65\n", "bad value 65 for 'report_ages' in fixture params"),
        ("weekly: 5\n", "bad value 5 for 'weekly' in fixture params"),
        ("method: {grid: 1.0}\n", "bad value 1.0 for 'grid' in fixture params.method"),
        ("weekly:\n  - {country: AAA}\n",
         "missing key 'year' in fixture params.weekly[0]"),
        ("ages: {min: 0}\n", "missing key 'max' in fixture params.ages"),
        ("theta: {M: x}\n", "bad value 'x' for 'M' in fixture params.theta"),
        ('stmf_exposure_column: "false"\n',
         "bad value 'false' for 'stmf_exposure_column' in fixture params"),
        ("countries: [AAA\n", "cannot read fixture params {params}: "),
        ("seed: 1.5\n", "bad value 1.5 for 'seed' in fixture params"),
    ], ids=["countries", "report_ages", "weekly", "method-grid", "weekly-year",
            "ages-max", "theta", "stmf_exposure_column", "not-yaml", "seed-float"])
    def test_fixture_refuses_it_on_one_line(self, tmp_path, capsys, text, message):
        params = tmp_path / "params.yaml"
        params.write_text(text)
        assert main(["fixture", "--params", str(params),
                     "--out", str(tmp_path / "world")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        message = message.format(params=params)
        # PyYAML's C and Python parsers word a syntax error differently.
        assert line == f"error: {message}" or \
            message.endswith(": ") and line.startswith(f"error: {message}")
        assert not (tmp_path / "world").exists()

    def test_a_null_optional_key_takes_its_default(self, tmp_path):
        doc = base_doc()
        doc.update(report={"ages": [65], "cohort_ages": None}, output_dir=None,
                   ungrouping={"aux_pool": None})
        config = load_doc(tmp_path, doc)
        assert config.cohort_ages == ()
        assert config.output_dir == tmp_path / "out"
        assert config.aux_pool == config.common_pool
        assert fixture_params_from_doc({"horizon": None, "shock": None}) == FixtureParams()


# ---------------------------------------------------------------------------
# Fixture bundles
# ---------------------------------------------------------------------------

class TestFixtureBundle:
    def test_manifest_files_exist(self, wbundle):
        root, _, manifest = wbundle
        assert (root / "config.yaml").exists()
        for rel in manifest["individual"] + manifest["weekly"]:
            assert (root / rel).exists()
        assert (root / manifest["truth"]["CCC"]).exists()

    def test_degraded_years_left_out_of_observed_files(self, wbundle):
        root, _, _ = wbundle
        lines = (root / "data" / "CCC.csv").read_text().splitlines()
        years = {int(line.split(",")[1]) for line in lines[1:]}
        assert years == set(range(2004, 2019))

    def test_seasonal_weights_normalized(self):
        for weeks in (52, 53):
            w = seasonal_weights(weeks)
            assert w.shape == (weeks,)
            assert w.sum() == pytest.approx(1.0, abs=1e-15)
            assert np.all(w > 0)

    def test_53_week_year_annualizes_with_52_53_factor(self, wbundle):
        root, params, _ = wbundle
        truth = build_truth(params)
        series = load_weekly_csv(root / "weekly" / "CCC_2019_stmf.csv",
                                 "STMF", year=2019, gender="M")
        assert series.week_count == 53
        from mortkit.data import annualize_weekly_deaths
        annual = annualize_weekly_deaths(series)
        j = params.years.index(2019)
        col = truth.deaths[("CCC", "M")][:, j]
        for bucket in STMF_BUCKETS:
            raw = series.deaths[bucket].sum()
            assert annual.deaths[bucket] == pytest.approx(raw * 52.0 / 53.0,
                                                          rel=1e-9)
            lo = bucket.lower
            hi = 90 if bucket.is_open else bucket.upper
            assert annual.deaths[bucket] == pytest.approx(
                col[lo:hi + 1].sum(), rel=1e-9)

    def test_truth_file_covers_degraded_cells(self, wbundle):
        root, _, manifest = wbundle
        lines = (root / manifest["truth"]["CCC"]).read_text().splitlines()
        assert len(lines) - 1 == 91 * 2 * 2

    def test_weekly_year_must_follow_an_observed_year(self, tmp_path):
        params = FixtureParams(
            weekly=(WeeklyDegradation("AAA", 2000, ("STMF",)),))
        with pytest.raises(ConfigError, match="after the first"):
            make_synthetic_fixture(params, tmp_path)

    def test_constituent_shares_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            WeeklyDegradation("UNK", 2020, ("STMF",),
                              constituents={"AAA": 0.6, "BBB": 0.3})


# ---------------------------------------------------------------------------
# Assembly: ungrouping, provenance, cross-checks
# ---------------------------------------------------------------------------

class TestAssembly:
    def test_each_weekly_file_parsed_once(self, wbundle):
        root, _, _ = wbundle
        config = load_run_config(root / "config.yaml")
        with warnings.catch_warnings(), mock.patch.object(
                pipeline, "load_weekly_csv", wraps=pipeline.load_weekly_csv) as load:
            warnings.simplefilter("ignore", RuntimeWarning)
            assemble_dataset(config)
        assert sorted(str(c.args[0]) for c in load.call_args_list) == \
            sorted(str(p) for decl in config.weekly_sources for p in decl.paths)
        assert all(c.kwargs["gender"] == GENDERS for c in load.call_args_list)

    def test_virtual_cells_match_declared_weekly_coverage(self, assembled):
        assert assembled.virtual_cells == {
            "AAA": {"deaths": 0, "exposures": 0},
            "BBB": {"deaths": 0, "exposures": 0},
            "CCC": {"deaths": 91 * 2 * 2, "exposures": 91 * 2 * 2},
        }

    def test_consistency_recorded_for_dual_shape_years(self, assembled):
        assert len(assembled.consistency) == 2
        for record in assembled.consistency:
            assert record["country"] == "CCC"
            assert record["year"] == 2020
            assert record["comparable"] and record["consistent"]
            assert record["mismatches"] == 0

    def test_exposure_origin_recorded_per_gender_year(self, assembled):
        assert assembled.exposure_origins == {
            "CCC/2019/M": "column", "CCC/2019/F": "column",
            "CCC/2020/M": "column", "CCC/2020/F": "column",
        }

    def test_observed_cells_pass_through_exactly(self, wbundle, assembled):
        _, params, _ = wbundle
        truth = build_truth(params)
        surface = assembled.dataset.surface("CCC", "F")
        j = params.years.index(2018)
        np.testing.assert_array_equal(surface.deaths[:, j],
                                      truth.deaths[("CCC", "F")][:, j])
        np.testing.assert_array_equal(surface.exposures[:, j],
                                      truth.exposures[("CCC", "F")][:, j])
        assert np.all(surface.deaths_provenance[:, j] == PROVENANCE_CODES.index("HMD"))

    def test_virtual_columns_flagged(self, wbundle, assembled):
        _, params, _ = wbundle
        surface = assembled.dataset.surface("CCC", "M")
        for year in (2019, 2020):
            j = params.years.index(year)
            assert np.all(surface.deaths_provenance[:, j] == VIRTUAL)
            assert np.all(surface.exposures_provenance[:, j] == VIRTUAL)

    def test_ungrouped_deaths_conserve_closed_buckets(self, wbundle, assembled):
        root, params, _ = wbundle
        surface = assembled.dataset.surface("CCC", "M")
        j = params.years.index(2020)
        series = load_weekly_csv(root / "weekly" / "CCC_2020_eurow.csv",
                                 "EUROW", year=2020, gender="M")
        for bucket in EUROW_BUCKETS:
            if bucket.is_open:
                continue
            annual_total = series.deaths[bucket].sum()   # 52-week year
            assert surface.deaths[bucket.lower:bucket.upper + 1, j].sum() == \
                pytest.approx(annual_total, rel=1e-9)

    def test_ungrouped_exposures_conserve_closed_buckets(self, wbundle,
                                                         assembled):
        root, params, _ = wbundle
        surface = assembled.dataset.surface("CCC", "F")
        j = params.years.index(2019)
        series = load_weekly_csv(root / "weekly" / "CCC_2019_stmf.csv",
                                 "STMF", year=2019, gender="F")
        for bucket in STMF_BUCKETS:
            if bucket.is_open:
                continue
            annual_total = 52.0 * series.exposures[bucket][0]
            assert surface.exposures[bucket.lower:bucket.upper + 1, j].sum() \
                == pytest.approx(annual_total, rel=1e-9)

    def test_gap_in_auxiliary_window_named_by_cell(self, wbundle, tmp_path):
        # AAA lacks one row inside the auxiliary model's window (CCC's
        # observed years), so ungrouping CCC's deaths refuses that cell.
        root, _, _ = wbundle
        bundle = shutil.copytree(root, tmp_path / "bundle")
        data = bundle / "data" / "AAA.csv"
        lines = data.read_text().splitlines(keepends=True)
        data.write_text("".join(line for line in lines
                                if not line.startswith("AAA,2010,M,30,")))
        assembler = pipeline._Assembler(load_run_config(bundle / "config.yaml"))
        assembler.load_sources()
        with warnings.catch_warnings(), pytest.raises(
                ValidationError, match=r"^AAA/M: no source produced deaths for "
                                       r"age 30, year 2010 \(and 0 more cells\)$"):
            warnings.simplefilter("ignore", RuntimeWarning)
            assembler.ungroup_all()

    @staticmethod
    def _weekly_year_assembler(tmp_path, year):
        """AAA and BBB over 2004-2019, with AAA's `year` as STMF only."""
        make_synthetic_fixture(FixtureParams(
            years=YearRange(2004, 2019),
            weekly=(WeeklyDegradation("AAA", year, ("STMF",)),)), tmp_path)
        assembler = pipeline._Assembler(load_run_config(tmp_path / "config.yaml"))
        assembler.load_sources()
        return assembler

    def test_auxiliary_window_ends_before_a_weekly_year(self, tmp_path):
        # AAA 2016 is ungrouped with the auxiliary model, so the model is
        # fitted on 2004-2015 though 2017-2019 are observed again.
        assembler = self._weekly_year_assembler(tmp_path, 2016)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assembler.ungroup_all()
        assert assembler._aux_cache["AAA"].years == YearRange(2004, 2015)
        assert assembler.build().virtual_cells["AAA"] == {
            "deaths": 91 * 2, "exposures": 91 * 2}

    def test_auxiliary_window_before_a_weekly_year_needs_eight_years(self, tmp_path):
        assembler = self._weekly_year_assembler(tmp_path, 2011)
        with warnings.catch_warnings(), pytest.raises(
                ValidationError, match=r"^auxiliary window \[2004, 2010\] too short; "
                                       r"time dynamics need >= 8 years$"):
            warnings.simplefilter("ignore", RuntimeWarning)
            assembler.ungroup_all()

    def test_weekly_death_year_before_the_auxiliary_window_is_named(self, tmp_path):
        # The window starts at aux_start_year 2005, after BBB's STMF-only 2003.
        make_synthetic_fixture(FixtureParams(
            n_paths=20, cohort_ages=(),
            weekly=(WeeklyDegradation("BBB", 2003, ("STMF",)),)), tmp_path)
        config = load_run_config(rewrite_config(
            tmp_path, "late.yaml",
            ungrouping={"aux_pool": ["AAA", "BBB"], "aux_start_year": 2005}))
        with warnings.catch_warnings(), pytest.raises(
                ValidationError, match=r"^BBB/2003: weekly deaths must follow the "
                                       r"auxiliary window \[2005, 2019\] "
                                       r"\(ungrouping\.aux_start_year\)$"):
            warnings.simplefilter("ignore", RuntimeWarning)
            assemble_dataset(config)


# ---------------------------------------------------------------------------
# Weighted scenarios end to end
# ---------------------------------------------------------------------------

class TestWeightedScenarios:
    def test_all_scenarios_succeed(self, wrun):
        _, report = wrun
        assert report.all_ok
        assert [s.label for s in report.scenarios] == ["w1", "w0"]

    def test_scenarios_share_one_calibration(self, wrun):
        _, report = wrun
        first, second = report.scenarios
        assert first.hashes[first.files["params"]] == \
            second.hashes[second.files["params"]]
        assert first.hashes[first.files["tsfit"]] != \
            second.hashes[second.files["tsfit"]]

    def test_drift_recovered_within_sampling_error(self, wrun):
        _, report = wrun
        transitions = 16
        bound = 3 * 0.15 / np.sqrt(transitions)
        for scenario in report.scenarios:
            for gender in ("M", "F"):
                est = scenario.ts_params[f"theta_{gender}"]
                assert abs(est - TRUE_THETA[gender]) < bound

    def test_stationarity_flags_mirror_parameters(self, wrun):
        _, report = wrun
        for scenario in report.scenarios:
            for gender in ("M", "F"):
                flagged = scenario.stationary[gender]
                assert flagged == (abs(scenario.ts_params[f"phi_{gender}"]) < 1)

    def test_report_carries_fixed_point_diagnostic(self, wrun):
        config, _ = wrun
        with (config.output_dir / "report.json").open() as handle:
            scenarios = json.load(handle)["scenarios"]
        for scenario in scenarios:
            assert 0.0 <= scenario["score_norm"] < 1e-9

    def test_report_carries_parameter_standard_errors(self, wrun):
        config, _ = wrun
        with (config.output_dir / "report.json").open() as handle:
            scenarios = json.load(handle)["scenarios"]
        ok = [s for s in scenarios if s["status"] == "ok"]
        assert ok
        for scenario in ok:
            se = scenario["ts_se"]
            assert sorted(se) == sorted(dynamics.PSI_NAMES)
            assert all(np.isfinite(v) and v > 0 for v in se.values())

    def test_report_file_round_trips(self, wrun):
        config, report = wrun
        with (config.output_dir / "report.json").open() as handle:
            on_disk = json.load(handle)
        assert on_disk == json.loads(json.dumps(report.to_json()))

    def test_output_hashes_match_contents(self, wrun):
        config, report = wrun
        for scenario in report.scenarios:
            for name, digest in scenario.hashes.items():
                assert sha256(config.output_dir / name) == digest

    def test_rerun_is_byte_identical(self, wbundle, wrun, tmp_path):
        root, _, _ = wbundle
        config, _ = wrun
        redo = load_run_config(root / "config.yaml").with_overrides(
            output_dir=tmp_path / "redo")
        quiet_run(redo)
        names = sorted(p.name for p in config.output_dir.iterdir())
        assert names == sorted(p.name for p in redo.output_dir.iterdir())
        for name in names:
            if name == "timings.json":
                continue
            assert (config.output_dir / name).read_bytes() == \
                (redo.output_dir / name).read_bytes(), name

    def test_timings_sidecar_reports_stages(self, wrun):
        config, report = wrun
        with (config.output_dir / "timings.json").open() as handle:
            timings = json.load(handle)
        assert {"assemble", "calibrate", "normals", "scenarios"} <= set(timings)
        assert set(timings["scenario_seconds"]) == \
            {s.label for s in report.scenarios}

    def test_timings_sidecar_reports_scenario_layers(self, wrun):
        config, report = wrun
        with (config.output_dir / "timings.json").open() as handle:
            timings = json.load(handle)
        layers = timings["scenario_layers"]
        assert set(layers) == {s.label for s in report.scenarios}
        for label, times in layers.items():
            assert set(times) == {"dynamics", "simulate", "life_tables",
                                  "quantiles", "write"}
            assert all(t > 0.0 for t in times.values())
            assert sum(times.values()) <= timings["scenario_seconds"][label]
        report_text = (config.output_dir / "report.json").read_text()
        assert "life_tables" not in report_text


def test_adjusted_scenarios_time_their_own_calibration(almrun):
    config, report = almrun
    with (config.output_dir / "timings.json").open() as handle:
        layers = json.load(handle)["scenario_layers"]
    assert set(layers) == {s.label for s in report.scenarios}
    assert all("calibrate" in times for times in layers.values())


def test_failed_scenario_reports_no_layer_times(mixed):
    config, _ = mixed
    with (config.output_dir / "timings.json").open() as handle:
        layers = json.load(handle)["scenario_layers"]
    assert layers["w0"] == {}
    assert "life_tables" in layers["w1"]


def read_fanchart(path):
    """Parse rows into {(quantity, gender, age, year): {probe: value}}."""
    groups = {}
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "quantity,gender,age,year,probe,value"
    order = []
    for line in lines[1:]:
        quantity, gender, age, year, probe, value = line.split(",")
        key = (quantity, gender, None if age == "" else int(age), int(year))
        groups.setdefault(key, {})[probe] = float(value)
        order.append(key)
    return groups, order


@pytest.fixture(scope="module")
def chart(wrun):
    config, report = wrun
    scenario = report.scenarios[0]
    groups, order = read_fanchart(
        config.output_dir / scenario.files["fanchart"])
    return config, scenario, groups, order


class TestFanChart:
    def test_every_group_has_all_probes(self, chart):
        _, _, groups, _ = chart
        for probes in groups.values():
            assert list(probes) == ["0.005", "0.5", "0.995", "best"]

    def test_quantities_appear_in_fixed_order(self, chart):
        _, _, _, order = chart
        ranks = [("K", "kappa", "q", "e_per", "e_coh").index(k[0])
                 for k in order]
        assert ranks == sorted(ranks)

    def test_quantiles_monotone_within_groups(self, chart):
        _, _, groups, _ = chart
        for probes in groups.values():
            assert probes["0.005"] <= probes["0.5"] <= probes["0.995"]

    def test_period_effects_span_jump_off_to_horizon(self, chart):
        config, _, groups, _ = chart
        years = sorted(y for (q, g, a, y) in groups if q == "K" and g == "M")
        assert years[0] == config.years.last
        assert years[-1] == config.horizon
        assert len(years) == config.horizon - config.years.last + 1

    def test_jump_off_rows_equal_calibrated_state(self, chart):
        config, scenario, groups, _ = chart
        params = import_params_csv(config.output_dir / scenario.files["params"])
        for gender in ("M", "F"):
            row = groups[("K", gender, None, config.years.last)]
            assert row["best"] == params[gender].K[-1]
            assert row["0.005"] == row["0.995"] == row["best"]

    def test_probability_rows_cover_report_ages(self, chart):
        config, _, groups, _ = chart
        ages = {a for (q, g, a, y) in groups if q == "q"}
        assert ages == set(config.report_ages)
        values = [v for (q, g, a, y), probes in groups.items()
                  for v in probes.values() if q == "q"]
        assert all(0.0 < v < 1.0 for v in values)

    def test_life_expectancies_respect_bounds(self, chart):
        _, _, groups, _ = chart
        for (quantity, gender, age, year), probes in groups.items():
            if quantity not in ("e_per", "e_coh"):
                continue
            for value in probes.values():
                assert 0.0 < value <= 121 - age

    def test_cohort_rows_sit_at_the_jump_off_year(self, chart):
        config, _, groups, _ = chart
        keys = [k for k in groups if k[0] == "e_coh"]
        assert {k[3] for k in keys} == {config.years.last}
        assert {k[2] for k in keys} == set(config.cohort_ages)


def two_pass_fanchart_rows(config, params, fit):
    """The fan-chart rows (quantity, gender, age, year, probe, value) as
    computed before the central path joined the path batch: the central
    path ran through its own copy of the life tables, closed in
    death-probability space, with one cumulative-sum expectancy kernel per
    report age, forces from outer products and quantiles from
    `np.quantile`.  Kept as the oracle for the fan chart written from the
    blocks of `pipeline._life_table_rows`."""
    spec = batch_spec(config, params)
    paths = project.simulate_period_effects(fit, spec)
    central = project.central_period_effects(fit, spec)
    probes = project.DEFAULT_PROBES
    names = [format(p, "g") for p in probes] + ["best"]
    records = []

    def emit(quantity, gender, age, year, samples, best):
        levels = np_quantile_summary(samples, probes)
        for name, value in zip(names, [*levels, best]):
            records.append((quantity, gender, age, int(year), name, float(value)))

    for gender in GENDERS:
        for j, year in enumerate(paths.years):
            emit("K", gender, None, year, paths.K[gender][:, j],
                 central.K[gender][0, j])
            emit("kappa", gender, None, year, paths.kappa[gender][:, j],
                 central.kappa[gender][0, j])

    span = {a: project.MAX_AGE - a + 1 for a in config.cohort_ages}
    a0 = config.ages.min_age
    for gender in GENDERS:
        diag = {a: np.empty((config.n_paths, span[a])) for a in config.cohort_ages}
        diag_c = {a: np.empty((1, span[a])) for a in config.cohort_ages}
        for j, year in enumerate(paths.years):
            mu = outer_product_force_paths(params[gender], paths, gender, int(year))
            mu_c = outer_product_force_paths(params[gender], central, gender,
                                             int(year))
            q = -np.expm1(-mu)
            q_c = -np.expm1(-mu_c)
            mu_cl = -np.log1p(-q_space_kannisto_close(q, a0))
            mu_cl_c = -np.log1p(-q_space_kannisto_close(q_c, a0))
            for age in config.report_ages:
                i = config.ages.index(age)
                emit("q", gender, age, year, q[:, i], q_c[0, i])
                emit("e_per", gender, age, year,
                     cumsum_expectancy(mu_cl[:, age - a0:]),
                     float(cumsum_expectancy(mu_cl_c[:, age - a0:])[0]))
            for age, width in span.items():
                if j < width:
                    diag[age][:, j] = mu_cl[:, age + j - a0]
                    diag_c[age][:, j] = mu_cl_c[:, age + j - a0]
        for age in config.cohort_ages:
            e_coh = cumsum_expectancy(diag[age])
            e_coh_c = cumsum_expectancy(diag_c[age])
            emit("e_coh", gender, age, paths.years[0], e_coh, float(e_coh_c[0]))

    order = {q: i for i, q in enumerate(pipeline._QUANTITY_ORDER)}
    records.sort(key=lambda r: (order[r[0]], r[1], -1 if r[2] is None else r[2],
                                r[3], names.index(r[4])))
    return records


@pytest.fixture(scope="module")
def fanchart_inputs(small_bundle):
    """Config, params and dynamics fit of the small bundle's w1 scenario,
    with a second report age and a horizon that reaches age 120 from 65."""
    root, _ = small_bundle
    config = load_run_config(root / "config.yaml")
    dataset = assemble_dataset(config).dataset
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        params, _ = lilee.calibrate_dataset(dataset, config.country_of_interest)
        fit = dynamics.fit_period_effects(params)
    config = replace(config, n_paths=30, horizon=2075, report_ages=(65, 80))
    return config, params, fit


def batch_spec(config, params):
    """The scenario spec of `config`, jumping off from the calibrated state."""
    return project.ScenarioSpec(
        jump_off_year=config.years.last, horizon=config.horizon,
        n_paths=config.n_paths, seed=config.seed,
        jump_off=(float(params["M"].K[-1]), float(params["M"].kappa[-1]),
                  float(params["F"].K[-1]), float(params["F"].kappa[-1])),
    )


def write_fanchart(config, params, fit, path):
    """Write the fan chart of both genders' life-table units over one path
    batch to `path`, as the write step writes it."""
    paths = project.path_batch(fit, batch_spec(config, params))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pipeline._write_fanchart(path, [
            block for gender in GENDERS
            for block in pipeline._life_table_rows(config, params, paths, gender, {})])


def fanchart_rows(path):
    """The (quantity, gender, age, year, probe, value) rows of a fan chart."""
    rows = []
    for line in Path(path).read_text().splitlines()[1:]:
        quantity, gender, age, year, probe, value = line.split(",")
        rows.append((quantity, gender, None if age == "" else int(age), int(year),
                     probe, float(value)))
    return rows


class TestFanChartRows:
    @pytest.mark.parametrize("cohort_ages", [(65,), ()])
    def test_matches_the_two_pass_oracle(self, fanchart_inputs, cohort_ages,
                                         tmp_path):
        config, params, fit = fanchart_inputs
        config = replace(config, cohort_ages=cohort_ages)
        write_fanchart(config, params, fit, tmp_path / "fanchart.csv")
        got = fanchart_rows(tmp_path / "fanchart.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = two_pass_fanchart_rows(config, params, fit)
        assert [r[:5] for r in got] == [r[:5] for r in want]
        assert relative_error([r[5] for r in got], [r[5] for r in want]) < 1e-12
        # Only the expectancies come from reordered arithmetic.
        assert [r for r in got if not r[0].startswith("e_")] == \
            [r for r in want if not r[0].startswith("e_")]
        assert bool(cohort_ages) == any(r[0] == "e_coh" for r in got)

    def test_order_of_the_ages_does_not_matter(self, fanchart_inputs, tmp_path):
        config, params, fit = fanchart_inputs
        for name, report_ages, cohort_ages in (("given", (80, 65), (70, 65)),
                                               ("sorted", (65, 80), (65, 70))):
            write_fanchart(replace(config, report_ages=report_ages,
                                   cohort_ages=cohort_ages),
                           params, fit, tmp_path / name)
        assert (tmp_path / "given").read_bytes() == (tmp_path / "sorted").read_bytes()

    @pytest.mark.parametrize("cohort_ages", [(65, 70), ()])
    def test_one_life_table_pass_per_gender_and_year(self, fanchart_inputs,
                                                     cohort_ages, monkeypatch):
        """One life-table unit computes quantiles once per block of years,
        forces and sums once per band of ages of each block and closes
        once per block, plus the cohort's calls: the counts the
        benchmark's per-layer figures rest on.  Blocks hold as many whole
        years as fit in the column budget: here all years, four years or
        one.  The model ages 60..90 make two bands, the closure's 80..120
        and 60..79, and the expectancies start at the report age 65."""
        config, params, fit = fanchart_inputs
        config = replace(config, cohort_ages=cohort_ages)
        paths = project.path_batch(fit, batch_spec(config, params))
        rows, n_years = config.n_paths + 1, config.horizon - config.years.last + 1
        names = ("force_paths", "kannisto_close", "period_life_expectancy",
                 "quantile_summary")
        for budget, per_block in ((pipeline.LIFE_TABLE_COLUMNS, n_years),
                                  (4 * rows + rows - 1, 4), (rows, 1)):
            n_blocks = -(-n_years // per_block)
            monkeypatch.setattr(pipeline, "LIFE_TABLE_COLUMNS", budget)
            with warnings.catch_warnings(), ExitStack() as stack:
                warnings.simplefilter("ignore", RuntimeWarning)
                calls = {name: stack.enter_context(mock.patch.object(
                             project, name, wraps=getattr(project, name)))
                         for name in names}
                pipeline._life_table_rows(config, params, paths, "F", {})
            assert {name: calls[name].call_count for name in names} == {
                "force_paths": 2 * n_blocks, "kannisto_close": n_blocks,
                "period_life_expectancy": 2 * n_blocks + len(cohort_ages),
                "quantile_summary": n_blocks + bool(cohort_ages)}, budget
            blocks = [(int(paths.years[first]), min(per_block, n_years - first))
                      for first in range(0, n_years, per_block)]
            assert [(c.args[3], c.kwargs["n_years"], c.kwargs["ages"])
                    for c in calls["force_paths"].call_args_list] == [
                (year, n, ages) for year, n in blocks for ages in ((80, 90), (60, 79))]
            assert [(c.args[0].shape, c.args[1]) for c in
                    calls["kannisto_close"].call_args_list] == [
                ((n * rows, 11), 80) for _, n in blocks]
            summed = calls["period_life_expectancy"].call_args_list
            bands = [(c.args[0].shape, c.args[1].first, c.args[1].after is None)
                     for c in summed[:2 * n_blocks]]
            assert bands == [
                band for _, n in blocks
                for band in (((n * rows, 41), 80, True), ((n * rows, 15), 65, False))]
            assert [c.args[1] for c in summed[2 * n_blocks:]] == list(cohort_ages)
            # The expectancy sums every force from the lowest report age up
            # once, as one full-age pass a block did.
            assert sum(shape[0] * shape[1] for shape, _, _ in bands) \
                == n_years * rows * (project.MAX_AGE + 1 - 65)

    def test_blocks_of_years_give_the_same_levels(self, fanchart_inputs, monkeypatch):
        # Blocks of one year are the layout of a batch too large to take
        # two; every block size gives the same bytes, and so does the unit
        # that held every age of a block at once, with report and cohort
        # ages on both sides of the split at age 80.
        config, params, fit = fanchart_inputs
        config = replace(config, report_ages=(65, 79, 80, 90), cohort_ages=(65, 79, 80))
        paths = project.path_batch(fit, batch_spec(config, params))
        rows, n_years = config.n_paths + 1, config.horizon - config.years.last + 1
        results = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for years_per_block in (1, 2, 3, n_years):
                monkeypatch.setattr(pipeline, "LIFE_TABLE_COLUMNS", years_per_block * rows)
                results.append(block_bytes(
                    pipeline._life_table_rows(config, params, paths, "M", {})))
            results.append(block_bytes(full_age_life_table_rows(config, params, paths, "M")))
        assert all(result == results[0] for result in results[1:])


def block_bytes(blocks):
    """The fan-chart blocks of a life-table unit as comparable bytes."""
    return [(q, g, age, years.tobytes(), levels.tobytes())
            for q, g, age, years, levels in blocks]


def synthetic_unit_inputs(min_age, max_age, rows, n_years, seed):
    """Params of one gender over the model ages and a path batch of
    `rows` rows and `n_years` years from 2021, Gompertz-like forces."""
    rng = np.random.default_rng(seed)
    ages = AgeRange(min_age, max_age)
    x = ages.values()
    params = lilee.LiLeeParams(
        ages=ages, years=YearRange(2019, 2021), A=-9.5 + 0.085 * x,
        B=rng.uniform(0.005, 0.015, len(x)), K=np.zeros(3),
        alpha=rng.normal(0.0, 0.01, len(x)), beta=rng.uniform(0.0, 0.01, len(x)),
        kappa=np.zeros(3))
    K = np.cumsum(rng.normal(-1.0, 1.0, (rows, n_years)), axis=1)
    kappa = np.cumsum(rng.normal(0.0, 0.5, (rows, n_years)), axis=1)
    paths = project.SimulationPaths(years=np.arange(2021, 2021 + n_years),
                                    K={"M": K}, kappa={"M": kappa})
    return {"M": params}, paths


@st.composite
def unit_configs(draw):
    """Model ages, report and cohort ages (band edges 79, 80, 90 and 91
    likely), a batch of 2 to 9 rows with the years the cohorts need, and a
    column budget of one year, several years or all years a block."""
    min_age = draw(st.integers(0, 80))
    max_age = draw(st.integers(90, 119))
    ages = st.sampled_from([a for a in (min_age, 38, 39, 40, 79, 80, 90, 91, max_age)
                            if min_age <= a <= max_age]) | st.integers(min_age, max_age)
    report_ages = tuple(draw(st.lists(ages, max_size=4, unique=True)))
    cohort_ages = tuple(draw(st.lists(ages.filter(lambda a: a >= 60), max_size=3,
                                      unique=True)))
    rows = draw(st.integers(2, 9))
    youngest = min(cohort_ages, default=project.MAX_AGE - 3)
    n_years = draw(st.integers(project.MAX_AGE + 1 - youngest, project.MAX_AGE + 3 - youngest))
    per_block = draw(st.sampled_from([1, 2, draw(st.integers(min(3, n_years), n_years)),
                                      n_years]))
    budget = per_block * rows + draw(st.integers(0, rows - 1))
    config = SimpleNamespace(ages=AgeRange(min_age, max_age), report_ages=report_ages,
                             cohort_ages=cohort_ages)
    return config, rows, n_years, budget, draw(st.integers(0, 2**31))


class TestAgeBands:
    """The unit that takes each block's ages in bands against the one that
    held every age of a block at once, kept as an oracle."""

    @settings(deadline=None, max_examples=150)
    @given(unit_configs())
    def test_bands_give_the_full_age_unit_bytes(self, case):
        config, rows, n_years, budget, seed = case
        params, paths = synthetic_unit_inputs(config.ages.min_age, config.ages.max_age,
                                              rows, n_years, seed)
        with warnings.catch_warnings(), \
                mock.patch.object(pipeline, "LIFE_TABLE_COLUMNS", budget):
            warnings.simplefilter("ignore", RuntimeWarning)
            got = pipeline._life_table_rows(config, params, paths, "M", {})
            want = full_age_life_table_rows(config, params, paths, "M")
        assert block_bytes(got) == block_bytes(want)

    @pytest.mark.parametrize("age", [0, 20, 38, 39, 40, 79])
    @pytest.mark.parametrize("log_force", [-np.inf, np.inf])   # a force of 0 or inf
    def test_a_bad_force_below_the_fit_ages_is_refused(self, age, log_force):
        # Age 0 lies below the lowest report age, so its band is forced
        # and checked but never summed.
        config = SimpleNamespace(ages=AgeRange(0, 90), report_ages=(20, 65),
                                 cohort_ages=())
        params, paths = synthetic_unit_inputs(0, 90, 3, 4, 5)
        params["M"].A[age] = log_force
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValidationError, match="forces must be positive and finite"):
                pipeline._life_table_rows(config, params, paths, "M", {})

    def test_one_unit_allocates_no_more_than_the_full_age_unit(self):
        """The traced peak of one unit on a 2001-row, 56-year batch (the
        `projection` world's size) is no higher than the full-age unit's
        at its budget of 2048 columns a block."""
        config = SimpleNamespace(ages=AgeRange(0, 90), report_ages=(0, 65, 85),
                                 cohort_ages=(65,))
        params, paths = synthetic_unit_inputs(0, 90, 2001, 56, 3)
        peaks = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for name, unit in (
                    ("bands", lambda: pipeline._life_table_rows(config, params, paths,
                                                                "M", {})),
                    ("full ages", lambda: full_age_life_table_rows(config, params,
                                                                   paths, "M"))):
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    unit()
                    peaks[name] = tracemalloc.get_traced_memory()[1] - before
                finally:
                    tracemalloc.stop()
        assert peaks["bands"] <= peaks["full ages"], peaks


# ---------------------------------------------------------------------------
# Adjusted variant end to end
# ---------------------------------------------------------------------------

def check_calibration_diagnostics(config, dataset, scenario, blend=None):
    """The scenario's `calibration` entry against fits made here: sweeps
    and log-likelihood from each layer's fit, and the deviance exactly
    the saturated log-likelihood less that log-likelihood, which is the
    likelihood of the fitted surface to 1e-12."""
    blob = scenario.to_json()["calibration"]
    for gender in GENDERS:
        d_T, E_T = dataset.aggregate(gender)
        surf = dataset.surface(config.country_of_interest, gender)
        args = (d_T, E_T, surf.deaths, surf.exposures, config.ages, config.years)
        if blend is None:
            params, fits = lilee.calibrate(*args)
        else:
            params, fits = lilee.fit_adjusted_lee_miller(*args, blend)
        common = params.A[:, None] + params.B[:, None] * params.K[None, :]
        for layer, d, E, log_mu in (
            ("common", d_T, E_T, common),
            ("country", surf.deaths, surf.exposures, params.log_mu()),
        ):
            entry, fit = blob[gender][layer], fits[layer]
            assert (entry["sweeps"], entry["loglik"]) == (fit.sweeps, fit.loglik)
            assert entry["deviance"] >= 0.0
            assert entry["deviance"] == lilee.saturated_loglik(d, E) - fit.loglik
            assert entry["deviance"] == pytest.approx(
                lilee.saturated_loglik(d, E) - lilee.poisson_loglik(d, E, log_mu),
                rel=1e-12, abs=1e-9)


class TestCalibrationDiagnostics:
    def test_shared_calibration_reported_on_every_scenario(self, wrun, assembled):
        config, report = wrun
        for scenario in report.scenarios:
            check_calibration_diagnostics(config, assembled.dataset, scenario)

    def test_each_blend_reports_its_own_calibration(self, almrun, assembled):
        config, report = almrun
        for scenario in report.scenarios:
            check_calibration_diagnostics(config, assembled.dataset, scenario,
                                          blend=scenario.value)
        first, second = (s.to_json()["calibration"] for s in report.scenarios)
        assert first != second

    def test_failed_scenario_has_no_calibration(self, mixed):
        _, report = mixed
        failed = [s for s in report.scenarios if s.status == "failed"][0]
        assert "calibration" not in failed.to_json()


class TestAdjustedScenarios:
    def test_per_blend_calibrations_differ(self, almrun):
        _, report = almrun
        assert report.all_ok
        assert [s.label for s in report.scenarios] == ["alm1", "alm0.5"]
        first, second = report.scenarios
        assert first.hashes[first.files["params"]] != \
            second.hashes[second.files["params"]]

    def test_final_year_effects_pinned_to_zero(self, almrun):
        config, report = almrun
        for scenario in report.scenarios:
            params = import_params_csv(
                config.output_dir / scenario.files["params"])
            for gender in ("M", "F"):
                assert params[gender].K[-1] == 0.0
                assert params[gender].kappa[-1] == 0.0

    def test_full_blend_reproduces_final_year_rates(self, almrun, assembled):
        config, report = almrun
        scenario = report.scenarios[0]          # blend weight 1
        params = import_params_csv(config.output_dir / scenario.files["params"])
        for gender in ("M", "F"):
            surface = assembled.dataset.surface("CCC", gender)
            observed = surface.deaths[:, -1] / surface.exposures[:, -1]
            fitted = np.exp(params[gender].A + params[gender].alpha)
            np.testing.assert_allclose(fitted, observed, rtol=1e-12)


# ---------------------------------------------------------------------------
# Scenario isolation and failure reporting
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mixed(small_bundle):
    root, _ = small_bundle
    config = load_run_config(root / "config.yaml")
    return config, quiet_run(config)


@pytest.fixture(scope="module")
def linalg_mixed(small_bundle):
    """The small bundle's run with a LinAlgError raised by the w0 fit."""
    root, _ = small_bundle
    config = load_run_config(rewrite_config(root, "linalg.yaml",
                                            output_dir="out_linalg"))
    real = dynamics.fit_weighted_mle

    def fit(rows, weights=None, **kwargs):
        if weights is not None and weights[-1] == 0.0:
            raise np.linalg.LinAlgError("injected singular matrix")
        return real(rows, weights, **kwargs)

    with mock.patch.object(dynamics, "fit_weighted_mle", fit):
        return config, quiet_run(config)


class TestScenarioIsolation:
    def test_partial_failure_reported(self, mixed):
        _, report = mixed
        by_label = {s.label: s for s in report.scenarios}
        assert by_label["w1"].status == "ok"
        assert by_label["w0"].status == "failed"
        assert "effective observations" in by_label["w0"].error
        assert by_label["w0"].files == {}
        assert not report.all_ok

    def test_failure_never_alters_surviving_outputs(self, small_bundle, mixed,
                                                    linalg_mixed):
        root, _ = small_bundle
        solo_cfg = rewrite_config(root, "solo.yaml",
                                  method={"kind": "WEIGHTED_LIKELIHOOD",
                                          "grid": [1.0]},
                                  output_dir="out_solo")
        solo_report = quiet_run(load_run_config(solo_cfg))
        assert solo_report.all_ok
        solo = solo_report.scenarios[0]
        # A library fault outside MortkitError is isolated the same way.
        config, report = linalg_mixed
        assert (config.output_dir / "report.json").is_file()
        failed = {s.label: s for s in report.scenarios}["w0"]
        assert failed.status == "failed"
        assert failed.error.startswith("LinAlgError: ")
        for config, report in (mixed, linalg_mixed):
            survivor = {s.label: s for s in report.scenarios}["w1"]
            for name in survivor.files.values():
                assert (config.output_dir / name).read_bytes() == \
                    (root / "out_solo" / name).read_bytes(), name
            assert survivor.hashes == solo.hashes

    def test_torn_fanchart_write_leaves_no_file(self, wbundle, tmp_path):
        """A fan-chart write that raises partway fails its scenario and
        leaves none of its files on disk; the report hashes exactly the
        files that are there."""
        root, _, _ = wbundle
        config = load_run_config(root / "config.yaml").with_overrides(
            output_dir=tmp_path / "out")
        real = pipeline._write_fanchart

        def torn(path, records):
            if "w0" in Path(path).name:
                real(path, records[:len(records) // 2])
                raise OSError("disk full")
            real(path, records)

        with mock.patch.object(pipeline, "_write_fanchart", torn):
            report = quiet_run(config)
        by_label = {s.label: s for s in report.scenarios}
        assert by_label["w0"].status == "failed"
        assert by_label["w0"].error == "OSError: disk full"
        assert by_label["w1"].status == "ok"
        out = config.output_dir
        assert [p.name for p in out.glob("fanchart_*.csv")] == ["fanchart_w1.csv"]
        on_disk = json.loads((out / "report.json").read_text())
        hashes = {name: digest for scenario in on_disk["scenarios"]
                  for name, digest in scenario["hashes"].items()}
        assert sorted(p.name for p in out.iterdir()) == \
            sorted([*hashes, "report.json", "timings.json"])
        for name, digest in hashes.items():
            assert sha256(out / name) == digest

    def test_failed_scenario_json_carries_the_error(self, mixed):
        _, report = mixed
        failed = [s for s in report.scenarios if s.status == "failed"][0]
        blob = failed.to_json()
        assert blob["status"] == "failed"
        assert "error" in blob
        assert "loglik" not in blob
        assert "score_norm" not in blob


def files_beside_the_report(out):
    """The names in `out` and the names its report lists, plus the report
    and the timings sidecar."""
    report = json.loads((out / "report.json").read_text())
    listed = [name for scenario in report["scenarios"]
              for name in scenario["files"].values()]
    return (sorted(p.name for p in out.iterdir()),
            sorted(listed + ["report.json", "timings.json"]))


class TestStaleOutputs:
    """A rerun removes the scenario files the previous report listed and it
    did not write, and nothing else."""

    @staticmethod
    def _run(small_bundle, out, grid, calibrate=None, seed=None):
        root, _ = small_bundle
        config = load_run_config(root / "config.yaml").with_overrides(seed=seed)
        config = replace(config, method_kind="ADJUSTED_LEE_MILLER",
                         method_grid=tuple(grid), output_dir=out)
        with ExitStack() as stack:
            if calibrate is not None:
                stack.enter_context(mock.patch.object(lilee, "calibrate_dataset",
                                                      calibrate))
            return quiet_run(config)

    def test_a_smaller_grid_leaves_only_its_files(self, small_bundle, tmp_path):
        out = tmp_path / "out"
        assert self._run(small_bundle, out, [1.0, 0.5, 0.0]).all_ok
        (out / "notes.txt").write_text("kept\n")
        assert self._run(small_bundle, out, [1.0]).all_ok
        on_disk, listed = files_beside_the_report(out)
        assert on_disk == sorted(listed + ["notes.txt"])
        assert len(listed) == 5

    def test_a_failed_fit_leaves_none_of_its_old_files(self, small_bundle, tmp_path):
        out = tmp_path / "out"
        assert self._run(small_bundle, out, [1.0, 0.0]).all_ok
        real = lilee.calibrate_dataset

        def calibrate(dataset, country, blend=None):
            if blend == 0.0:
                raise ValidationError("injected w0 fit failure")
            return real(dataset, country, blend)

        report = self._run(small_bundle, out, [1.0, 0.0], calibrate)
        assert [s.status for s in report.scenarios] == ["ok", "failed"]
        on_disk, listed = files_beside_the_report(out)
        assert on_disk == listed
        assert not any("alm0." in name for name in on_disk)

    def test_an_assembly_failure_fails_every_scenario_in_a_report(
            self, small_bundle, tmp_path, capsys):
        # One row of BBB's file deleted after an all-ok run: the rerun
        # still exits 1 on one line, and its report says so.
        root = tmp_path / "bundle"
        shutil.copytree(small_bundle[0], root, ignore=shutil.ignore_patterns("out*"))
        config = str(rewrite_config(root, "config.yaml", method={
            "kind": "ADJUSTED_LEE_MILLER", "grid": [1.0, 0.5]}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["run", "--config", config]) == 0
        data = root / "data" / "BBB.csv"
        rows = data.read_text().splitlines(keepends=True)
        data.write_text("".join(rows[:1] + rows[2:]))
        capsys.readouterr()
        assert main(["run", "--config", config]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: BBB/")
        report = json.loads((root / "out" / "report.json").read_text())
        assert [(s["status"], s["error"], s["files"]) for s in report["scenarios"]] == \
            [("failed", f"ValidationError: {line[len('error: '):]}", {})] * 2
        assert (report["virtual_cells"], report["consistency"],
                report["weekly_exposure_origin"]) == ({}, [], {})
        on_disk, listed = files_beside_the_report(root / "out")
        assert on_disk == listed == ["report.json", "timings.json"]

    def test_a_crash_before_the_report_leaves_no_report(self, small_bundle, tmp_path):
        # A run killed after its scenario files and before its report leaves
        # no report.json to vouch for them.  The report it moved aside still
        # lists the files of the grid values the next run does not write.
        out = tmp_path / "out"
        assert self._run(small_bundle, out, [1.0, 0.5, 0.0]).all_ok
        real = pipeline._write_json

        def write_json(path, blob, **options):
            if Path(path).name == ".report.json.tmp":
                raise KeyboardInterrupt
            real(path, blob, **options)

        seed = load_run_config(small_bundle[0] / "config.yaml").seed + 1
        with mock.patch.object(pipeline, "_write_json", write_json), \
                pytest.raises(KeyboardInterrupt):
            self._run(small_bundle, out, [1.0], seed=seed)
        assert not (out / "report.json").exists()
        assert self._run(small_bundle, out, [1.0], seed=seed).all_ok
        on_disk, listed = files_beside_the_report(out)
        assert on_disk == listed
        for scenario in json.loads((out / "report.json").read_text())["scenarios"]:
            assert scenario["hashes"] == {name: sha256(out / name)
                                          for name in scenario["files"].values()}

    @pytest.mark.parametrize("previous", ["{not json", '{"scenarios": 3}'])
    def test_an_unreadable_report_removes_nothing(self, small_bundle, tmp_path,
                                                  previous):
        out = tmp_path / "out"
        assert self._run(small_bundle, out, [1.0, 0.0]).all_ok
        before = sorted(p.name for p in out.iterdir())
        (out / "report.json").write_text(previous)
        assert self._run(small_bundle, out, [1.0]).all_ok
        assert sorted(p.name for p in out.iterdir()) == before


# ---------------------------------------------------------------------------
# Work units: a fit unit per scenario, a life-table unit per (scenario, gender)
# ---------------------------------------------------------------------------

def cli_run_within(config_path, out, jobs, seconds=120):
    """`mortkit run` in a fresh interpreter, killed after `seconds`: a pool
    whose workers wait on one another never returns, and only a process
    can be stopped from outside."""
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from mortkit.cli import main; sys.exit(main(sys.argv[2:]))")
    done = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", code, str(root / "src"), "run",
         "--config", str(config_path), "--out", str(out), "--jobs", str(jobs)],
        capture_output=True, text=True, timeout=seconds)
    assert done.returncode == 0, done.stderr


@pytest.fixture(scope="module")
def grid3(small_bundle):
    """Path of the small bundle's config over three adjusted Lee-Miller
    blends."""
    root, _ = small_bundle
    return rewrite_config(root, "grid3.yaml",
                          method={"kind": "ADJUSTED_LEE_MILLER",
                                  "grid": [1.0, 0.5, 0.0]})


@pytest.fixture(scope="module")
def grid3_runs(grid3, tmp_path_factory):
    """{jobs: (config, report)}; the one-worker run goes first, in its own
    process under a time limit, and doubles as the deadlock guard."""
    out = tmp_path_factory.mktemp("grid3")
    cli_run_within(grid3, out / "jobs1", 1)
    runs = {1: (load_run_config(grid3).with_overrides(output_dir=out / "jobs1"),
                None)}
    for jobs in (2, 3, 7):
        config = load_run_config(grid3).with_overrides(output_dir=out / f"jobs{jobs}")
        runs[jobs] = config, quiet_run(config, jobs)
    return runs


def assert_same_files(out_a, out_b, names):
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestWorkUnits:
    def test_any_pool_size_writes_the_same_files(self, grid3_runs):
        first, _ = grid3_runs[1]
        for _, report in list(grid3_runs.values())[1:]:
            assert report.all_ok and len(report.scenarios) == 3
        names = sorted(p.name for p in first.output_dir.iterdir())
        for config, _ in grid3_runs.values():
            assert sorted(p.name for p in config.output_dir.iterdir()) == names
            assert_same_files(first.output_dir, config.output_dir,
                              [n for n in names if n != "timings.json"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_normal_draw_per_run(self, grid3, grid3_runs, tmp_path, jobs):
        # Every grid value's fit unit simulates its paths, but the standard
        # normals are drawn once, by one Philox generator.
        config = load_run_config(grid3).with_overrides(output_dir=tmp_path / "out")
        for run in range(2):
            with mock.patch.object(np.random, "Philox",
                                   wraps=np.random.Philox) as philox:
                report = quiet_run(config, jobs)
            assert report.all_ok and len(report.scenarios) == 3
            assert philox.call_count == 1, run
        clean_config, _ = grid3_runs[2]
        assert_same_files(clean_config.output_dir, config.output_dir,
                          [f"fanchart_{s.label}.csv" for s in report.scenarios])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_female_life_tables_fail_only_their_scenario(
            self, grid3, grid3_runs, tmp_path, jobs):
        real_fit, real_tables = pipeline.run_scenario, pipeline._life_table_rows
        doomed = []

        def fit(config, dataset, value, shared_calibration, normals, layers):
            result = real_fit(config, dataset, value, shared_calibration, normals,
                              layers)
            if value == 0.5:
                doomed.append(result[3])
            return result

        def tables(config, params, paths, gender, layers):
            if gender == "F" and any(paths is p for p in doomed):
                raise FloatingPointError("injected F life-table fault")
            return real_tables(config, params, paths, gender, layers)

        config = load_run_config(grid3).with_overrides(output_dir=tmp_path / "out")
        with mock.patch.object(pipeline, "run_scenario", fit), \
                mock.patch.object(pipeline, "_life_table_rows", tables):
            report = quiet_run(config, jobs)
        clean_config, clean = grid3_runs[2]
        failed, = [s for s in report.scenarios if s.status == "failed"]
        assert failed.label == "alm0.5"
        assert failed.error == "FloatingPointError: injected F life-table fault"
        assert failed.files == {}
        assert not list(config.output_dir.glob("*alm0.5*"))
        for want, got in zip(clean.scenarios, report.scenarios):
            if want.label != "alm0.5":
                assert got.to_json() == want.to_json()
                assert_same_files(clean_config.output_dir, config.output_dir,
                                  want.files.values())

    def test_male_error_wins_when_both_genders_fail(self, grid3, tmp_path):
        def tables(config, params, paths, gender, layers):
            if gender == "M":
                time.sleep(0.2)   # the F unit fails first
            raise ArithmeticError(f"{gender} fault")

        config = load_run_config(grid3).with_overrides(output_dir=tmp_path / "out")
        with mock.patch.object(pipeline, "_life_table_rows", tables):
            report = quiet_run(config, 2)
        assert [s.error for s in report.scenarios] == \
            ["ArithmeticError: M fault"] * 3


# ---------------------------------------------------------------------------
# Report diffing
# ---------------------------------------------------------------------------

def fake_report(theta_m, loglik, label="w1"):
    return {"scenarios": [{
        "label": label, "status": "ok", "loglik": loglik,
        "ts_params": {"theta_M": theta_m, "theta_F": theta_m / 2.0},
    }]}


def fake_grid_report(theta_by_label):
    return {"scenarios": [fake_report(theta, -100.0, label)["scenarios"][0]
                          for label, theta in theta_by_label.items()]}


class TestDiffReports:
    def test_identical_reports_diff_to_zero(self, wrun):
        _, report = wrun
        blob = report.to_json()
        diff = diff_reports(blob, blob)
        assert diff["scenario_count"] == [2, 2]
        assert diff["unmatched"] == {"a": [], "b": []}
        for entry in diff["scenarios"]:
            assert entry["loglik"] == 0.0
            assert all(v == 0.0 for v in entry["ts_params"].values())

    def test_scenarios_paired_by_label(self):
        a = fake_grid_report({"w1": -0.20, "w0.5": -0.19, "w0": -0.15})
        b = fake_grid_report({"w1": -0.21, "w0": -0.17})
        diff = diff_reports(a, b)
        assert diff["scenario_count"] == [3, 2]
        deltas = {e["label"]: e["ts_params"]["theta_M"]
                  for e in diff["scenarios"]}
        assert deltas == {"w1": pytest.approx(0.01), "w0": pytest.approx(0.02)}
        assert diff["unmatched"] == {"a": ["w0.5"], "b": []}
        assert diff_reports(b, a)["unmatched"] == {"a": [], "b": ["w0.5"]}

    def test_diff_is_antisymmetric(self):
        a = fake_report(-0.18, -120.0)
        b = fake_report(-0.25, -118.5)
        ab = diff_reports(a, b)["scenarios"][0]
        ba = diff_reports(b, a)["scenarios"][0]
        for key in ab["ts_params"]:
            assert ab["ts_params"][key] == -ba["ts_params"][key]
        assert ab["loglik"] == -ba["loglik"]

    def test_schema_mismatch_refused(self):
        a = fake_report(-0.18, -120.0)
        b = fake_report(-0.25, -118.5)
        b["scenarios"][0]["ts_params"] = {"drift": -0.25}
        with pytest.raises(ValidationError, match="schemas differ"):
            diff_reports(a, b)

    def test_explicit_pairs_compare_different_labels(self):
        a = fake_grid_report({"w1": -0.20, "w0.5": -0.19})
        b = fake_grid_report({"w0": -0.15, "w0.5": -0.18})
        diff = diff_reports(a, b, {"w1": "w0"})
        deltas = {e["label"]: e["ts_params"]["theta_M"] for e in diff["scenarios"]}
        assert deltas == {"w1=w0": pytest.approx(-0.05), "w0.5": pytest.approx(-0.01)}
        assert diff["unmatched"] == {"a": [], "b": []}
        back = diff_reports(b, a, {"w0": "w1"})["scenarios"]
        assert back[0]["label"] == "w0=w1"
        assert back[0]["ts_params"]["theta_M"] == -diff["scenarios"][0]["ts_params"]["theta_M"]

    def test_pair_naming_a_missing_scenario_refused(self):
        a = fake_grid_report({"w1": -0.20})
        with pytest.raises(ValidationError, match="w1=w9"):
            diff_reports(a, fake_grid_report({"w0": -0.15}), {"w1": "w9"})

    def test_failed_scenarios_marked_incomparable(self):
        a = fake_report(-0.18, -120.0)
        b = copy.deepcopy(a)
        b["scenarios"][0].pop("ts_params")
        entry = diff_reports(a, b)["scenarios"][0]
        assert entry["incomparable"]


class TestShockDirection:
    def test_including_a_mortality_shock_raises_the_drift(self, tmp_path):
        params = FixtureParams(
            countries=("AAA", "BBB"),
            ages=AgeRange(60, 90),
            years=YearRange(2008, 2020),
            phi={"M": 0.5, "F": 0.5},
            n_paths=60,
            horizon=2030,
            report_ages=(65,),
            cohort_ages=(),
            shock={"year": 2020, "log_factor": 0.4, "min_age": 0},
        )
        make_synthetic_fixture(params, tmp_path)
        reports = {}
        for tag, weight in (("full", 1.0), ("drop", 0.0)):
            cfg = rewrite_config(tmp_path, f"{tag}.yaml",
                                 method={"kind": "WEIGHTED_LIKELIHOOD",
                                         "grid": [weight]},
                                 output_dir=f"out_{tag}")
            reports[tag] = quiet_run(load_run_config(cfg)).to_json()
        diff = diff_reports(reports["full"], reports["drop"], {"w1": "w0"})
        delta = diff["scenarios"][0]["ts_params"]
        assert diff["scenarios"][0]["label"] == "w1=w0"
        assert delta["theta_M"] > 0.0
        assert delta["theta_F"] > 0.0


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def weekly_bundle(tmp_path_factory):
    """AAA 2019 comes as STMF plus EUROW, BBB 2019 as STMF only."""
    root = tmp_path_factory.mktemp("weekly_cli")
    make_synthetic_fixture(FixtureParams(
        years=YearRange(2008, 2019), n_paths=20, cohort_ages=(),
        weekly=(WeeklyDegradation("AAA", 2019, ("STMF", "EUROW")),
                WeeklyDegradation("BBB", 2019, ("STMF",)))), root)
    return root


def assert_run_fails_on_one_line(config_path, message):
    """`mortkit run` in a fresh interpreter exits 1 with `message` as its
    one `error:` line and no traceback."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from mortkit.cli import main; sys.exit(main(sys.argv[2:]))")
    done = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parents[1] / "src"),
         "run", "--config", str(config_path)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    assert [line for line in done.stderr.splitlines()
            if line.startswith("error:")] == [f"error: {message}"]
    assert "Traceback" not in done.stderr


class TestCli:
    @pytest.mark.parametrize("name, bucket, message", [
        ("BBB_2019_stmf.csv", "85+",
         "BBB/M 2019 exposures: need one open bucket (85+), found none"),
        ("AAA_2019_eurow.csv", "90+",
         "AAA/M 2019 deaths: need one open bucket (90+), found none"),
        ("BBB_2019_stmf.csv", "15-64",
         "BBB/M 2019 exposures: closed buckets must tile ages 0..84"),
    ], ids=["stmf-without-85+", "eurow-without-90+", "stmf-without-15-64"])
    def test_run_names_a_missing_bucket_on_one_line(self, weekly_bundle, tmp_path,
                                                    name, bucket, message):
        root = tmp_path / "bundle"
        shutil.copytree(weekly_bundle, root)
        weekly = root / "weekly" / name
        rows = weekly.read_text().splitlines(keepends=True)
        weekly.write_text("".join(row for row in rows if row.split(",")[4] != bucket))
        assert_run_fails_on_one_line(root / "config.yaml", message)

    @pytest.mark.parametrize("kind, name, declaration", [
        ("weekly", "weekly/BBB_2019_stmf.csv", {"shape": "STMF", "year": 2019}),
        ("individual", "data/BBB.csv", {"shape": "HMD",
                                        "years": {"first": 2008, "last": 2018}}),
    ], ids=["weekly", "individual"])
    def test_run_refuses_a_declaration_outside_the_run_on_one_line(
            self, weekly_bundle, tmp_path, kind, name, declaration):
        # A copy of one of BBB's files relabelled ZZZ, declared for ZZZ.
        root = tmp_path / "bundle"
        shutil.copytree(weekly_bundle, root)
        source = root / name
        target = source.with_name("ZZZ" + source.name[3:])
        target.write_text(source.read_text().replace("BBB,", "ZZZ,"))
        doc = yaml.safe_load((root / "config.yaml").read_text())
        doc["sources"][kind].append({"path": str(target.relative_to(root)),
                                     "country": "ZZZ", **declaration})
        (root / "config.yaml").write_text(yaml.safe_dump(doc, sort_keys=False))
        assert_run_fails_on_one_line(
            root / "config.yaml",
            f"{target}: declared country ZZZ is not in the run (AAA, BBB)")

    @pytest.mark.parametrize("conflict, message", [
        ("split", "duplicate weekly STMF declaration for BBB/2019"),
        ("constituents", "sources[4]: constituent aggregation produces country UNK, "
                         "declaration says BBB"),
    ], ids=["split-stmf", "constituents-for-BBB"])
    def test_declaration_conflict_refused_before_any_file_is_read(
            self, weekly_bundle, tmp_path, conflict, message):
        # BBB 2019's STMF declaration split into a deaths-only and an
        # exposures-only one, or given as three constituents; the config
        # is copied without the data files it declares.
        doc = yaml.safe_load((weekly_bundle / "config.yaml").read_text())
        bbb = doc["sources"]["weekly"][2]
        if conflict == "split":
            doc["sources"]["weekly"][2:] = [{**bbb, "quantities": ["deaths"]},
                                            {**bbb, "quantities": ["exposures"]}]
        else:
            path = bbb.pop("path")
            bbb["paths"] = [path.replace(".csv", f"_{part}.csv")
                            for part in ("ENW", "SCO", "NIR")]
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(doc, sort_keys=False))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_run_config(config)
        assert_run_fails_on_one_line(config, message)

    def test_run_names_a_weekly_file_of_another_country_on_one_line(
            self, weekly_bundle, tmp_path):
        root = tmp_path / "bundle"
        shutil.copytree(weekly_bundle, root)
        weekly = root / "weekly" / "BBB_2019_stmf.csv"
        weekly.write_text(weekly.read_text().replace("BBB,", "ZZZ,"))
        assert_run_fails_on_one_line(
            root / "config.yaml",
            f"{weekly}: file country ZZZ does not match declared BBB")

    def test_run_exits_zero_on_full_success(self, small_bundle, capsys):
        root, _ = small_bundle
        cfg = rewrite_config(root, "cli_ok.yaml",
                             method={"kind": "WEIGHTED_LIKELIHOOD",
                                     "grid": [1.0]},
                             output_dir="out_cli_ok")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["run", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "w1: ok" in out
        assert "report:" in out

    def test_run_exits_two_on_partial_failure(self, small_bundle, capsys):
        root, _ = small_bundle
        cfg = rewrite_config(root, "cli_mixed.yaml",
                             output_dir="out_cli_mixed")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["run", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAILED" in out

    def test_run_exits_one_on_config_errors(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.yaml")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

        bad = tmp_path / "bad.yaml"
        doc = base_doc()
        doc["method"]["grid"] = []
        with bad.open("w") as handle:
            yaml.safe_dump(doc, handle)
        assert main(["run", "--config", str(bad)]) == 1

    def test_run_reports_a_malformed_value_on_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        doc = base_doc()
        doc["simulation"]["n_paths"] = "many"
        with bad.open("w") as handle:
            yaml.safe_dump(doc, handle)
        assert main(["run", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: bad value 'many' for 'n_paths' in simulation"]

    def test_fixture_command_writes_bundle(self, tmp_path, capsys):
        params_file = tmp_path / "params.yaml"
        with params_file.open("w") as handle:
            yaml.safe_dump({
                "countries": ["AAA", "BBB"],
                "ages": {"min": 60, "max": 90},
                "years": {"first": 2013, "last": 2020},
                "report_ages": [65], "cohort_ages": [],
                "horizon": 2030, "n_paths": 40,
            }, handle)
        out = tmp_path / "bundle"
        code = main(["fixture", "--params", str(params_file),
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert (out / "config.yaml").exists()
        assert all((out / rel).exists() for rel in manifest["individual"])

    def test_diff_command_prints_deltas(self, wrun, capsys):
        config, _ = wrun
        report = str(config.output_dir / "report.json")
        code = main(["diff", report, report])
        assert code == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["scenario_count"] == [2, 2]
        assert diff["scenarios"][0]["ts_params"]["theta_M"] == 0.0

    @pytest.mark.parametrize("text, problem", [
        ("{not json", "not JSON: "),
        ("[1, 2]", "not a run report"),
        (None, "scenario 'w1' has a non-numeric loglik or ts_params value"),
    ], ids=["not-json", "not-a-mapping", "non-numeric-param"])
    def test_diff_refuses_a_broken_report_on_one_line(self, wrun, tmp_path, capsys,
                                                      text, problem):
        config, _ = wrun
        good = config.output_dir / "report.json"
        if text is None:
            report = json.loads(good.read_text())
            report["scenarios"][0]["ts_params"]["theta_M"] = "0.1"
            text = json.dumps(report)
        broken = tmp_path / "report.json"
        broken.write_text(text)
        for pair in ([good, broken], [broken, good]):
            assert main(["diff", *map(str, pair)]) == 1
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith(f"error: {broken}: {problem}")

    def test_diff_command_pairs_labels(self, wrun, capsys):
        config, report = wrun
        path = str(config.output_dir / "report.json")
        assert main(["diff", path, path, "--pair", "w1=w0", "--pair", "w0=w1"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert [e["label"] for e in diff["scenarios"]] == ["w1=w0", "w0=w1"]
        w1, w0 = (s.ts_params["theta_M"] for s in report.scenarios)
        assert diff["scenarios"][0]["ts_params"]["theta_M"] == w1 - w0
        with pytest.raises(SystemExit):
            main(["diff", path, path, "--pair", "w1"])
        assert "expected A=B" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Names the benchmark tracer patches
# ---------------------------------------------------------------------------

class TestTracerContract:
    def test_every_traced_name_resolves(self):
        # bench/tracer.py wraps pipeline, data and project names by string;
        # a renamed name would break every traced benchmark run.
        root = Path(__file__).resolve().parents[1]
        code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
                "import tracer; tracer.install(tracer.Tracer())")
        done = subprocess.run([sys.executable, "-c", code, str(root / "bench"),
                               str(root / "src")], capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# The benchmark's independent oracle
# ---------------------------------------------------------------------------

def bench_checks():
    """bench/checks.py, loaded from bench/ as the benchmark loads it."""
    path = BENCH_WORLDS.parent / "checks.py"
    spec = importlib.util.spec_from_file_location("checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def curtate_kernel(mu, after, survival):
    """`project._expectancy_kernel` without the year fraction: the year of
    death counts for nothing, e_x = s_x (1 + e_(x+1)), about half a year
    short."""
    survival = np.exp(-mu)
    ahead = np.zeros(mu.shape[1:]) if after is None else np.reshape(after, mu.shape[1:])
    for x in range(len(mu) - 1, -1, -1):
        mu[x] = survival[x] * (1.0 + ahead)
        ahead = mu[x]
    return mu


@pytest.fixture(scope="module")
def oracle_world(tmp_path_factory):
    """A small world with a period and a cohort expectancy, whose w0 fit
    has enough years to succeed."""
    root = tmp_path_factory.mktemp("oracle")
    make_synthetic_fixture(FixtureParams(
        countries=("AAA", "BBB"), ages=AgeRange(60, 90), years=YearRange(2007, 2020),
        n_paths=100, report_ages=(65, 85), cohort_ages=(65,)), root)
    return root / "config.yaml"


class TestIndependentOracle:
    """bench/checks.check_projection recomputes every fan chart from the
    run's own params and tsfit files with code that shares nothing with
    mortkit.  It skips failed scenarios, so each run is first checked to
    be all ok."""

    @staticmethod
    def _problems(config_path, out):
        config = load_run_config(config_path).with_overrides(output_dir=out)
        report = quiet_run(config)
        assert [s.status for s in report.scenarios] == ["ok", "ok"]
        return bench_checks().check_projection(out, config_path, seed=5)

    def test_the_pipeline_passes_the_oracle(self, oracle_world, tmp_path):
        assert self._problems(oracle_world, tmp_path / "out") == []

    def test_an_expectancy_without_the_year_fraction_fails_it(self, oracle_world,
                                                              tmp_path):
        with mock.patch.object(project, "_expectancy_kernel", curtate_kernel):
            problems = self._problems(oracle_world, tmp_path / "out")
        best = [problem.split(":")[0] for problem in problems
                if "best rows differ from the oracle's central path" in problem]
        assert best == ["w1", "w0"]


@pytest.fixture(scope="module")
def stmf_worlds(tmp_path_factory):
    """{exposure column: config path} of one small world written twice:
    its STMF files with their exposure column, and with death rates only,
    as STMF publishes them.  AAA's 2020 has 53 weeks of STMF and EUROW (the
    90+ reference-tail rule), BBB's 2021 STMF alone (the 85+ model-tail
    rule)."""
    worlds = {}
    for column in (True, False):
        root = tmp_path_factory.mktemp("stmf")
        make_synthetic_fixture(FixtureParams(
            countries=("AAA", "BBB"), years=YearRange(2008, 2021), n_paths=60,
            report_ages=(65,), cohort_ages=(), stmf_exposure_column=column,
            weekly=(WeeklyDegradation("AAA", 2020, ("STMF", "EUROW"), 53),
                    WeeklyDegradation("BBB", 2021, ("STMF",), 52))), root)
        worlds[column] = root / "config.yaml"
    return worlds


class TestRateOnlyStmf:
    """Without an exposure column the loader derives the weekly exposures
    from STMF's death rates; the world then runs as with the column."""

    def test_runs_like_the_world_with_the_column(self, stmf_worlds, tmp_path):
        for column, path in stmf_worlds.items():
            config = load_run_config(path).with_overrides(output_dir=tmp_path / str(column))
            report = quiet_run(config)
            assert [s.status for s in report.scenarios] == ["ok", "ok"]
            assert set(report.exposure_origins.values()) == \
                {"column" if column else "derived"}
        assert bench_checks().check_projection(tmp_path / "False", stmf_worlds[False],
                                               seed=5) == []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            surfaces = {column: assemble_dataset(load_run_config(path)).dataset.surfaces
                        for column, path in stmf_worlds.items()}
        assert surfaces[True].keys() == surfaces[False].keys()
        for key, surface in surfaces[True].items():
            assert surface.virtual_cell_count() == {"deaths": 91, "exposures": 91}
            for name in ("deaths", "exposures"):
                assert relative_error(getattr(surfaces[False][key], name),
                                      getattr(surface, name)) <= 1e-12, (key, name)
