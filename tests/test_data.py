"""Data model, weekly ingestion and annualization rules."""
import io
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings, strategies as st

from conftest import flat_surface, weekly_eurow, weekly_stmf
from oracles import (first_seen_open_total, isin_restrict, per_name_codes,
                     unique_rank_check_unique)

from mortkit import data, ungroup
from mortkit.config import build_run_config, load_run_config
from mortkit.data import (AgeBucket, AgeRange, EUROW_BUCKETS, GENDERS,
                          MortalitySurface, MultiPopulationDataset,
                          PROVENANCE_CODES, QUANTITIES, RATE_IDENTITY_RTOL,
                          STMF_BUCKETS, VIRTUAL, SurfaceFragment, YearRange,
                          aggregate_uk, annualize_weekly_deaths,
                          annualize_weekly_exposure,
                          check_eurostat_stmf_consistency,
                          load_individual_age_csv, load_weekly_csv,
                          write_individual_age_csv, write_weekly_csv)
from mortkit.errors import ConfigError, ParseError, ValidationError
from mortkit.fixture import FixtureParams, WeeklyDegradation, make_synthetic_fixture
from mortkit.pipeline import _Assembler, assemble_dataset


class TestBuckets:
    def test_label_roundtrip(self, tmp_path):
        # Every bucket of both shapes reads back from the label it is
        # written with.
        assert [b.label for b in STMF_BUCKETS] == ["0-14", "15-64", "65-74", "75-84",
                                                   "85+"]
        assert [b.label for b in EUROW_BUCKETS[-2:]] == ["85-89", "90+"]
        for shape, series in (("STMF", weekly_stmf()), ("EUROW", weekly_eurow())):
            path = tmp_path / f"{shape}.csv"
            write_weekly_csv(path, [series], shape)
            assert list(load_weekly_csv(path, shape).deaths) == list(series.deaths)

    def test_parse_rejects_garbage(self, tmp_path):
        # A label is looked up among the shape's own, not parsed: another
        # spelling of one of them is refused like a foreign bucket.
        path = tmp_path / "stmf.csv"
        write_weekly_csv(path, [weekly_stmf()], "STMF")
        header, first, *rest = path.read_text().splitlines()
        for label in ("85", "00-14", "0 - 14", "5-9"):
            path.write_text("\n".join([header, first.replace(",0-14,", f",{label},"),
                                       *rest]) + "\n")
            with pytest.raises(ParseError) as caught:
                load_weekly_csv(path, "STMF")
            assert str(caught.value) == f"{path}:2: bucket {label!r} not valid for STMF"

    def test_bucket_sets(self):
        assert len(STMF_BUCKETS) == 5
        assert len(EUROW_BUCKETS) == 19
        assert STMF_BUCKETS[-1].is_open and STMF_BUCKETS[-1].lower == 85
        assert EUROW_BUCKETS[-1].is_open and EUROW_BUCKETS[-1].lower == 90
        covered = sorted(
            a for b in EUROW_BUCKETS if not b.is_open for a in b.ages()
        )
        assert covered == list(range(0, 90))

    def test_open_bucket_has_no_age_list(self):
        with pytest.raises(ValidationError):
            AgeBucket(90, None).ages()


class TestAnnualization:
    def test_deaths_52_week_sum(self):
        series = weekly_stmf(deaths_per_week={b: 10.0 for b in STMF_BUCKETS})
        annual = annualize_weekly_deaths(series)
        for bucket in STMF_BUCKETS:
            assert annual.deaths[bucket] == pytest.approx(520.0, rel=1e-12)

    def test_deaths_53_week_rescale(self):
        # 53 deaths/week over 53 weeks: 53*53 * 52/53 = 2756 exactly
        series = weekly_stmf(weeks=53,
                             deaths_per_week={b: 53.0 for b in STMF_BUCKETS})
        annual = annualize_weekly_deaths(series)
        for bucket in STMF_BUCKETS:
            assert annual.deaths[bucket] == pytest.approx(2756.0, rel=1e-9)

    def test_week_count_must_be_52_or_53(self):
        with pytest.raises(ValidationError):
            weekly_stmf(weeks=50)

    def test_missing_week_refused_with_location(self):
        # A series is complete once built, so annualization never sees a hole.
        series = weekly_stmf()
        for table, name in (("deaths", "deaths"), ("exposures", "exposure")):
            holed = {b: arr.copy() for b, arr in getattr(series, table).items()}
            holed[STMF_BUCKETS[0]][6] = np.nan
            with pytest.raises(ValidationError, match=re.escape(
                    f"BEL/M 2020: {name} missing for bucket 0-14, week(s) 7")):
                replace(series, **{table: holed})

    def test_exposure_52_weeks_constant(self):
        series = weekly_stmf(
            weekly_exposure={b: 19013.71 for b in STMF_BUCKETS})
        annual = annualize_weekly_exposure(series)
        for bucket in STMF_BUCKETS:
            assert annual.exposures[bucket] == pytest.approx(988712.92, rel=1e-9)

    def test_exposure_53_weeks_still_scaled_by_52(self):
        # Annual exposure ignores the extra ISO week: 52 * weekly value.
        series = weekly_stmf(weeks=53,
                             weekly_exposure={b: 19013.71 for b in STMF_BUCKETS})
        annual = annualize_weekly_exposure(series)
        for bucket in STMF_BUCKETS:
            assert annual.exposures[bucket] == pytest.approx(988712.92, rel=1e-9)

    def test_exposure_wobble_refused(self):
        series = weekly_stmf()
        series.exposures[STMF_BUCKETS[1]].flags.writeable = True
        series.exposures[STMF_BUCKETS[1]][10] *= 1.0 + 1e-4
        with pytest.raises(ValidationError, match="not constant"):
            annualize_weekly_exposure(series)

    def test_exposure_requires_exposures(self):
        series = weekly_eurow()
        with pytest.raises(ValidationError, match="no exposures"):
            annualize_weekly_exposure(series)


def edited_stmf(path, edits, **series):
    """Write `weekly_stmf(**series)` (10 deaths and an exposure of 5000 per
    bucket and week) to `path` as STMF, then give the row of each (bucket
    label, week) key of `edits` the (deaths, death_rate) fields of its
    value, or drop the row where the value is None."""
    write_weekly_csv(path, [weekly_stmf(**series)], "STMF")
    header, *rows = path.read_text().splitlines()
    kept = [header]
    for row in rows:
        fields = row.split(",")
        key = (fields[4], int(fields[2]))
        if key in edits and edits[key] is None:
            continue
        fields[5:7] = edits.get(key, fields[5:7])
        kept.append(",".join(fields))
    path.write_text("\n".join(kept) + "\n")


class TestWeeklyCsv:
    def test_stmf_roundtrip_with_exposure_column(self, tmp_path):
        series = weekly_stmf(deaths_per_week={b: 7.25 for b in STMF_BUCKETS})
        path = tmp_path / "stmf.csv"
        write_weekly_csv(path, [series], "STMF")
        loaded = load_weekly_csv(path, "STMF")
        assert loaded.exposure_origin == "column"
        assert loaded.week_count == 52
        for bucket in STMF_BUCKETS:
            np.testing.assert_allclose(loaded.deaths[bucket],
                                       series.deaths[bucket], rtol=0)
            np.testing.assert_allclose(loaded.exposures[bucket],
                                       series.exposures[bucket], rtol=0)

    def test_stmf_derived_exposure(self, tmp_path):
        series = weekly_stmf(with_exposures=False)
        path = tmp_path / "stmf.csv"
        write_weekly_csv(path, [series], "STMF")
        loaded = load_weekly_csv(path, "STMF")
        assert loaded.exposure_origin == "derived"
        for bucket in STMF_BUCKETS:
            # d / (d/E) recovers E exactly where the rate is positive
            np.testing.assert_allclose(loaded.exposures[bucket], 5000.0,
                                       rtol=1e-12)

    def test_derived_exposure_skips_a_week_without_deaths(self, tmp_path):
        # E = d / m is unknown in a week with no deaths at rate 0; the
        # exposure is constant, so the other weeks give it.
        path = tmp_path / "stmf.csv"
        edited_stmf(path, {("0-14", 7): ("0", "0")}, with_exposures=False)
        annual = annualize_weekly_exposure(load_weekly_csv(path, "STMF"))
        for bucket in STMF_BUCKETS:
            assert annual.exposures[bucket] == pytest.approx(52 * 5000.0, rel=1e-12)

    @pytest.mark.parametrize("edits, missing", [
        ({("0-14", 7): None}, "deaths missing for bucket 0-14, week(s) 7"),
        ({("0-14", 7): ("10", "")}, "exposure missing for bucket 0-14, week(s) 7"),
        ({("0-14", 7): ("10", "0")}, "exposure missing for bucket 0-14, week(s) 7"),
        ({("0-14", week): ("0", "0") for week in range(1, 53)},
         "exposure missing for bucket 0-14, week(s) 1, 2, 3, 4, 5..."),
    ], ids=["missing-row", "empty-rate", "deaths-at-rate-0", "no-positive-rate"])
    def test_derived_exposure_still_refuses_holes(self, tmp_path, edits, missing):
        # Refused where the file is read, with its path, whatever quantities
        # it is declared for; a missing row is missing deaths first.
        path = tmp_path / "stmf.csv"
        edited_stmf(path, edits, with_exposures=False)
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: BEL/M 2020: {missing}")):
            load_weekly_csv(path, "STMF")

    @pytest.mark.parametrize("factor, refused", [
        (1.001, True), (1.0 + RATE_IDENTITY_RTOL / 2, False)])
    def test_rate_identity_of_a_loaded_file(self, tmp_path, factor, refused):
        # d = 10 and E = 5000 in every week; week 3 of 0-14 has the rate
        # d / E times `factor`, so m * E misses d by 10 * (factor - 1).
        path = tmp_path / "stmf.csv"
        rate = 10.0 / 5000.0 * factor
        edited_stmf(path, {("0-14", 3): ("10", format(rate, ".17g"))})
        if refused:
            with pytest.raises(ValidationError, match=re.escape(
                    "death_rate * exposure != deaths in bucket 0-14 "
                    "(first offending week 3)")):
                load_weekly_csv(path, "STMF")
        else:
            assert load_weekly_csv(path, "STMF").exposures[AgeBucket(0, 14)][2] == 5000.0

    def test_rate_identity_names_the_true_week(self, tmp_path):
        # Week 1 of 0-14 has no rate, so it is not checked; the wrong rate
        # of week 3 is still named as week 3.
        path = tmp_path / "stmf.csv"
        edited_stmf(path, {("0-14", 1): ("10", ""), ("0-14", 3): ("10", "0.003")})
        with pytest.raises(ValidationError, match=re.escape(
                "death_rate * exposure != deaths in bucket 0-14 "
                "(first offending week 3)")):
            load_weekly_csv(path, "STMF")

    @pytest.mark.parametrize("weeks, deaths, message", [
        (51, "10", "week count must be 52 or 53, got 51"),
        (54, "10", "week count must be 52 or 53, got 54"),
        (52, "-10", "negative deaths in bucket 0-14"),
    ])
    def test_a_refused_series_names_its_file(self, tmp_path, weeks, deaths, message):
        # The rows of weeks 1..`weeks` of a 53-week file, week 54 a copy of
        # week 53; the first row (0-14, week 1) gets `deaths`.
        path = tmp_path / "stmf.csv"
        write_weekly_csv(path, [weekly_stmf(weeks=53)], "STMF")
        header, *lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        rows = [f for f in rows if int(f[2]) <= weeks] + [
            f[:2] + ["54"] + f[3:] for f in rows if weeks == 54 and f[2] == "53"]
        rows[0][5] = deaths
        path.write_text("\n".join([header] + [",".join(f) for f in rows]) + "\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
            load_weekly_csv(path, "STMF")

    def test_eurow_roundtrip(self, tmp_path):
        series = weekly_eurow()
        path = tmp_path / "eurow.csv"
        write_weekly_csv(path, [series], "EUROW")
        loaded = load_weekly_csv(path, "EUROW")
        assert loaded.exposures is None
        assert set(loaded.deaths) == set(EUROW_BUCKETS)

    def test_series_must_agree_on_carrying_exposures(self, tmp_path):
        mixed = [weekly_stmf(gender="M"),
                 weekly_stmf(gender="F", with_exposures=False)]
        with pytest.raises(ValidationError, match="disagree"):
            write_weekly_csv(tmp_path / "mixed.csv", mixed, "STMF")

    def test_multiple_series_need_filters(self, tmp_path):
        path = tmp_path / "two.csv"
        write_weekly_csv(path, [weekly_stmf(gender=g) for g in GENDERS], "STMF")
        with pytest.raises(ParseError, match="multiple series"):
            load_weekly_csv(path, "STMF")
        loaded = load_weekly_csv(path, "STMF", gender="F")
        assert loaded.gender == "F"

    @staticmethod
    def _two_gender_file(path):
        write_weekly_csv(path, [weekly_stmf(gender=g) for g in GENDERS], "STMF")
        return path

    def test_gender_tuple_splits_the_file_in_one_parse(self, tmp_path):
        path = self._two_gender_file(tmp_path / "two.csv")
        split = load_weekly_csv(path, "STMF", year=2020, gender=GENDERS)
        assert list(split) == list(GENDERS)
        for gender in GENDERS:
            one = load_weekly_csv(path, "STMF", year=2020, gender=gender)
            got = split[gender]
            assert (got.country, got.gender, got.year, got.week_count,
                    got.exposure_origin) == (one.country, one.gender, one.year,
                                             one.week_count, one.exposure_origin)
            for table in ("deaths", "exposures"):
                assert list(getattr(got, table)) == list(getattr(one, table))
                for bucket, values in getattr(one, table).items():
                    np.testing.assert_array_equal(getattr(got, table)[bucket],
                                                  values)

    @pytest.mark.parametrize("gender", GENDERS)
    def test_bad_row_of_either_gender_keeps_its_line(self, tmp_path, gender):
        path = self._two_gender_file(tmp_path / "two.csv")
        lines = path.read_text().splitlines(keepends=True)
        # Line 1 is the header; the F rows follow all five M buckets.
        lineno = 2 + 3 * 52 + 9 + (5 * 52 if gender == "F" else 0)
        fields = lines[lineno - 1].split(",")
        assert fields[3] == gender
        fields[5] = "n/a"
        lines[lineno - 1] = ",".join(fields)
        path.write_text("".join(lines))
        message = f"{path}:{lineno}: unparseable deaths 'n/a'"
        with pytest.raises(ParseError) as split:
            load_weekly_csv(path, "STMF", gender=GENDERS)
        with pytest.raises(ParseError) as one:
            load_weekly_csv(path, "STMF", gender=gender)
        assert str(split.value) == str(one.value) == message

    def test_split_needs_one_series_per_gender(self, tmp_path):
        path = tmp_path / "three.csv"
        write_weekly_csv(path, [weekly_stmf(gender="M"), weekly_stmf(gender="F"),
                                weekly_stmf(country="NLD", gender="F")], "STMF")
        with pytest.raises(ParseError, match="multiple series"):
            load_weekly_csv(path, "STMF", gender=GENDERS)
        assert load_weekly_csv(path, "STMF", gender=("M",))["M"].country == "BEL"

    def test_split_needs_rows_for_every_gender(self, tmp_path):
        path = tmp_path / "m.csv"
        write_weekly_csv(path, [weekly_stmf(gender="M")], "STMF")
        with pytest.raises(ParseError, match="no rows match"):
            load_weekly_csv(path, "STMF", gender=GENDERS)

    def test_duplicate_cell_refused(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_weekly_csv(path, [weekly_stmf()], "STMF")
        with path.open("a") as handle:
            handle.write("BEL,2020,1,M,0-14,10,0.002,5000\n")
        with pytest.raises(ParseError, match="duplicate row"):
            load_weekly_csv(path, "STMF")

    def test_padded_label_is_the_same_bucket(self, tmp_path):
        # Labels are remembered by their raw text, repeats by their bucket.
        path = tmp_path / "dup.csv"
        write_weekly_csv(path, [weekly_stmf()], "STMF")
        with path.open("a") as handle:
            handle.write("BEL,2020,1,M, 0-14,10,0.002,5000\n")
        with pytest.raises(ParseError) as caught:
            load_weekly_csv(path, "STMF")
        assert str(caught.value) == f"{path}:262: duplicate row for bucket 0-14, week 1"

    def test_foreign_bucket_refused(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_weekly_csv(path, [weekly_stmf()], "STMF")
        with path.open("a") as handle:
            handle.write("BEL,2020,1,M,5-9,10,0.002,5000\n")
        with pytest.raises(ParseError, match="not valid for STMF"):
            load_weekly_csv(path, "STMF")


class TestUkAggregation:
    def test_cellwise_sum(self):
        a = weekly_stmf(country="GBRTENW",
                        deaths_per_week={b: 3.0 for b in STMF_BUCKETS},
                        weekly_exposure={b: 100.0 for b in STMF_BUCKETS})
        b = weekly_stmf(country="GBR_SCO",
                        deaths_per_week={b: 4.0 for b in STMF_BUCKETS},
                        weekly_exposure={b: 200.0 for b in STMF_BUCKETS})
        uk = aggregate_uk([a, b])
        assert uk.country == "UNK"
        for bucket in STMF_BUCKETS:
            np.testing.assert_allclose(uk.deaths[bucket], 7.0)
            np.testing.assert_allclose(uk.exposures[bucket], 300.0)
        assert uk.exposure_origin == "column"

    @staticmethod
    def _derived(tmp_path, country, edits):
        path = tmp_path / f"{country}.csv"
        edited_stmf(path, edits, country=country, with_exposures=False)
        return load_weekly_csv(path, "STMF")

    def test_derived_constituent_with_a_zero_death_week(self, tmp_path):
        # Week 7 of 0-14 has no deaths at rate 0, so its exposure is unknown
        # in the file; the constituent's other weeks give it.
        quiet = self._derived(tmp_path, "GBRTENW", {("0-14", 7): ("0", "0")})
        other = self._derived(tmp_path, "GBR_SCO", {})
        uk = aggregate_uk([quiet, other])
        np.testing.assert_allclose(uk.exposures[AgeBucket(0, 14)], 10000.0,
                                   rtol=1e-12)
        assert uk.deaths[AgeBucket(0, 14)][6] == 10.0
        annual = annualize_weekly_exposure(uk)
        for bucket in STMF_BUCKETS:
            assert annual.exposures[bucket] == pytest.approx(52 * 10000.0, rel=1e-12)

    @pytest.mark.parametrize("edits", [
        {("0-14", 7): None}, {("0-14", 7): ("10", "0")},
        {("0-14", week): ("0", "0") for week in range(1, 53)},
    ], ids=["missing-row", "deaths-at-rate-0", "no-positive-rate"])
    def test_derived_constituent_holes_still_refused(self, tmp_path, edits):
        # Refused as the constituent's file is read, before aggregation.
        with pytest.raises(ValidationError, match=r"GBRTENW\.csv: GBRTENW/M 2020: \w+ "
                                                  r"missing for bucket 0-14, week\(s\) "):
            self._derived(tmp_path, "GBRTENW", edits)

    @pytest.mark.parametrize("origins, expected", [
        (("column", "column"), "column"), (("derived", "derived"), "derived"),
        (("column", "derived"), "mixed"), (("derived", "column"), "mixed"),
    ], ids=["column", "derived", "column-derived", "derived-column"])
    def test_exposure_origin_of_the_aggregate(self, tmp_path, origins, expected):
        series = []
        for country, origin in zip(("GBRTENW", "GBR_SCO"), origins):
            path = tmp_path / f"{country}.csv"
            edited_stmf(path, {}, country=country, with_exposures=origin == "column")
            series.append(load_weekly_csv(path, "STMF"))
        assert [s.exposure_origin for s in series] == list(origins)
        assert aggregate_uk(series).exposure_origin == expected

    def test_needs_two_constituents(self):
        with pytest.raises(ValidationError, match="at least two"):
            aggregate_uk([weekly_stmf()])

    def test_week_count_mismatch(self):
        with pytest.raises(ValidationError, match="disagree"):
            aggregate_uk([weekly_stmf(weeks=52), weekly_stmf(weeks=53)])


class TestConsistency:
    @staticmethod
    def _pair(perturb=None, drop=None, stmf_weeks=52):
        euro_deaths = {b: 2.0 for b in EUROW_BUCKETS}
        if drop is not None:
            euro_deaths.pop(drop)
        euro = weekly_eurow(deaths_per_week=euro_deaths)
        cover_count = {  # EUROW buckets per STMF bucket
            AgeBucket(0, 14): 3, AgeBucket(15, 64): 10, AgeBucket(65, 74): 2,
            AgeBucket(75, 84): 2, AgeBucket(85, None): 2,
        }
        stmf = weekly_stmf(
            weeks=stmf_weeks,
            deaths_per_week={b: 2.0 * n for b, n in cover_count.items()})
        if perturb is not None:
            bucket, week, delta = perturb
            stmf.deaths[bucket].flags.writeable = True
            stmf.deaths[bucket][week - 1] += delta
        return euro, stmf

    def test_consistent(self):
        euro, stmf = self._pair()
        report = check_eurostat_stmf_consistency(euro, stmf)
        assert report.comparable and report.consistent
        assert report.mismatches == ()

    def test_small_rounding_tolerated(self):
        euro, stmf = self._pair(perturb=(AgeBucket(15, 64), 3, 0.9))
        report = check_eurostat_stmf_consistency(euro, stmf)
        assert report.consistent

    def test_mismatch_detected_with_location(self):
        euro, stmf = self._pair(perturb=(AgeBucket(85, None), 7, 2.5))
        report = check_eurostat_stmf_consistency(euro, stmf)
        assert report.comparable and not report.consistent
        labels = {(m[0], m[1]) for m in report.mismatches}
        assert ("85+", 7) in labels

    def test_mismatches_in_bucket_then_week_order(self):
        euro, stmf = self._pair()
        deaths = {b: arr.copy() for b, arr in stmf.deaths.items()}
        for bucket, week in ((AgeBucket(85, None), 3), (AgeBucket(0, 14), 40),
                             (AgeBucket(0, 14), 2)):
            deaths[bucket][week - 1] += 5.0
        report = check_eurostat_stmf_consistency(euro, replace(stmf, deaths=deaths))
        assert report.mismatches == (("0-14", 2, 6.0, 11.0), ("0-14", 40, 6.0, 11.0),
                                     ("85+", 3, 4.0, 9.0))
        assert {type(m[1]) for m in report.mismatches} == {int}

    def test_missing_refinement_not_comparable(self):
        euro, stmf = self._pair(drop=AgeBucket(5, 9))
        report = check_eurostat_stmf_consistency(euro, stmf)
        assert not report.comparable and not report.consistent
        assert "0-14" in report.detail

    def test_week_count_mismatch_not_comparable(self):
        euro, stmf = self._pair(stmf_weeks=53)
        report = check_eurostat_stmf_consistency(euro, stmf)
        assert not report.comparable
        assert "week counts" in report.detail


def fragment_records(frag):
    """(country, gender, age, year, quantity, value, provenance) of every
    record, in the fragment's order."""
    return [
        (frag.countries[c], GENDERS[g], int(a), int(y), QUANTITIES[q],
         float(v), PROVENANCE_CODES[p])
        for c, g, a, y, q, v, p in zip(frag.country, frag.gender, frag.age, frag.year,
                                       frag.quantity, frag.value, frag.provenance)
    ]


def load_outcome(path, shape):
    """The records of a load, or the type and text of the error it raised."""
    try:
        return fragment_records(load_individual_age_csv(path, shape))
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


HEADER = "country,year,gender,age,deaths,exposure,provenance"

#: name -> (file text, source shape, whether the one-call parse takes it).
EDGE_FILES = {
    "plain": (HEADER + "\nAAA,2001,M,0,12.5,1000,HMD\nAAA,2001,F,0,9,990.5,EURO\n",
              "HMD", True),
    "no provenance column": ("country,year,gender,age,deaths,exposure\n"
                             "AAA,2001,M,0,12.5,1000\nAAA,2001,M,1,3,900\n",
                             "STATBEL", True),
    "crlf": (HEADER + "\r\nAAA,2001,M,0,12.5,1000,HMD\r\nAAA,2001,M,1,3,900,HMD\r\n",
             "HMD", True),
    "quoted": (HEADER + '\n"AAA","2001","M",0,"12.5",1000,"HMD"\n"A,B",2001,F,0,1,2,HMD\n',
               "HMD", True),
    "stray quote": (HEADER + '\nA"A,2001,M,0,12.5,1000,HMD\n', "HMD", True),
    "padded numbers": (HEADER + "\nAAA, 2001 ,M, 0 , 12.5 ,1000 ,HMD\n", "HMD", True),
    "padded country": (HEADER + "\n AAA ,2001,M,0,12.5,1000,HMD\n", "HMD", False),
    "padded gender": (HEADER + "\nAAA,2001, F,0,12.5,1000,HMD\n", "HMD", False),
    "padded provenance": (HEADER + "\nAAA,2001,M,0,12.5,1000, HMD \n", "HMD", False),
    "long country": (HEADER + "\nLONGCOUNTRY,2001,M,0,12.5,1000,HMD\n", "HMD", False),
    "underscore digits": (HEADER + "\nAAA,2001,M,1_0,1_2.5,1000,HMD\n", "HMD", False),
    "nan deaths": (HEADER + "\nAAA,2001,M,0,nan,1000,HMD\n", "HMD", False),
    "inf exposure": (HEADER + "\nAAA,2001,M,0,1,inf,HMD\n", "HMD", False),
    "empty exposure": (HEADER + "\nAAA,2001,M,0,1,,HMD\nAAA,2001,M,1,1,5,HMD\n",
                       "HMD", False),
    "blank lines": (HEADER + "\nAAA,2001,M,0,1,5,HMD\n\n   \n,,,,,,\nAAA,2001,M,1,1,5,HMD\n",
                    "HMD", False),
    "partial provenance": (HEADER + "\nAAA,2001,M,0,1,5,VIRTUAL\nAAA,2001,M,1,1,5,\n"
                           "AAA,2001,M,2,1,5\n", "EURO", False),
    "bad provenance": (HEADER + "\nAAA,2001,M,0,1,5,HMD\nAAA,2001,M,1,1,5,XYZ\n",
                       "HMD", False),
    "duplicate row": (HEADER + "\nAAA,2001,M,0,1,5,HMD\nAAA,2001,M,0,2,5,HMD\n",
                      "HMD", False),
    "huge year": (HEADER + "\nAAA,99999999999999999999,M,0,1,5,HMD\n", "HMD", False),
    "nul in country": (HEADER + "\nAA\x00,2001,M,0,1,5,HMD\n", "HMD", False),
    "header only": (HEADER + "\n", "HMD", False),
    "decimal age": (HEADER + "\nAAA,2001,M,1.5,1,5,HMD\n", "HMD", False),
    "negative decimal age": (HEADER + "\nAAA,2001,M,-0.5,1,5,HMD\n", "HMD", False),
    "decimal year": (HEADER + "\nAAA,2001.0,M,0,1,5,HMD\n", "HMD", False),
    "exponent year": (HEADER + "\nAAA,2e3,M,0,1,5,HMD\n", "HMD", False),
    "nan year": (HEADER + "\nAAA,nan,M,0,1,5,HMD\n", "HMD", False),
    "repeat in second country": (HEADER + "\nAAA,2001,M,0,1,5,HMD\nBBB,2001,M,0,1,5,HMD\n"
                                 "BBB,2001,M,1,1,5,HMD\nBBB,2001,M,0,2,5,HMD\n",
                                 "HMD", False),
    "extreme years": (HEADER + f"\nAAA,{-2**62},M,0,1,5,HMD\nAAA,{2**62},M,0,1,5,HMD\n"
                      f"AAA,{2**62},F,0,1,5,HMD\n", "HMD", False),
    "130 countries": (HEADER + "".join(f"\nC{i:03d},2001,{'MF'[i % 2]},0,1,5,HMD"
                                       for i in range(130)) + "\nC129,2001,M,0,1,5,HMD\n",
                      "HMD", True),
}


class TestIndividualCsv:
    def test_roundtrip_with_provenance(self, tmp_path):
        records = [
            ("AAA", 2001, "M", 0, 12.5, 1000.0, "HMD"),
            ("AAA", 2001, "M", 1, 3.25, 990.5, "VIRTUAL"),
            ("AAA", 2001, "F", 0, 9.0, None, "EUROW"),
        ]
        path = tmp_path / "ind.csv"
        write_individual_age_csv(path, records)
        frag = load_individual_age_csv(path, "HMD")
        assert fragment_records(frag) == [
            ("AAA", "M", 0, 2001, "deaths", 12.5, "HMD"),
            ("AAA", "M", 0, 2001, "exposures", 1000.0, "HMD"),
            ("AAA", "M", 1, 2001, "deaths", 3.25, "VIRTUAL"),
            ("AAA", "M", 1, 2001, "exposures", 990.5, "VIRTUAL"),
            ("AAA", "F", 0, 2001, "deaths", 9.0, "EUROW"),
        ]

    def test_default_provenance_is_source_shape(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text("country,year,gender,age,deaths,exposure\n"
                        "BEL,2005,F,40,11,8000\n")
        frag = load_individual_age_csv(path, "STATBEL")
        assert fragment_records(frag)[0] == ("BEL", "F", 40, 2005, "deaths", 11.0,
                                             "STATBEL")

    @pytest.mark.parametrize("shape", ["VIRTUAL", "STMF"])
    def test_only_individual_shapes_are_read(self, tmp_path, shape):
        with pytest.raises(ValidationError, match="unknown individual-age shape"):
            load_individual_age_csv(tmp_path / "ind.csv", shape)

    @pytest.mark.parametrize("name", sorted(EDGE_FILES))
    def test_one_call_parse_matches_row_loop(self, tmp_path, monkeypatch, name):
        text, shape, one_call = EDGE_FILES[name]
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode())
        taken = []
        parse = data._parse_rows_at_once
        monkeypatch.setattr(data, "_parse_rows_at_once",
                            lambda *args: taken.append(parse(*args)) or taken[-1])
        fast = load_outcome(path, shape)
        monkeypatch.setattr(data, "_parse_rows_at_once", lambda *args: None)
        assert fast == load_outcome(path, shape)
        assert [t is not None for t in taken] == [one_call]

    def test_one_call_parse_refused_on_warning(self, tmp_path, monkeypatch):
        # Older numpy releases read "1.5" into an integer field as 1 and
        # only warn; such a parse must fall back to the row loop.
        path = tmp_path / "edge.csv"
        path.write_text(HEADER + "\nAAA,2001,M,1.5,1,5,HMD\n")
        loadtxt = np.loadtxt

        def lenient(source, *args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return loadtxt(io.StringIO(source.read().replace("1.5", "1")),
                           *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", lenient)
        with pytest.raises(ParseError, match=r"edge\.csv:2: unparseable age '1\.5'"):
            load_individual_age_csv(path, "HMD")

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("country,year,gender,age,deaths,exposure\n"
                        "BEL,2005,M,40,11,8000\n"
                        "BEL,2005,X,41,11,8000\n")
        with pytest.raises(ParseError, match=r"bad\.csv:3"):
            load_individual_age_csv(path, "HMD")

    def test_age_above_110_refused(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("country,year,gender,age,deaths,exposure\n"
                        "BEL,2005,M,111,1,10\n")
        with pytest.raises(ParseError, match="outside 0..110"):
            load_individual_age_csv(path, "HMD")

    def test_negative_deaths_refused(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("country,year,gender,age,deaths,exposure\n"
                        "BEL,2005,M,40,-1,10\n")
        with pytest.raises(ValidationError, match="negative deaths"):
            load_individual_age_csv(path, "HMD")

    def test_duplicate_cell_refused(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("country,year,gender,age,deaths,exposure\n"
                        "BEL,2005,M,40,1,10\n"
                        "BEL,2005,M,40,2,10\n")
        with pytest.raises(ParseError, match="duplicate deaths"):
            load_individual_age_csv(path, "HMD")


#: Year sets of the random fragments: a short run of years, and years
#: whose range passes 2**40 or 2**63, where packing by range would overflow.
FRAGMENT_YEARS = ((2000, 2001, 2002), (-2**40, 0, 2**40 + 1), (-2**62, 1, 2**62))


@st.composite
def fragments(draw):
    """A fragment of up to 40 records over 1, 2 or 130 countries (codes past
    int8), ages 0, 1 and 110 and one of FRAGMENT_YEARS, often with a record
    given twice."""
    names = tuple(f"C{i:03d}" for i in range(draw(st.sampled_from([1, 2, 130]))))
    years = draw(st.sampled_from(FRAGMENT_YEARS))
    records = draw(st.lists(st.tuples(
        st.integers(0, len(names) - 1), st.integers(0, 1), st.sampled_from([0, 1, 110]),
        st.sampled_from(years), st.integers(0, 1), st.floats(0, 10),
        st.integers(0, len(PROVENANCE_CODES) - 1)), max_size=40))
    if records and draw(st.booleans()):
        copied = records[draw(st.integers(0, len(records) - 1))]
        records.insert(draw(st.integers(0, len(records))), copied)
    columns = zip(*records) if records else [()] * 7
    return SurfaceFragment(names, **dict(zip(SurfaceFragment.COLUMNS, columns)))


#: Names outside GENDERS and PROVENANCE_CODES, which code as -1.
UNKNOWN_NAMES = ("", "X", "MM", "m", "HMD ")


class TestFragmentOracles:
    @settings(deadline=None, max_examples=300)
    @given(fragments())
    def test_repeats_exactly_when_the_oracle_refuses(self, fragment):
        # Where the packed key would not fit in int64 the answer is True,
        # so that the row loop decides.
        assume(fragment.value.size)
        columns = (fragment.country, fragment.gender, fragment.age, fragment.year,
                   fragment.quantity)
        fits = math.prod(int(c.max()) - int(c.min()) + 1 for c in columns) < 2**63
        try:
            unique_rank_check_unique(fragment)
            refused = False
        except ValidationError:
            refused = True
        assert data._repeats(fragment) == (refused or not fits)

    @settings(deadline=None, max_examples=300)
    @given(fragments(), st.data())
    def test_restrict_keeps_the_oracles_records(self, fragment, choose):
        def subset(names):
            return choose.draw(st.none() | st.sets(st.sampled_from(names)))

        countries, genders, quantities = (subset(fragment.countries), subset(GENDERS),
                                          subset(QUANTITIES))
        years = choose.draw(st.none() | st.tuples(
            *[st.sampled_from(FRAGMENT_YEARS[-1] + FRAGMENT_YEARS[0])] * 2).map(sorted))
        min_age = choose.draw(st.sampled_from([0, 1, 110, 111]))
        got = fragment.restrict(countries, genders, years and range(years[0], years[1] + 1),
                                quantities, min_age)
        want = isin_restrict(fragment, countries, genders,
                             years and set(y for y in fragment.year.tolist()
                                           if years[0] <= y <= years[1]),
                             quantities, min_age)
        assert got.countries == fragment.countries
        assert fragment_records(got) == fragment_records(want)

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.tuples(st.sampled_from(GENDERS + PROVENANCE_CODES + UNKNOWN_NAMES),
                              st.integers(1, 5)), max_size=12),
           st.sampled_from([GENDERS, PROVENANCE_CODES]))
    def test_codes_by_run_equal_codes_by_name(self, runs, table):
        # Runs of repeated names, as files list them, with names outside
        # the table among them.
        names = np.array([name for name, length in runs for _ in range(length)],
                         dtype="U8")
        got = data._codes(names, table)
        assert got.dtype == np.int8
        assert got.tolist() == per_name_codes(names, table).tolist()
        assert all((code == -1) == (name not in table)
                   for name, code in zip(names.tolist(), got.tolist()))

    def test_wide_years_are_no_repeat(self, tmp_path, monkeypatch):
        # Years spanning all of int64 cannot be packed, so the row loop
        # reads the file, and finds no repeat.
        years = (-2**63, 0, 2**63 - 1)
        path = tmp_path / "wide.csv"
        path.write_text(HEADER + "".join(f"\nAAA,{year},M,0,{k},5,HMD"
                                         for k, year in enumerate(years)) + "\n")
        taken = []
        parse = data._parse_rows_at_once
        monkeypatch.setattr(data, "_parse_rows_at_once",
                            lambda *args: taken.append(parse(*args)) or taken[-1])
        records = fragment_records(load_individual_age_csv(path, "HMD"))
        assert taken == [None]
        assert records == [record for k, year in enumerate(years) for record in (
            ("AAA", "M", 0, year, "deaths", float(k), "HMD"),
            ("AAA", "M", 0, year, "exposures", 5.0, "HMD"))]


class TestFastPathGuard:
    """Bundles shaped like the `ingest` and `nowcast` bench worlds are read
    without the row loop: a check that sends every generated file to the
    row loop fails here rather than only in the benchmark."""

    @pytest.mark.parametrize("weekly", [
        (WeeklyDegradation("AAA", 2015, ("STMF", "EUROW")),),
        (WeeklyDegradation("AAA", 2014, ("STMF", "EUROW"), 53),
         WeeklyDegradation("AAA", 2015, ("STMF", "EUROW")),
         WeeklyDegradation("BBB", 2014, ("STMF",), 53),
         WeeklyDegradation("BBB", 2015, ("STMF",))),
    ], ids=["ingest", "nowcast"])
    def test_generated_files_take_the_one_call_parse(self, tmp_path, monkeypatch,
                                                     weekly):
        make_synthetic_fixture(FixtureParams(
            countries=("AAA", "BBB", "CCC", "DDD"), years=YearRange(2002, 2015),
            n_paths=10, weekly=weekly), tmp_path)

        def refuse(path, *args):
            raise AssertionError(f"{path} was read by the row loop")

        monkeypatch.setattr(data, "_parse_rows_one_by_one", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assembled = assemble_dataset(load_run_config(tmp_path / "config.yaml"))
        assert len(assembled.dataset.surfaces) == 8


def tiny_config(root, sources):
    """A one-country run over ages 0..90 and years 2000-2002 reading the
    given individual-age declarations."""
    individual = [{"shape": "HMD", "country": "AAA",
                   "years": {"first": s["years"][0], "last": s["years"][1]},
                   **{k: v for k, v in s.items() if k != "years"}}
                  for s in sources]
    return build_run_config({
        "country_of_interest": "AAA", "common_pool": ["AAA"],
        "ages": {"min": 0, "max": 90}, "years": {"first": 2000, "last": 2002},
        "sources": {"individual": individual},
        "method": {"kind": "WEIGHTED_LIKELIHOOD", "grid": [1.0]},
        "simulation": {"n_paths": 2, "horizon": 2010, "seed": 1},
        "report": {"ages": [0]},
    }, root)


class TestSurfaces:
    def test_rate_sanity_bound(self):
        ages, years = AgeRange(0, 1), YearRange(2000, 2000)
        prov = np.full((2, 1), PROVENANCE_CODES.index("HMD"), dtype=np.int8)
        with pytest.raises(ValidationError, match="sanity bound"):
            MortalitySurface("AAA", "M", ages, years,
                            np.array([[6.0], [1.0]]), np.ones((2, 1)),
                            prov, prov.copy())

    def test_assembly_names_missing_cell(self, tmp_path):
        records = [("AAA", year, g, age, 1.0, 100.0, "HMD") for g in GENDERS
                   for year in (2000, 2001, 2002) for age in range(91)
                   if (g, age, year) != ("M", 1, 2001)]
        write_individual_age_csv(tmp_path / "AAA.csv", records)
        config = tiny_config(tmp_path, [{"path": "AAA.csv", "years": (2000, 2002)}])
        with pytest.raises(ValidationError, match="deaths for age 1, year 2001"):
            assemble_dataset(config)

    def test_overlapping_declarations_refused(self, tmp_path):
        # The two declarations overlap only before the model years; the
        # coverage check refuses that when the config is built, before
        # any file is read.
        with pytest.raises(ConfigError, match=r"^2 overlapping sources for "
                                              r"\(AAA, 1998, exposures\); "):
            tiny_config(tmp_path, [
                {"path": "AAA.csv", "years": (1998, 2002)},
                {"path": "AAA_old.csv", "years": (1998, 1999),
                 "quantities": ["exposures"]},
            ])

    def test_open_total_matches_first_seen_order_and_fsum(self, tmp_path, monkeypatch):
        # Deaths and exposures come from two files whose rows are shuffled
        # differently, over ages 0..110 against a model ending at 90.  Last
        # year's open-bucket total that exposure ungrouping takes (the
        # curve's sum over 85..90 plus the observed exposures above 90)
        # matches the sum in the order each cell first appears among the
        # records and the correctly rounded sum.
        rng = np.random.default_rng(5)
        rows = [(g, year, age) for g in GENDERS for year in (2000, 2001, 2002)
                for age in range(0, 111)]
        # Above 5e5 everywhere, so the age-0 extrapolation 2 E(0) - E(1) of
        # the exposure shift stays positive.
        exposure = {row: float(x) for row, x in zip(rows, rng.uniform(6e5, 1e6, len(rows)))}
        order_d, order_e = rng.permutation(len(rows)), rng.permutation(len(rows))
        write_individual_age_csv(tmp_path / "D.csv", [
            ("AAA", rows[k][1], rows[k][0], rows[k][2], 1.0, None, "HMD")
            for k in order_d])
        write_individual_age_csv(tmp_path / "E.csv", [
            ("AAA", rows[k][1], rows[k][0], rows[k][2], 1.0, exposure[rows[k]], "HMD")
            for k in order_e])
        config = tiny_config(tmp_path, [
            {"path": "D.csv", "years": (2000, 2002), "quantities": ["deaths"]},
            {"path": "E.csv", "years": (2000, 2002), "quantities": ["exposures"]},
        ])
        assembler = _Assembler(config)
        assembler.load_sources()
        taken = []
        apply = ungroup.apply_open_bucket_exposure

        def record(prev, open_total, prev_open_total, open_lower):
            taken.append(prev_open_total)
            return apply(prev, open_total, prev_open_total, open_lower)

        monkeypatch.setattr(ungroup, "apply_open_bucket_exposure", record)
        weekly = {bucket: 1e6 for bucket in STMF_BUCKETS}
        assembler._ungroup_exposure_year("AAA", 2002, {
            gender: weekly_stmf("AAA", gender, 2002, weekly_exposure=weekly)
            for gender in GENDERS})
        # The records in declaration order, as the files hold them.
        records = SurfaceFragment()
        records.update(*(load_individual_age_csv(tmp_path / name, "HMD")
                         for name in ("D.csv", "E.csv")))
        for g, gender in enumerate(GENDERS):
            first_seen = first_seen_open_total(records, "AAA", gender, 2001, 85, 90)
            exact = math.fsum(exposure[gender, 2001, age] for age in range(85, 111))
            assert abs(taken[g] / first_seen - 1.0) <= 1e-14
            assert abs(taken[g] / exact - 1.0) <= 1e-14

    def test_observed_keeps_only_records_from_the_top_age_up(self, tmp_path):
        # The grids take the declared records inside the model window; the
        # records kept besides are those at ages >= 90 of every declared
        # year, which is all ungrouping reads.
        records = [("AAA", year, g, age, 1.0 + age, 1000.0 + year + age, "HMD")
                   for g in GENDERS for year in range(1998, 2003)
                   for age in range(0, 111)]
        write_individual_age_csv(tmp_path / "AAA.csv", records)
        config = tiny_config(tmp_path, [{"path": "AAA.csv", "years": (1998, 2002)}])
        assembler = _Assembler(config)
        assembler.load_sources()
        kept = fragment_records(assembler.observed)
        assert kept == [(c, g, a, y, q, v, p) for c, g, a, y, q, v, p
                        in fragment_records(load_individual_age_csv(
                            tmp_path / "AAA.csv", "HMD")) if a >= 90]
        assert len(kept) == 2 * 5 * 21 * 2
        deaths, exposures = assembler._values[0, 0]
        np.testing.assert_array_equal(deaths, np.repeat(np.arange(1.0, 92.0)[:, None],
                                                        3, axis=1))
        np.testing.assert_array_equal(
            exposures, 1000.0 + np.arange(91)[:, None] + np.arange(2000, 2003))

    def test_reference_year_before_the_window_supplies_the_90_plus_tail(
            self, tmp_path, monkeypatch):
        # AAA 2019 comes as STMF plus EUROW, so its 90+ deaths follow the
        # reference-tail rule.  The declarations start in 2008 and the model
        # window in 2010, and the reference year 2009 is read from the
        # declared records.
        make_synthetic_fixture(FixtureParams(
            years=YearRange(2008, 2019),
            weekly=(WeeklyDegradation("AAA", 2019, ("STMF", "EUROW")),)), tmp_path)
        doc = yaml.safe_load((tmp_path / "config.yaml").read_text())
        doc["years"] = {"first": 2010, "last": 2019}
        doc["ungrouping"]["reference_year"] = {"AAA": 2009}
        config = build_run_config(doc, tmp_path)
        taken = {}
        ungroup_deaths = ungroup.ungroup_deaths

        def record(aux, gender, year, *args, reference_tail=None, **options):
            taken[gender, year] = reference_tail
            return ungroup_deaths(aux, gender, year, *args,
                                  reference_tail=reference_tail, **options)

        monkeypatch.setattr("mortkit.pipeline.ungroup_deaths", record)
        asked = []
        last_observed = _Assembler.last_observed
        monkeypatch.setattr(_Assembler, "last_observed", lambda self, *args: (
            asked.append(args[1]) or last_observed(self, *args)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assemble_dataset(config)
        # The config names the reference year: the default is never computed.
        assert ("deaths",) not in asked
        files = fragment_records(load_individual_age_csv(tmp_path / "data" / "AAA.csv",
                                                         "HMD"))
        for gender in GENDERS:
            expected = [v for c, g, a, y, q, v, p in files
                        if (g, y, q) == (gender, 2009, "deaths") and a >= 90]
            assert expected and taken[gender, 2019].tolist() == expected

    def test_virtual_cell_count(self):
        surface = flat_surface()
        prov = surface.deaths_provenance.copy()
        prov[:, -1] = VIRTUAL
        patched = MortalitySurface(
            surface.country, surface.gender, surface.ages, surface.years,
            surface.deaths, surface.exposures, prov,
            surface.exposures_provenance)
        assert patched.virtual_cell_count() == {
            "deaths": len(surface.ages), "exposures": 0}

    @pytest.mark.parametrize("codes", [
        np.full((5, 3), "HMD"),                               # names, not codes
        np.full((5, 3), len(PROVENANCE_CODES), dtype=np.int8),
        np.full((5, 3), -1, dtype=np.int8),
        np.zeros((5, 3), dtype=np.int64),                     # codes of another width
    ], ids=["names", "past-last-code", "negative", "int64"])
    @pytest.mark.parametrize("field", ["deaths_provenance", "exposures_provenance"])
    def test_provenance_must_be_int8_codes(self, codes, field):
        surface = flat_surface()
        with pytest.raises(ValidationError, match=f"{field} must hold int8 codes 0..5"):
            replace(surface, **{field: codes})
        replace(surface, **{field: np.full((5, 3), VIRTUAL, dtype=np.int8)})

    def test_dataset_aggregate_sums_pool(self):
        surfaces = {}
        for country, rate in (("AAA", 0.01), ("BBB", 0.03)):
            for gender in GENDERS:
                surfaces[(country, gender)] = flat_surface(
                    country=country, gender=gender, rate=rate)
        dataset = MultiPopulationDataset(surfaces=surfaces,
                                         common_pool=("AAA", "BBB"))
        d, e = dataset.aggregate("M")
        np.testing.assert_allclose(e, 2000.0)
        np.testing.assert_allclose(d, 0.01 * 1000 + 0.03 * 1000)

    def test_dataset_requires_pool_surfaces(self):
        surfaces = {("AAA", g): flat_surface(gender=g) for g in GENDERS}
        with pytest.raises(ValidationError, match="BBB"):
            MultiPopulationDataset(surfaces=surfaces,
                                   common_pool=("AAA", "BBB"))
