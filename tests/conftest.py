"""Shared builders for small synthetic inputs."""
import numpy as np
import pytest

from mortkit.data import (AgeRange, BucketedWeeklySeries,
                          EUROW_BUCKETS, MortalitySurface, PROVENANCE_CODES,
                          STMF_BUCKETS, YearRange)


def weekly_stmf(country="BEL", gender="M", year=2020, weeks=52,
                deaths_per_week=None, weekly_exposure=None,
                with_exposures=True) -> BucketedWeeklySeries:
    """Constant-per-week STMF series; deaths/exposures keyed by bucket.
    Without `with_exposures` the exposures are marked derived, so that
    `write_weekly_csv` writes only their rates."""
    deaths_per_week = deaths_per_week or {b: 10.0 for b in STMF_BUCKETS}
    weekly_exposure = weekly_exposure or {b: 5000.0 for b in STMF_BUCKETS}
    deaths = {b: np.full(weeks, float(v)) for b, v in deaths_per_week.items()}
    exposures = {b: np.full(weeks, float(weekly_exposure[b])) for b in deaths}
    return BucketedWeeklySeries(
        country=country, gender=gender, year=year, week_count=weeks,
        deaths=deaths, exposures=exposures,
        exposure_origin="column" if with_exposures else "derived",
    )


def weekly_eurow(country="BEL", gender="M", year=2020, weeks=52,
                 deaths_per_week=None) -> BucketedWeeklySeries:
    deaths_per_week = deaths_per_week or {b: 2.0 for b in EUROW_BUCKETS}
    deaths = {b: np.full(weeks, float(v)) for b, v in deaths_per_week.items()}
    return BucketedWeeklySeries(country=country, gender=gender, year=year,
                                week_count=weeks, deaths=deaths)


def flat_surface(country="AAA", gender="M", ages=AgeRange(0, 4),
                 years=YearRange(2000, 2002), rate=0.01,
                 exposure=1000.0) -> MortalitySurface:
    shape = (len(ages), len(years))
    exposures = np.full(shape, float(exposure))
    deaths = exposures * rate
    prov = np.full(shape, PROVENANCE_CODES.index("HMD"), dtype=np.int8)
    return MortalitySurface(country, gender, ages, years, deaths, exposures,
                            prov, prov.copy())


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
