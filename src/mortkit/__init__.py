"""Coherent multi-population mortality modelling on disrupted data.

Calibrates a two-layer log-bilinear mortality model (a common trend for
a pool of countries plus a country-specific deviation) by conditional
Poisson maximum likelihood, fits joint random-walk/AR(1) dynamics to the
period effects with optional per-year weights, and simulates mortality
fan charts with seeded, order-independent random paths.  Weekly
bucketed death counts for recent disrupted years are ungrouped into
virtual individual-age data before calibration.
"""
from .config import RunConfig, load_run_config
from .data import (AgeBucket, AgeRange, BucketedAnnualSeries,
                   BucketedWeeklySeries, MortalitySurface,
                   MultiPopulationDataset, SurfaceFragment, YearRange,
                   aggregate_uk, annualize_weekly_deaths,
                   annualize_weekly_exposure, check_eurostat_stmf_consistency,
                   load_individual_age_csv, load_weekly_csv)
from .dynamics import (PeriodEffectSeries, TimeSeriesFit, build_design,
                       fit_weighted_mle)
from .errors import (ConfigError, ConvergenceError, MortkitError, ParseError,
                     ValidationError)
from .lilee import (LiLeeParams, calibrate, fit_adjusted_lee_miller,
                    lee_miller_anchors, poisson_loglik)
from .pipeline import RunReport, ScenarioResult, assemble_dataset, run_pipeline
from .project import (ScenarioSpec, SimulationPaths, central_period_effects,
                      cohort_life_expectancy, kannisto_close,
                      period_life_expectancy, quantile_summary,
                      simulate_period_effects)
from .ungroup import (AuxiliaryModel, fit_auxiliary_projection_model,
                      ungroup_deaths, ungroup_exposures)

__version__ = "0.1.0"

__all__ = [
    "AgeBucket", "AgeRange", "AuxiliaryModel", "BucketedAnnualSeries",
    "BucketedWeeklySeries", "ConfigError", "ConvergenceError", "LiLeeParams",
    "MortalitySurface", "MortkitError",
    "MultiPopulationDataset", "ParseError", "PeriodEffectSeries",
    "RunConfig", "RunReport", "ScenarioResult", "ScenarioSpec",
    "SimulationPaths", "SurfaceFragment", "TimeSeriesFit",
    "ValidationError", "YearRange", "aggregate_uk",
    "annualize_weekly_deaths", "annualize_weekly_exposure",
    "assemble_dataset", "build_design", "calibrate",
    "central_period_effects", "check_eurostat_stmf_consistency",
    "cohort_life_expectancy", "fit_adjusted_lee_miller",
    "fit_auxiliary_projection_model", "fit_weighted_mle", "kannisto_close",
    "lee_miller_anchors", "load_individual_age_csv", "load_run_config",
    "load_weekly_csv", "period_life_expectancy",
    "poisson_loglik", "quantile_summary", "run_pipeline",
    "simulate_period_effects", "ungroup_deaths", "ungroup_exposures",
]
