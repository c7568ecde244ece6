"""Customizable pollen allergy-season forecasting.

Daily pollen concentrations plus weather covariates go in; per-patient
season start/end forecasts with calibrated error bars come out.  The core
is a three-stage regression: a gradient-boosted countdown model, a second
boosted model predicting each countdown's uncertainty from held-out
residuals, and a weighted least-squares fusion of consecutive-day
predictions into one final date.
"""

from .backtest import BacktestConfig, BacktestReport, expanding_folds, rolling_backtest
from .data import (
    DailyRecord,
    Dataset,
    SeasonDefinition,
    SeasonLabel,
    ingest_csv,
    label_season,
    label_years,
)
from .pipeline import (
    Forecaster,
    build_s1,
    build_s2,
    fit_stage1,
    fit_stage2,
    load_forecaster,
    predict_series,
    save_forecaster,
    train_forecaster,
)
from .synth import GeneratorProfile, generate_synthetic
from .wls import (
    FinalForecast,
    ForecastSeries,
    final_forecast,
    fit_wls,
    min_days,
    threshold_function,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BacktestConfig",
    "BacktestReport",
    "DailyRecord",
    "Dataset",
    "FinalForecast",
    "Forecaster",
    "ForecastSeries",
    "GeneratorProfile",
    "SeasonDefinition",
    "SeasonLabel",
    "build_s1",
    "build_s2",
    "expanding_folds",
    "final_forecast",
    "fit_stage1",
    "fit_stage2",
    "fit_wls",
    "generate_synthetic",
    "ingest_csv",
    "label_season",
    "label_years",
    "load_forecaster",
    "min_days",
    "predict_series",
    "rolling_backtest",
    "save_forecaster",
    "threshold_function",
    "train_forecaster",
]
