"""Rolling-origin evaluation of the full three-stage pipeline.

Each fold trains both stages on its training years only, forecasts the
held-out test year over a fixed day range, fuses the per-day predictions,
and records how the fused estimate and its error bar evolve as more
prediction days become available (the convergence trace).

A backtest plans every fold before the first fit, so a bad input raises its
error before any fit starts.  One :class:`~pollencast.pipeline.TrainingPlanner`
labels each year and builds its rows once for all the folds' trainings, and
the Stage-1 fits of every fold run on one pool
(:func:`~pollencast.pipeline.train_plans`): while a fold is forecast and
traced here, the workers go on with the next folds' fits.

A report is emitted as ``report.json``, the :class:`BacktestReport`
dataclass as it stands (``dataclasses.asdict``), plus ``folds.csv`` and one
``convergence_<year>.csv`` per fold, tables of named fields of its
:class:`FoldResult` and :class:`TracePoint` objects.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, SeasonDefinition, write_csv, write_json
from .errors import (
    DegenerateSlopeError,
    EmptyInputError,
    FoldConfigInvalidError,
    InvalidRecordError,
    LengthMismatchError,
    MissingLabelError,
)
from .gbm import GBMConfig
# train_forecaster is not called here, but stays importable from this module:
# the benchmark's tracer (perfbench/spans.py) wraps it by that name
from .pipeline import (  # noqa: F401
    DEFAULT_HORIZON,
    Forecaster,
    TrainingPlan,
    TrainingPlanner,
    train_forecaster,
    train_plans,
)
from .wls import BOUNDARIES, ForecastSeries, final_forecast, fit_wls, min_days

__all__ = [
    "Fold",
    "BacktestConfig",
    "TracePoint",
    "FoldResult",
    "BacktestReport",
    "expanding_folds",
    "rolling_backtest",
    "mae",
    "emit_report",
]


@dataclass(frozen=True)
class Fold:
    """One train/test split: the test year must not appear in training."""

    train_years: tuple[int, ...]
    test_year: int

    def __post_init__(self) -> None:
        if not self.train_years:
            raise FoldConfigInvalidError("fold has no training years")
        if self.test_year in self.train_years:
            raise FoldConfigInvalidError(
                f"test year {self.test_year} appears in its own training years"
            )


#: How a fold picks the days its test year is forecast on (see BacktestConfig).
Z_RANGE_POLICIES = ("train_mean", "truth")


@dataclass(frozen=True)
class BacktestConfig:
    """Folds plus everything needed to train and forecast each one.

    ``z_range_policy`` decides which days the test year is forecast on:
    ``train_mean`` anchors the window at the rounded mean training-year
    boundary (no test-year information), ``truth`` anchors it at the test
    year's actual boundary (diagnostic only).
    """

    folds: tuple[Fold, ...]
    definition: SeasonDefinition
    boundary: str = "start"
    horizon: int = DEFAULT_HORIZON
    z_range_policy: str = "train_mean"
    stage1_cfg: GBMConfig = GBMConfig()
    stage2_cfg: GBMConfig = GBMConfig()
    stage2_protocol: str = "loyo"

    def __post_init__(self) -> None:
        if self.z_range_policy not in Z_RANGE_POLICIES:
            raise InvalidRecordError(
                f"unknown z_range policy {self.z_range_policy!r}"
            )
        if self.boundary not in BOUNDARIES:
            raise InvalidRecordError(
                f"boundary must be 'start' or 'end', got {self.boundary!r}")


@dataclass(frozen=True)
class TracePoint:
    """Stage-3 output using only the first k prediction days.

    ``theory_reduces`` marks k at or past the minimum day count N_n for the
    fold's fitted line, the regime where fusion provably beats a single
    prediction.  Degenerate prefixes (slope ~ 0) carry None estimates.
    """

    k: int
    y_star: float | None
    sigma_y_star: float | None
    theory_reduces: bool


@dataclass(frozen=True)
class FoldResult:
    test_year: int
    truth: int
    y_star: float
    sigma_y_star: float
    abs_error: float
    stage1_last_day: float
    z_range: tuple[int, int]
    beta0: float
    beta1: float
    n_min: int | None
    trace: tuple[TracePoint, ...]

    def __post_init__(self) -> None:
        if not math.isclose(
            self.abs_error, abs(self.y_star - self.truth), abs_tol=1e-9
        ):
            raise InvalidRecordError("abs_error must equal |y_star - truth|")
        n_points = self.z_range[1] - self.z_range[0] + 1
        if tuple(p.k for p in self.trace) != tuple(range(2, n_points + 1)):
            raise InvalidRecordError(
                "trace must cover every prefix k = 2..series length"
            )


@dataclass(frozen=True)
class BacktestReport:
    """All fold results plus aggregate error metrics.

    ``mae`` scores the fused (Stage-3) forecasts; ``stage1_mae`` scores the
    naive alternative that trusts the last day's Stage-1 point estimate.
    """

    folds: tuple[FoldResult, ...]
    mae: float
    stage1_mae: float
    boundary: str
    horizon: int


def expanding_folds(years: Sequence[int], n_test: int) -> tuple[Fold, ...]:
    """Expanding-window folds: each of the last n_test years is tested
    against a model trained on every earlier year."""
    ys = tuple(sorted(years))
    if not 1 <= n_test <= len(ys) - 1:
        raise FoldConfigInvalidError(
            f"n_test must be in [1, {len(ys) - 1}], got {n_test}"
        )
    return tuple(
        Fold(train_years=ys[:i], test_year=ys[i])
        for i in range(len(ys) - n_test, len(ys))
    )


def mae(predictions: Sequence[float], truths: Sequence[float]) -> float:
    """Mean absolute error between paired day estimates."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    if p.size == 0 or t.size == 0:
        raise EmptyInputError("mae needs at least one pair")
    if p.shape != t.shape:
        raise LengthMismatchError(
            f"length mismatch: {p.shape} vs {t.shape}"
        )
    return float(np.abs(p - t).mean())


@dataclass(frozen=True)
class _FoldPlan:
    """One fold as planned before any fit: its truth, its training and the
    days its test year is forecast on."""

    fold: Fold
    truth: int
    training: TrainingPlan
    z_range: tuple[int, int]


def _plan_fold(cfg: BacktestConfig, planner: TrainingPlanner, fold: Fold) -> _FoldPlan:
    """Check and plan one fold, raising each input error in the order a
    fold meets it: the test year's truth, the training, the forecast days."""
    truth = planner.label(fold.test_year).boundary(cfg.boundary)
    if truth is None:
        raise MissingLabelError(f"test year {fold.test_year} has no season")
    training = planner.plan(fold.train_years, cfg.stage2_protocol)
    if cfg.z_range_policy == "truth":
        anchor = truth
    else:
        # the plan has refused a training year with no season
        anchor = round(float(np.mean([
            planner.label(year).boundary(cfg.boundary)
            for year in fold.train_years])))
    z_range = (anchor - cfg.horizon, anchor)
    planner.check_forecast(fold.test_year, z_range)
    return _FoldPlan(fold, truth, training, z_range)


def _convergence_trace(
    series: ForecastSeries, n_min: int | None
) -> tuple[TracePoint, ...]:
    points = []
    for k in range(2, len(series) + 1):
        try:
            ff = final_forecast(fit_wls(series.prefix(k)))
            y_star, sigma = ff.y_star, ff.sigma_y_star
        except DegenerateSlopeError:
            y_star = sigma = None
        points.append(TracePoint(k=k, y_star=y_star, sigma_y_star=sigma,
                                 theory_reduces=n_min is not None and k >= n_min))
    return tuple(points)


def _fold_result(data: Dataset, plan: _FoldPlan, fc: Forecaster) -> FoldResult:
    """Forecast and fuse one fold with its trained forecaster."""
    z_range = plan.z_range
    series = fc.predict_series(data, plan.fold.test_year, z_range)
    fit = fit_wls(series)
    final = final_forecast(fit)
    analysis = min_days(fit.beta0, fit.beta1, z_start=float(z_range[0]))
    z, y_hat, _u_hat = series.arrays()
    return FoldResult(
        test_year=plan.fold.test_year,
        truth=plan.truth,
        y_star=final.y_star,
        sigma_y_star=final.sigma_y_star,
        abs_error=abs(final.y_star - plan.truth),
        stage1_last_day=float(z[-1] + y_hat[-1]),
        z_range=z_range,
        beta0=fit.beta0,
        beta1=fit.beta1,
        n_min=analysis.n_min,
        trace=_convergence_trace(series, analysis.n_min),
    )


def rolling_backtest(data: Dataset, cfg: BacktestConfig) -> BacktestReport:
    """Evaluate every fold and aggregate the error metrics.

    Per fold: train both stages on the training years, forecast the test
    year over the policy's day range, fuse with Stage 3, and trace the
    fused estimate at every prefix length.  Folds never see their test
    year (or any other year outside their training set) during fitting.
    Every fold is planned before the first fit, and a fold is forecast as
    soon as its training is in, while later folds still train.
    """
    if not cfg.folds:
        raise EmptyInputError("backtest needs at least one fold")
    planner = TrainingPlanner(data, cfg.definition, cfg.boundary, cfg.horizon)
    plans = [_plan_fold(cfg, planner, fold) for fold in cfg.folds]
    with train_plans([p.training for p in plans], cfg.stage1_cfg,
                     cfg.stage2_cfg) as forecasters:
        folds = tuple(_fold_result(data, plan, fc)
                      for plan, fc in zip(plans, forecasters))
    truths = [float(r.truth) for r in folds]
    return BacktestReport(
        folds=folds,
        mae=mae([r.y_star for r in folds], truths),
        stage1_mae=mae([r.stage1_last_day for r in folds], truths),
        boundary=cfg.boundary,
        horizon=cfg.horizon,
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


#: The columns of folds.csv, each a :class:`FoldResult` field.
FOLD_COLUMNS = ("test_year", "truth", "y_star", "sigma_y_star", "abs_error",
                "stage1_last_day", "n_min")

#: The columns of a convergence CSV, each a :class:`TracePoint` field.
TRACE_COLUMNS = ("k", "y_star", "sigma_y_star")


def emit_report(report: BacktestReport, directory: str) -> tuple[str, ...]:
    """Write report.json, folds.csv, and one convergence CSV per fold.

    Emission is deterministic: the same report always produces byte-identical
    files.  Returns the written paths.
    """
    if not report.folds:
        raise EmptyInputError("refusing to emit a report with no folds")
    os.makedirs(directory, exist_ok=True)
    write_json(os.path.join(directory, "report.json"), asdict(report))
    # one row per fold or trace point: the fields its columns name
    tables = [("folds.csv", FOLD_COLUMNS, report.folds)]
    tables += [(f"convergence_{r.test_year}.csv", TRACE_COLUMNS, r.trace)
               for r in report.folds]
    for name, columns, items in tables:
        write_csv(os.path.join(directory, name), columns,
                  ([getattr(item, c) for c in columns] for item in items))
    return tuple(os.path.join(directory, name)
                 for name in ("report.json", *(name for name, _, _ in tables)))
