"""Rolling-origin evaluation of the full three-stage pipeline.

Each fold trains both stages on its training years only, forecasts the
held-out test year over a fixed day range, fuses the per-day predictions,
and records how the fused estimate and its error bar evolve as more
prediction days become available (the convergence trace).
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset, SeasonDefinition, label_season
from .errors import (
    DegenerateSlopeError,
    EmptyInputError,
    FoldConfigInvalidError,
    InvalidRecordError,
    LengthMismatchError,
    MissingLabelError,
)
from .gbm import GBMConfig
from .pipeline import DEFAULT_HORIZON, train_forecaster, training_matrix
from .wls import ForecastSeries, final_forecast, fit_wls, min_days

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
        if self.z_range_policy not in ("train_mean", "truth"):
            raise InvalidRecordError(
                f"unknown z_range policy {self.z_range_policy!r}"
            )


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


def _fold_z_range(
    data: Dataset, cfg: BacktestConfig, fold: Fold
) -> tuple[int, int]:
    if cfg.z_range_policy == "truth":
        anchor = label_season(data, cfg.definition, fold.test_year).boundary(
            cfg.boundary
        )
        if anchor is None:
            raise MissingLabelError(f"year {fold.test_year} has no season")
    else:
        boundaries = []
        for year in fold.train_years:
            b = label_season(data, cfg.definition, year).boundary(cfg.boundary)
            if b is None:
                raise MissingLabelError(f"train year {year} has no season")
            boundaries.append(b)
        anchor = round(float(np.mean(boundaries)))
    return anchor - cfg.horizon, anchor


def _convergence_trace(
    series: ForecastSeries, n_min: int | None
) -> tuple[TracePoint, ...]:
    points = []
    for k in range(2, len(series) + 1):
        reduces = n_min is not None and k >= n_min
        try:
            ff = final_forecast(fit_wls(series.prefix(k)))
            points.append(
                TracePoint(k=k, y_star=ff.y_star,
                           sigma_y_star=ff.sigma_y_star,
                           theory_reduces=reduces)
            )
        except DegenerateSlopeError:
            points.append(
                TracePoint(k=k, y_star=None, sigma_y_star=None,
                           theory_reduces=reduces)
            )
    return tuple(points)


def _fold_result(data: Dataset, cfg: BacktestConfig, fold: Fold) -> FoldResult:
    """Train, forecast and fuse one fold.  Its feature matrix and models are
    released on return, before the next fold builds its own."""
    truth = label_season(data, cfg.definition, fold.test_year).boundary(
        cfg.boundary
    )
    if truth is None:
        raise MissingLabelError(f"test year {fold.test_year} has no season")
    fm = training_matrix(data, cfg.definition, fold.train_years)
    fc = train_forecaster(
        data, cfg.definition, fold.train_years,
        boundary=cfg.boundary, horizon=cfg.horizon,
        stage1_cfg=cfg.stage1_cfg, stage2_cfg=cfg.stage2_cfg,
        protocol=cfg.stage2_protocol, matrix=fm,
    )
    z_range = _fold_z_range(data, cfg, fold)
    series = fc.predict_series(data, fold.test_year, z_range, matrix=fm)
    fit = fit_wls(series)
    final = final_forecast(fit)
    analysis = min_days(fit.beta0, fit.beta1, z_start=float(z_range[0]))
    last = series.points[-1]
    return FoldResult(
        test_year=fold.test_year,
        truth=truth,
        y_star=final.y_star,
        sigma_y_star=final.sigma_y_star,
        abs_error=abs(final.y_star - truth),
        stage1_last_day=last.z + last.y_hat,
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
    Each fold builds its feature matrix once, for training and forecasting.
    """
    if not cfg.folds:
        raise EmptyInputError("backtest needs at least one fold")
    results = [_fold_result(data, cfg, fold) for fold in cfg.folds]
    folds = tuple(results)
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


def _csv_cell(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _report_obj(report: BacktestReport) -> dict:
    return {
        "boundary": report.boundary,
        "horizon": report.horizon,
        "mae": report.mae,
        "stage1_mae": report.stage1_mae,
        "folds": [
            {
                "test_year": r.test_year,
                "truth": r.truth,
                "y_star": r.y_star,
                "sigma_y_star": r.sigma_y_star,
                "abs_error": r.abs_error,
                "stage1_last_day": r.stage1_last_day,
                "z_range": list(r.z_range),
                "beta0": r.beta0,
                "beta1": r.beta1,
                "n_min": r.n_min,
                "trace": [
                    {
                        "k": p.k,
                        "y_star": p.y_star,
                        "sigma_y_star": p.sigma_y_star,
                        "theory_reduces": p.theory_reduces,
                    }
                    for p in r.trace
                ],
            }
            for r in report.folds
        ],
    }


def emit_report(report: BacktestReport, directory: str) -> tuple[str, ...]:
    """Write report.json, folds.csv, and one convergence CSV per fold.

    Emission is deterministic: the same report always produces byte-identical
    files.  Returns the written paths.
    """
    if not report.folds:
        raise EmptyInputError("refusing to emit a report with no folds")
    os.makedirs(directory, exist_ok=True)
    written = []

    path = os.path.join(directory, "report.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(_report_obj(report), sort_keys=True, indent=2))
        fh.write("\n")
    written.append(path)

    path = os.path.join(directory, "folds.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("test_year,truth,y_star,sigma_y_star,abs_error,"
                 "stage1_last_day,n_min\n")
        for r in report.folds:
            fh.write(",".join([
                str(r.test_year),
                str(r.truth),
                _csv_cell(r.y_star),
                _csv_cell(r.sigma_y_star),
                _csv_cell(r.abs_error),
                _csv_cell(r.stage1_last_day),
                _csv_cell(r.n_min),
            ]) + "\n")
    written.append(path)

    for r in report.folds:
        path = os.path.join(directory, f"convergence_{r.test_year}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("k,y_star,sigma_y_star\n")
            for p in r.trace:
                fh.write(",".join([
                    str(p.k),
                    _csv_cell(p.y_star),
                    _csv_cell(p.sigma_y_star),
                ]) + "\n")
        written.append(path)
    return tuple(written)
