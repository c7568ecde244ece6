"""Three-stage forecasting pipeline.

Stage 1 fits a gradient-boosted model that predicts the countdown (days
remaining until the season boundary) from rolling-window weather features.
Stage 2 fits a second model on held-out Stage-1 residuals to predict the
uncertainty of each countdown estimate.  Stage 3 (see :mod:`.wls`) fuses a
run of consecutive-day predictions into one final date with an error bar.

This module builds the two training sets, fits and serializes the models,
and turns a fitted pair plus fresh data into a ForecastSeries.  Both stages
and inference read one feature matrix, flattened to the fixed Stage-1
layout of 361 columns: 12 series x 30 window statistics, then day-of-year.
Stage 2 prepends the Stage-1 prediction.  :func:`training_matrix` builds
that matrix once, to be passed as ``matrix=`` to :func:`train_forecaster`
and :func:`predict_series`.

The Stage-1 fits of one training are independent: the full fit and one per
out-of-fold split of the Stage-2 protocol.  They run on forked worker
processes, one per available core.  Each fit is deterministic and its result
is collected in task order, so the models are byte-identical for any number
of cores.
"""

from __future__ import annotations

import calendar
import datetime as dt
import json
import math
import os
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import gbm
from .data import Dataset, SeasonDefinition, label_season
from .errors import (
    HorizonOutOfRangeError,
    InvalidRecordError,
    MissingLabelError,
    TooFewYearsError,
    WindowUnavailableError,
    WorkerLostError,
)
from .features import (
    CATALOG_VERSION,
    SERIES_NAMES,
    FeatureMatrix,
    build_feature_matrix,
    flatten_all,
)
from .wls import ForecastSeries, PredictionPoint

__all__ = [
    "DEFAULT_HORIZON",
    "U_FLOOR",
    "BUNDLE_FORMAT",
    "Stage1TrainingSet",
    "Stage2TrainingSet",
    "Stage1Model",
    "Stage2Model",
    "Forecaster",
    "PredictionPoint",
    "ForecastSeries",
    "series_references",
    "training_matrix",
    "build_s1",
    "fit_stage1",
    "build_s2",
    "fit_stage2",
    "train_forecaster",
    "predict_series",
    "forecaster_to_json",
    "forecaster_from_json",
    "save_forecaster",
    "load_forecaster",
]

#: Default prediction horizon: training rows start H days before the boundary.
DEFAULT_HORIZON = 59

#: Lower clamp for Stage-2 uncertainty estimates, in days.  Keeps Stage-3
#: weights 1/u^2 finite when the residual model predicts ~0.
U_FLOOR = 0.25

BUNDLE_FORMAT = "forecaster-json-v1"

#: Model-fitting hook used for the internal Stage-1 fits; replaceable for
#: alternative learners or exact-model tests.
FitFn = Callable[[np.ndarray, np.ndarray, gbm.GBMConfig], gbm.FitResult]

#: One independent fit, called without arguments: it returns the fitted
#: Stage-1 model, or for an out-of-fold fit the Stage-1 predictions it scores.
_FitTask = Callable[[], "Stage1Model | np.ndarray"]


@dataclass(frozen=True)
class Stage1TrainingSet:
    """Countdown-regression rows: one per (year, day z) within the horizon.

    ``features[i]`` is the flattened window-feature vector for day z of a
    training year and ``targets[i] = boundary_day - z``; ``provenance[i]``
    records which (year, z) the row came from.
    """

    features: np.ndarray
    targets: np.ndarray
    provenance: tuple[tuple[int, int], ...]
    boundary: str
    horizon: int
    references: tuple[float, ...]
    years: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (
            self.features.shape[0] == self.targets.shape[0] == len(self.provenance)
        ):
            raise InvalidRecordError("features, targets, provenance must align")
        if self.targets.size and (
            self.targets.min() < 0 or self.targets.max() > self.horizon
        ):
            raise HorizonOutOfRangeError(
                f"targets must lie in [0, {self.horizon}]"
            )

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class Stage2TrainingSet:
    """Uncertainty-regression rows built from held-out Stage-1 residuals.

    ``features[i]`` is ``[y_hat, *window_features]`` (the Stage-1 prediction
    at column 0) and ``targets[i] = |y_hat - true countdown|``.  The model
    that produced ``y_hat`` for a row was never fitted on that row's year;
    ``scorer_train_years`` records the exact training years per scored year
    and the constructor enforces the exclusion.
    """

    features: np.ndarray
    targets: np.ndarray
    provenance: tuple[tuple[int, int], ...]
    scorer_train_years: tuple[tuple[int, tuple[int, ...]], ...]
    boundary: str
    horizon: int
    references: tuple[float, ...]
    protocol: str
    years: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (
            self.features.shape[0] == self.targets.shape[0] == len(self.provenance)
        ):
            raise InvalidRecordError("features, targets, provenance must align")
        if self.targets.size and self.targets.min() < 0:
            raise InvalidRecordError("residual-size targets must be >= 0")
        trained_on = dict(self.scorer_train_years)
        for year, _z in self.provenance:
            if year not in trained_on:
                raise InvalidRecordError(f"no scorer recorded for year {year}")
            if year in trained_on[year]:
                raise InvalidRecordError(
                    f"leakage: scorer for year {year} was trained on it"
                )

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class Stage1Model:
    """Fitted countdown model plus everything needed to featurize new data."""

    model: gbm.GBMModel
    boundary: str
    horizon: int
    references: tuple[float, ...]
    train_years: tuple[int, ...]
    curve: tuple[float, ...] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Stage2Model:
    """Fitted uncertainty model; predictions are clamped below at u_floor."""

    model: gbm.GBMModel
    u_floor: float
    protocol: str
    train_years: tuple[int, ...]
    curve: tuple[float, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.u_floor) and self.u_floor > 0):
            raise InvalidRecordError("u_floor must be finite and > 0")


@dataclass(frozen=True)
class Forecaster:
    """A trained Stage-1/Stage-2 pair ready to forecast new years."""

    stage1: Stage1Model
    stage2: Stage2Model

    def predict_series(
        self,
        data: Dataset,
        year: int,
        z_range: tuple[int, int],
        matrix: FeatureMatrix | None = None,
    ) -> ForecastSeries:
        return predict_series(
            self.stage1, self.stage2, data, year, z_range, matrix=matrix
        )


# ---------------------------------------------------------------------------
# Training-set construction
# ---------------------------------------------------------------------------


def series_references(
    data: Dataset, definition: SeasonDefinition, years: Iterable[int]
) -> tuple[float, ...]:
    """Per-series count-feature references, leak-free.

    Pollen uses the season concentration threshold; each covariate uses its
    mean over the given (training) years only, so rows built for later years
    never see future statistics.
    """
    ys = set(years)
    if not ys:
        raise TooFewYearsError("need at least one reference year")
    rec_years = np.array([r.date.year for r in data.records])
    mask = np.isin(rec_years, sorted(ys))
    if not mask.any():
        raise MissingLabelError(f"dataset has no days in years {sorted(ys)}")
    matrix = data.series_matrix()
    refs = [definition.delta_c]
    refs.extend(float(matrix[mask, s].mean()) for s in range(1, len(SERIES_NAMES)))
    return tuple(refs)


def training_matrix(
    data: Dataset, definition: SeasonDefinition, years: Iterable[int]
) -> FeatureMatrix:
    """The feature matrix of a training on ``years``, with their references.

    Pass it as ``matrix=`` to :func:`train_forecaster` and to
    :func:`predict_series` to build it once for both.
    """
    return build_feature_matrix(data, series_references(data, definition, years))


def _day_rows(fm: FeatureMatrix, year: int, z_lo: int, z_hi: int,
              error: type[Exception]) -> np.ndarray:
    """Flat feature rows of days z_lo..z_hi of ``year``; ``error`` when a day
    leaves the year or has no feature window (feature dates are consecutive)."""
    n_days = 366 if calendar.isleap(year) else 365
    if z_lo < 1 or z_hi > n_days:
        raise error(f"year {year}: days {z_lo}..{z_hi} leave 1..{n_days}")
    first = (dt.date(year, 1, 1) - fm.dates[0]).days + z_lo - 1
    last = first + z_hi - z_lo
    if first < 0 or last >= len(fm):
        raise error(
            f"year {year}, days {z_lo}..{z_hi}: no feature window "
            f"(features cover {fm.dates[0]}..{fm.dates[-1]})"
        )
    rows = slice(first, last + 1)
    return flatten_all(replace(fm, values=fm.values[rows], dates=fm.dates[rows]))


_YearRows = tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]


def _labeled_years(
    data: Dataset,
    definition: SeasonDefinition,
    years: Iterable[int],
    boundary: str,
    horizon: int,
    matrix: FeatureMatrix | None,
    min_years: int,
) -> tuple[tuple[int, ...], FeatureMatrix, dict[int, _YearRows]]:
    """Sorted years, their feature matrix and each year's countdown rows.

    Each year is labeled once; its rows are days z in [boundary-H, boundary]
    with targets ``boundary - z``.  Without ``matrix`` one is built with the
    years' own references.
    """
    if boundary not in ("start", "end"):
        raise InvalidRecordError(f"boundary must be 'start' or 'end', got {boundary!r}")
    if horizon < 1:
        raise HorizonOutOfRangeError(f"horizon must be >= 1, got {horizon}")
    ys = tuple(sorted(set(years)))
    if len(ys) < min_years:
        raise TooFewYearsError(f"need >= {min_years} training years, got {len(ys)}")
    fm = matrix if matrix is not None else training_matrix(data, definition, ys)
    targets = np.arange(horizon, -1, -1, dtype=np.float64)
    per_year = {}
    for year in ys:
        label = label_season(data, definition, year)
        if not label.present:
            raise MissingLabelError(
                f"year {year} has no season under delta_c={definition.delta_c}, "
                f"delta_n={definition.delta_n}"
            )
        b = label.boundary(boundary)
        rows = _day_rows(fm, year, b - horizon, b, HorizonOutOfRangeError)
        prov = tuple((year, z) for z in range(b - horizon, b + 1))
        per_year[year] = (rows, targets, prov)
    return ys, fm, per_year


def _stack(per_year: dict[int, _YearRows], years: tuple[int, ...]) -> _YearRows:
    """The rows of ``years``, concatenated in that order."""
    xs, ts, provs = zip(*(per_year[y] for y in years))
    prov = tuple(zp for p in provs for zp in p)
    return np.concatenate(xs, axis=0), np.concatenate(ts), prov


def _stage1_set(
    ys: tuple[int, ...], fm: FeatureMatrix, per_year: dict[int, _YearRows],
    boundary: str, horizon: int,
) -> Stage1TrainingSet:
    x, t, prov = _stack(per_year, ys)
    return Stage1TrainingSet(
        features=x,
        targets=t,
        provenance=prov,
        boundary=boundary,
        horizon=horizon,
        references=fm.references,
        years=ys,
    )


def build_s1(
    data: Dataset,
    definition: SeasonDefinition,
    years: Iterable[int],
    boundary: str = "start",
    horizon: int = DEFAULT_HORIZON,
    matrix: FeatureMatrix | None = None,
) -> Stage1TrainingSet:
    """Stage-1 training set: one row per (year, z), z in [boundary-H, boundary].

    ``matrix`` reuses a prebuilt feature matrix and its references; by
    default it is built from ``years`` so nothing outside the training years
    influences the count-feature references.
    """
    ys, fm, per_year = _labeled_years(
        data, definition, years, boundary, horizon, matrix, min_years=1
    )
    return _stage1_set(ys, fm, per_year, boundary, horizon)


def fit_stage1(
    training: Stage1TrainingSet, cfg: gbm.GBMConfig | None = None
) -> Stage1Model:
    """Fit the countdown model on a Stage-1 training set."""
    result = gbm.fit(training.features, training.targets, cfg)
    return Stage1Model(
        model=replace(result.model, catalog_version=CATALOG_VERSION),
        boundary=training.boundary,
        horizon=training.horizon,
        references=training.references,
        train_years=training.years,
        curve=tuple(float(v) for v in result.curve),
    )


# ---------------------------------------------------------------------------
# Independent fits
# ---------------------------------------------------------------------------

#: The tasks of the running :func:`_fit_all` call.  Only a pool's
#: initializer sets it, inside the forked worker processes.
_worker_tasks: list[_FitTask] = []


def _set_worker_tasks(tasks: list[_FitTask]) -> None:
    global _worker_tasks
    _worker_tasks = tasks


def _run_worker_task(i: int) -> Stage1Model | np.ndarray:
    return _worker_tasks[i]()


def _cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_all(
    tasks: list[_FitTask], jobs: int
) -> list[Stage1Model | np.ndarray]:
    """``task()`` for every task, in task order, on up to ``jobs`` processes.

    With two or more workers the tasks run on a ``fork`` pool that lives for
    this call only.  The workers inherit ``tasks`` through the fork (the
    fork context does not pickle ``initargs``), so neither the training rows
    nor the fit functions are pickled and closures work; only the results
    come back.  A task's error is re-raised here, and a worker that dies
    raises :class:`WorkerLostError`.

    The tasks run inline where forking is unavailable or unsafe: without the
    ``fork`` start method, inside a daemonic process (a ``multiprocessing``
    pool worker may not have children) and while other threads run, since a
    forked child inherits their locks.  The executor starts every ``fork``
    worker before its own manager thread only since CPython's gh-90622 fix
    (3.10.9, 3.11.1), hence the ``requires-python`` of this package.
    """
    workers = min(jobs, len(tasks))
    if workers < 2 or threading.active_count() > 1:
        return [task() for task in tasks]
    # imported here, so that commands which never fit do not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return [task() for task in tasks]
    try:
        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_set_worker_tasks, initargs=(tasks,),
        ) as pool:
            return list(pool.map(_run_worker_task, range(len(tasks))))
    except BrokenProcessPool as exc:
        raise WorkerLostError(
            f"a fit worker process ended without a result: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Stage 2
# ---------------------------------------------------------------------------


#: (train_years, scored_years) per out-of-fold split.
_Folds = list[tuple[tuple[int, ...], tuple[int, ...]]]


def _protocol_folds(years: tuple[int, ...], protocol: str) -> _Folds:
    """(train_years, scored_years) folds for the Stage-2 protocol."""
    if protocol == "loyo":
        return [
            (tuple(y for y in years if y != held), (held,)) for held in years
        ]
    if protocol == "holdout":
        cut = max(1, len(years) // 2)
        return [(years[:cut], years[cut:])]
    raise InvalidRecordError(f"unknown stage-2 protocol {protocol!r}")


def _fold_predictions(
    fit_fn: FitFn, per_year: dict[int, _YearRows], train_ys: tuple[int, ...],
    scored_ys: tuple[int, ...], cfg: gbm.GBMConfig,
) -> np.ndarray:
    """Fit Stage 1 on ``train_ys`` (concatenated in sorted order) and predict
    the rows of ``scored_ys``."""
    x, t, _ = _stack(per_year, train_ys)
    model = fit_fn(x, t, cfg).model
    return gbm.predict_batch(model, _stack(per_year, scored_ys)[0])


def _out_of_fold(
    ys: tuple[int, ...], fm: FeatureMatrix, per_year: dict[int, _YearRows],
    boundary: str, horizon: int, protocol: str, fit_fn: FitFn,
    cfg: gbm.GBMConfig, first: tuple[_FitTask, ...] = (),
) -> tuple[list[Stage1Model | np.ndarray], Stage2TrainingSet]:
    """The results of the ``first`` tasks and the Stage-2 training set.

    ``first`` and one task per out-of-fold split of the protocol run in one
    :func:`_fit_all` call.  A fold's task stacks its rows when it runs and
    returns only its predictions of the held-out rows, so a process holds
    one fold's rows and model at a time.
    """
    folds = _protocol_folds(ys, protocol)
    tasks = [partial(_fold_predictions, fit_fn, per_year, train_ys, scored_ys, cfg)
             for train_ys, scored_ys in folds]
    results = _fit_all([*first, *tasks], _cores())
    xs, ts, prov, scorers = [], [], [], []
    for (train_ys, scored_ys), y_hat in zip(folds, results[len(first):]):
        x, t, p = _stack(per_year, scored_ys)
        xs.append(np.concatenate([y_hat[:, None], x], axis=1))
        ts.append(np.abs(y_hat - t))
        prov.extend(p)
        scorers.extend((year, train_ys) for year in scored_ys)
    return results[:len(first)], Stage2TrainingSet(
        features=np.concatenate(xs, axis=0),
        targets=np.concatenate(ts),
        provenance=tuple(prov),
        scorer_train_years=tuple(scorers),
        boundary=boundary,
        horizon=horizon,
        references=fm.references,
        protocol=protocol,
        years=ys,
    )


def build_s2(
    data: Dataset,
    definition: SeasonDefinition,
    years: Iterable[int],
    boundary: str = "start",
    horizon: int = DEFAULT_HORIZON,
    protocol: str = "loyo",
    stage1_cfg: gbm.GBMConfig | None = None,
    matrix: FeatureMatrix | None = None,
    stage1_fit: FitFn = gbm.fit,
) -> Stage2TrainingSet:
    """Stage-2 training set of held-out residual sizes.

    Default protocol ``loyo``: for each year Y a Stage-1 model is fitted on
    the remaining years and scores Y's rows, so every y_hat is an honest
    out-of-year prediction.  Protocol ``holdout`` instead fits one model on
    the first half of the years and scores the second half.  Rows are
    ``[y_hat, *features]`` with target ``|y_hat - true countdown|``.  The
    fold fits run on a process per available core.
    """
    ys, fm, per_year = _labeled_years(
        data, definition, years, boundary, horizon, matrix, min_years=2
    )
    cfg = stage1_cfg if stage1_cfg is not None else gbm.GBMConfig()
    _, s2 = _out_of_fold(ys, fm, per_year, boundary, horizon, protocol,
                         stage1_fit, cfg)
    return s2


def fit_stage2(
    training: Stage2TrainingSet,
    cfg: gbm.GBMConfig | None = None,
    u_floor: float = U_FLOOR,
) -> Stage2Model:
    """Fit the uncertainty model on a Stage-2 training set."""
    result = gbm.fit(training.features, training.targets, cfg)
    return Stage2Model(
        model=result.model,
        u_floor=u_floor,
        protocol=training.protocol,
        train_years=training.years,
        curve=tuple(float(v) for v in result.curve),
    )


def _matrix(
    data: Dataset, refs: tuple[float, ...], matrix: FeatureMatrix | None
) -> FeatureMatrix:
    """``matrix`` if it was built with ``refs``; a new one when it is None."""
    if matrix is None:
        return build_feature_matrix(data, refs)
    if matrix.references != refs:
        raise InvalidRecordError(
            "feature matrix was built with other count-feature references "
            "than these training years or this model use"
        )
    return matrix


def train_forecaster(
    data: Dataset,
    definition: SeasonDefinition,
    years: Iterable[int],
    boundary: str = "start",
    horizon: int = DEFAULT_HORIZON,
    stage1_cfg: gbm.GBMConfig | None = None,
    stage2_cfg: gbm.GBMConfig | None = None,
    protocol: str = "loyo",
    matrix: FeatureMatrix | None = None,
) -> Forecaster:
    """Train both stages on the given years and return the bundled pair.

    ``matrix`` reuses a feature matrix built with these years' references
    (see :func:`training_matrix`); by default it is built here.  The full
    Stage-1 fit and the out-of-fold Stage-1 fits of the Stage-2 protocol
    run together on a process per available core, the largest first;
    Stage 2 is fitted here once their residuals are in.
    """
    ys = tuple(sorted(set(years)))
    fm = _matrix(data, series_references(data, definition, ys), matrix)
    ys, fm, per_year = _labeled_years(
        data, definition, ys, boundary, horizon, fm, min_years=2
    )
    s1 = _stage1_set(ys, fm, per_year, boundary, horizon)
    cfg = stage1_cfg if stage1_cfg is not None else gbm.GBMConfig()
    (stage1,), s2 = _out_of_fold(
        ys, fm, per_year, boundary, horizon, protocol, gbm.fit, cfg,
        first=(partial(fit_stage1, s1, cfg),),
    )
    return Forecaster(stage1=stage1, stage2=fit_stage2(s2, stage2_cfg))


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def predict_series(
    s1m: Stage1Model,
    s2m: Stage2Model,
    data: Dataset,
    year: int,
    z_range: tuple[int, int],
    matrix: FeatureMatrix | None = None,
) -> ForecastSeries:
    """Per-day forecasts for one year over an inclusive day range.

    For each day z: ``y_hat = stage1(features(z))`` and
    ``u_hat = max(stage2([y_hat, *features(z)]), u_floor)``.  Features use
    only data dated at or before z (trailing windows), so each point is a
    forecast that could have been made on that day.  ``matrix`` reuses a
    feature matrix of ``data`` built with the Stage-1 references.
    """
    z_lo, z_hi = int(z_range[0]), int(z_range[1])
    if z_lo > z_hi:
        raise InvalidRecordError(f"empty z_range {z_range}")
    fm = _matrix(data, s1m.references, matrix)
    x = _day_rows(fm, year, z_lo, z_hi, WindowUnavailableError)
    y_hat = gbm.predict_batch(s1m.model, x)
    u_raw = gbm.predict_batch(
        s2m.model, np.concatenate([y_hat[:, None], x], axis=1)
    )
    u_hat = np.maximum(u_raw, s2m.u_floor)
    points = tuple(
        PredictionPoint(z=float(z), y_hat=float(y), u_hat=float(u))
        for z, y, u in zip(range(z_lo, z_hi + 1), y_hat, u_hat)
    )
    return ForecastSeries(points=points, boundary=s1m.boundary, year=year)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def forecaster_to_json(fc: Forecaster) -> str:
    """Serialize a trained forecaster pair to a deterministic JSON document."""
    obj = {
        "format": BUNDLE_FORMAT,
        "boundary": fc.stage1.boundary,
        "horizon": fc.stage1.horizon,
        "references": list(fc.stage1.references),
        "include_doy": True,
        "train_years": list(fc.stage1.train_years),
        "u_floor": fc.stage2.u_floor,
        "stage2_protocol": fc.stage2.protocol,
        "stage1_model": gbm.to_obj(fc.stage1.model),
        "stage2_model": gbm.to_obj(fc.stage2.model),
    }
    return json.dumps(obj, sort_keys=True, indent=2)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise InvalidRecordError(f"model bundle: non-finite number {text}")
    return value


def forecaster_from_json(text: str) -> Forecaster:
    """Inverse of :func:`forecaster_to_json` (training curves are not kept).

    Anything but a well-formed bundle of this package's feature layout
    raises :class:`InvalidRecordError`.
    """
    try:
        obj = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except (ValueError, RecursionError) as exc:
        raise InvalidRecordError(f"model bundle is not readable JSON: {exc}") from exc
    return _forecaster_from_obj(obj)


def _forecaster_from_obj(obj: object) -> Forecaster:
    def get(key: str, kinds: tuple[type, ...]):
        return gbm.json_field(obj, key, kinds, "model bundle")

    if get("format", (str,)) != BUNDLE_FORMAT:
        raise InvalidRecordError(
            f"expected format {BUNDLE_FORMAT!r}, got {obj['format']!r}"
        )
    if get("include_doy", (bool,)) is not True:
        raise InvalidRecordError(
            "model bundle: include_doy must be true; day-of-year is the last "
            "Stage-1 column"
        )
    refs = get("references", (list,))
    if len(refs) != len(SERIES_NAMES) or any(type(r) not in gbm.NUMBER for r in refs):
        raise InvalidRecordError(
            f"model bundle: references must be {len(SERIES_NAMES)} numbers"
        )
    train_years = get("train_years", (list,))
    if any(type(y) is not int for y in train_years):
        raise InvalidRecordError("model bundle: train_years must be integers")
    s1_model = gbm.from_obj(get("stage1_model", (dict,)), "stage1_model")
    if s1_model.catalog_version != CATALOG_VERSION:
        raise InvalidRecordError(
            f"stage1_model: catalog_version {s1_model.catalog_version!r}, "
            f"expected {CATALOG_VERSION!r}"
        )
    stage1 = Stage1Model(
        model=s1_model,
        boundary=get("boundary", (str,)),
        horizon=get("horizon", (int,)),
        references=tuple(float(r) for r in refs),
        train_years=tuple(train_years),
    )
    stage2 = Stage2Model(
        model=gbm.from_obj(get("stage2_model", (dict,)), "stage2_model"),
        u_floor=float(get("u_floor", gbm.NUMBER)),
        protocol=get("stage2_protocol", (str,)),
        train_years=tuple(train_years),
    )
    return Forecaster(stage1=stage1, stage2=stage2)


def save_forecaster(fc: Forecaster, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(forecaster_to_json(fc))
        fh.write("\n")


def load_forecaster(path: str) -> Forecaster:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidRecordError(f"model bundle {path} is not UTF-8: {exc}") from exc
    return forecaster_from_json(text)
