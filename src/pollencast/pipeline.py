"""Three-stage forecasting pipeline.

Stage 1 fits a gradient-boosted model that predicts the countdown (days
remaining until the season boundary) from rolling-window weather features.
Stage 2 fits a second model on held-out Stage-1 residuals to predict the
uncertainty of each countdown estimate.  Stage 3 (see :mod:`.wls`) fuses a
run of consecutive-day predictions into one final date with an error bar.

This module builds the two training sets, fits and serializes the models,
and turns a fitted pair plus fresh data into a ForecastSeries.  Both stages
and inference read flat feature rows in the fixed Stage-1 layout of 349
columns: 12 series x 29 window statistics, then day-of-year.  Stage 2
prepends the Stage-1 prediction.  A row depends only on its own 14-day
window, so each training year and each forecast builds the rows of just the
days it reads: it slices those days from the dataset's value matrix and
uses the flat rows of :func:`~pollencast.features.build_feature_matrix`
as they are, with no :class:`~pollencast.data.DailyRecord` or per-row date.

A training is planned before its first fit (:class:`TrainingPlanner`): its
years are labeled, their rows built and every input checked.  One planner
serves all the trainings of a backtest, so each year is labeled and its rows
are built once.  Only the 12 ``n_above_ref`` columns of a row depend on a
training's references, so each training keeps its own block of those counts
and a fit stacks its rows where it runs.

The Stage-1 fits of a training are independent: one per out-of-fold split
of the Stage-2 protocol, then the full fit.  :func:`train_plans` runs the
fits of one or more trainings on one pool of forked worker processes, one
per available core, and each result comes back in task order as soon as it
is in.  Stage 2 reads only the out-of-fold predictions, so it is fitted in
this process while the workers run the full fit and the next trainings'
fits.  Each fit is deterministic, so the models are byte-identical for any
number of cores.
"""

from __future__ import annotations

import calendar
import contextlib
import datetime as dt
import math
import os
import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from . import gbm
from .data import (Dataset, SeasonDefinition, SeasonLabel, json_text, label_season,
                   parse_json, read_json, write_json)
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
    COUNT_COLUMNS,
    N_FEATURES,
    SERIES_NAMES,
    WINDOW_LEN,
    build_feature_matrix,
    count_above,
)
from .wls import BOUNDARIES, ForecastSeries

if TYPE_CHECKING:
    from concurrent.futures import Executor, Future

__all__ = [
    "DEFAULT_HORIZON",
    "U_FLOOR",
    "BUNDLE_FORMAT",
    "Stage1TrainingSet",
    "Stage2TrainingSet",
    "Stage1Model",
    "Stage2Model",
    "Forecaster",
    "ForecastSeries",
    "series_references",
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

BUNDLE_FORMAT = "forecaster-json-v3"

#: Flat Stage-1 columns: the window statistics of every series, then
#: day-of-year.  Stage 2 prepends the Stage-1 prediction.
STAGE1_COLUMNS = len(SERIES_NAMES) * N_FEATURES + 1

#: The Stage-2 protocols: leave one year out, or fit on the first half of
#: the years and score the rest.
PROTOCOLS = ("loyo", "holdout")

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
    ) -> ForecastSeries:
        return predict_series(self.stage1, self.stage2, data, year, z_range)


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
    first, last = data.span
    days = np.datetime64(first, "D") + np.arange(len(data))
    row_years = days.astype("datetime64[Y]").astype(np.int64) + 1970
    mask = np.isin(row_years, sorted(y for y in ys if first.year <= y <= last.year))
    if not mask.any():
        raise MissingLabelError(f"dataset has no days in years {sorted(ys)}")
    matrix = data.series_matrix()
    refs = [definition.delta_c]
    refs.extend(float(matrix[mask, s].mean()) for s in range(1, len(SERIES_NAMES)))
    return tuple(refs)


def _day_span(data: Dataset, year: int, z_lo: int, z_hi: int,
              error: type[Exception]) -> Dataset:
    """The days of ``data`` that the feature rows of days z_lo..z_hi of
    ``year`` read: those days' windows only.  ``error`` when a day leaves the
    year or has no full window in ``data`` (dataset dates are consecutive)."""
    n_days = 366 if calendar.isleap(year) else 365
    if z_lo < 1 or z_hi > n_days:
        raise error(f"year {year}: days {z_lo}..{z_hi} leave 1..{n_days}")
    start, end = data.span
    first = last = -1  # a year outside the data's, which dt.date may not hold
    if start.year <= year <= end.year:
        first = (dt.date(year, 1, 1) - start).days + z_lo - WINDOW_LEN
        last = first + WINDOW_LEN - 1 + z_hi - z_lo
    if first < 0 or last >= len(data):
        raise error(
            f"year {year}, days {z_lo}..{z_hi}: no feature window "
            f"(features cover {start + dt.timedelta(WINDOW_LEN - 1)}..{end})"
        )
    return data[first:last + 1]


def _day_rows(data: Dataset, refs: tuple[float, ...], year: int, z_lo: int,
              z_hi: int, error: type[Exception]) -> np.ndarray:
    """Flat feature rows of days z_lo..z_hi of ``year`` (see :func:`_day_span`)."""
    return build_feature_matrix(_day_span(data, year, z_lo, z_hi, error), refs).rows


#: A year's countdown rows: features, targets and (year, z) provenance.
_YearRows = tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]

#: (train_years, scored_years) per out-of-fold split.
_Folds = list[tuple[tuple[int, ...], tuple[int, ...]]]


@dataclass(frozen=True)
class _Rows:
    """The countdown rows of one training's years.

    ``shared[y]`` is year y's rows, built once for every training that reads
    the year.  Only their :data:`~pollencast.features.COUNT_COLUMNS` depend
    on a training's references, so ``counts[y]`` holds this training's own
    (rows, 12) block of them.
    """

    shared: dict[int, _YearRows]
    counts: dict[int, np.ndarray]

    def stack(self, years: tuple[int, ...]) -> _YearRows:
        """The rows of ``years`` with this training's counts, concatenated
        in that order."""
        xs, ts, provs = zip(*(self.shared[y] for y in years))
        x = np.concatenate(xs, axis=0)
        x[:, COUNT_COLUMNS] = np.concatenate([self.counts[y] for y in years])
        return x, np.concatenate(ts), tuple(zp for p in provs for zp in p)


@dataclass(frozen=True)
class TrainingPlan:
    """One training as planned before its first fit: its sorted years, their
    references and rows, and the out-of-fold splits of its Stage-2 protocol."""

    years: tuple[int, ...]
    references: tuple[float, ...]
    rows: _Rows
    boundary: str
    horizon: int
    protocol: str
    folds: _Folds


class TrainingPlanner:
    """Plans trainings on one dataset under one season rule, boundary and
    horizon.  Each year is labeled once and its rows are built once, however
    many trainings read it, so the trainings of a backtest share them."""

    def __init__(self, data: Dataset, definition: SeasonDefinition,
                 boundary: str = "start", horizon: int = DEFAULT_HORIZON) -> None:
        self.data = data
        self.definition = definition
        self.boundary = boundary
        self.horizon = horizon
        self._labels: dict[int, SeasonLabel] = {}
        self._rows: dict[int, _YearRows] = {}

    def label(self, year: int) -> SeasonLabel:
        """The season label of ``year``, computed once."""
        if year not in self._labels:
            self._labels[year] = label_season(self.data, self.definition, year)
        return self._labels[year]

    def labeled_years(
        self, years: Iterable[int], min_years: int
    ) -> tuple[tuple[int, ...], tuple[float, ...], _Rows]:
        """Sorted years, their references and their countdown rows.

        A year's rows are days z in [boundary-H, boundary] with targets
        ``boundary - z``, their counts taken with the years' own references.
        """
        if self.boundary not in BOUNDARIES:
            raise InvalidRecordError(
                f"boundary must be 'start' or 'end', got {self.boundary!r}")
        # the first row's day, boundary - horizon, must be day 1 or later
        if not 1 <= self.horizon <= 365:
            raise HorizonOutOfRangeError(
                f"horizon must be in 1..365, got {self.horizon}")
        ys = tuple(sorted(set(years)))
        if len(ys) < min_years:
            raise TooFewYearsError(f"need >= {min_years} training years, got {len(ys)}")
        refs = series_references(self.data, self.definition, ys)
        shared, counts = {}, {}
        for year in ys:
            label = self.label(year)
            if not label.present:
                raise MissingLabelError(
                    f"year {year} has no season under delta_c={self.definition.delta_c}, "
                    f"delta_n={self.definition.delta_n}"
                )
            b = label.boundary(self.boundary)
            days = _day_span(self.data, year, b - self.horizon, b,
                             HorizonOutOfRangeError)
            if year not in self._rows:
                self._rows[year] = (
                    build_feature_matrix(days, refs).rows,
                    np.arange(self.horizon, -1, -1, dtype=np.float64),
                    tuple((year, z) for z in range(b - self.horizon, b + 1)),
                )
            shared[year] = self._rows[year]
            counts[year] = count_above(days, refs)
        return ys, refs, _Rows(shared, counts)

    def plan(self, years: Iterable[int], protocol: str = "loyo") -> TrainingPlan:
        """A training on ``years`` with the Stage-2 ``protocol``; every input
        error it would meet is raised here, before any fit."""
        ys, refs, rows = self.labeled_years(years, min_years=2)
        return TrainingPlan(years=ys, references=refs, rows=rows,
                            boundary=self.boundary, horizon=self.horizon,
                            protocol=protocol, folds=_protocol_folds(ys, protocol))

    def check_forecast(self, year: int, z_range: tuple[int, int]) -> None:
        """Raise the error :func:`predict_series` would raise on days
        ``z_range`` of ``year`` for want of their windows."""
        _day_span(self.data, year, z_range[0], z_range[1], WindowUnavailableError)


def _stage1_set(ys: tuple[int, ...], refs: tuple[float, ...], rows: _Rows,
                boundary: str, horizon: int) -> Stage1TrainingSet:
    x, t, prov = rows.stack(ys)
    return Stage1TrainingSet(
        features=x,
        targets=t,
        provenance=prov,
        boundary=boundary,
        horizon=horizon,
        references=refs,
        years=ys,
    )


def build_s1(
    data: Dataset,
    definition: SeasonDefinition,
    years: Iterable[int],
    boundary: str = "start",
    horizon: int = DEFAULT_HORIZON,
) -> Stage1TrainingSet:
    """Stage-1 training set: one row per (year, z), z in [boundary-H, boundary].

    The count-feature references come from ``years`` only, so nothing
    outside the training years influences them.
    """
    ys, refs, rows = TrainingPlanner(data, definition, boundary, horizon
                                     ).labeled_years(years, min_years=1)
    return _stage1_set(ys, refs, rows, boundary, horizon)


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


@contextlib.contextmanager
def _fit_all(
    tasks: list[_FitTask], jobs: int
) -> Iterator[Iterator[Stage1Model | np.ndarray]]:
    """An iterator of ``task()`` for every task, in task order, computed on
    up to ``jobs`` processes while the ``with`` block runs.

    With two or more workers the tasks run on a ``fork`` pool that lives
    for the ``with`` block.  The workers inherit ``tasks`` through the fork
    (the fork context does not pickle ``initargs``), so neither the training
    rows nor the fit functions are pickled and closures work; only the
    results come back.  Each result is handed back as soon as it and the
    ones before it are in, so the caller can work on them while later tasks
    still run.  A task is handed to the pool when a worker becomes free for
    it, whether or not the caller is taking results (:class:`_Feed`), and
    never after a task has failed.  A task's error is raised when its result
    is taken, and a worker that dies raises :class:`WorkerLostError`.
    Leaving the block waits for the tasks already running; the others never
    start.

    The tasks run inline, one as each result is taken, where forking is
    unavailable or unsafe: without the ``fork`` start method, inside a
    daemonic process (a ``multiprocessing`` pool worker may not have
    children) and while other threads run, since a forked child inherits
    their locks.  The executor starts every ``fork`` worker before its own
    manager thread only since CPython's gh-90622 fix (3.10.9, 3.11.1), hence
    the ``requires-python`` of this package.
    """
    workers = min(jobs, len(tasks))
    if workers < 2 or threading.active_count() > 1:
        yield (task() for task in tasks)
        return
    # imported here, so that commands which never fit do not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        yield (task() for task in tasks)
        return
    try:
        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_set_worker_tasks, initargs=(tasks,),
        ) as pool:
            feed = _Feed(pool, len(tasks))
            try:
                for _ in range(workers):
                    feed.submit()
                yield feed.results()
            finally:
                feed.close()
    except BrokenProcessPool as exc:
        raise WorkerLostError(
            f"a fit worker process ended without a result: {exc}"
        ) from exc


class _Feed:
    """Hands worker tasks 0..n_tasks-1 to a pool in order: one more each
    time a running task completes, from its done-callback, so a worker never
    waits for the caller to take a result.  Nothing is submitted after a task
    has failed or once the feed is closed."""

    def __init__(self, pool: Executor, n_tasks: int) -> None:
        self._pool = pool
        self._n_tasks = n_tasks
        self._futures: list[Future] = []
        self._changed = threading.Condition()
        self._stopped = False
        self._error: BaseException | None = None

    def submit(self, done: Future | None = None) -> None:
        """Submit the next task; as a done-callback, only if ``done`` did
        not fail.  Never raises: a callback's error would only be logged."""
        with self._changed:
            if done is not None and done.exception() is not None:
                self._stopped = True
            if self._stopped or len(self._futures) == self._n_tasks:
                return
            try:
                future = self._pool.submit(_run_worker_task, len(self._futures))
            except RuntimeError as exc:  # a broken pool; results() raises it
                self._stopped, self._error = True, exc
                self._changed.notify_all()
                return
            self._futures.append(future)
            self._changed.notify_all()
        future.add_done_callback(self.submit)

    def close(self) -> None:
        with self._changed:
            self._stopped = True

    def results(self) -> Iterator[Stage1Model | np.ndarray]:
        """The results of the tasks in task order, each as soon as it and
        the ones before it are in; a failed task raises its error."""
        for i in range(self._n_tasks):
            with self._changed:
                # the completion of an earlier task submits task i
                self._changed.wait_for(
                    lambda: len(self._futures) > i or self._error is not None)
                if len(self._futures) <= i:
                    raise self._error
            yield self._futures[i].result()


# ---------------------------------------------------------------------------
# Stage 2
# ---------------------------------------------------------------------------


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
    fit_fn: FitFn, rows: _Rows, train_ys: tuple[int, ...],
    scored_ys: tuple[int, ...], cfg: gbm.GBMConfig,
) -> np.ndarray:
    """Fit Stage 1 on ``train_ys`` (concatenated in sorted order) and predict
    the rows of ``scored_ys``."""
    x, t, _ = rows.stack(train_ys)
    model = fit_fn(x, t, cfg).model
    return gbm.predict_batch(model, rows.stack(scored_ys)[0])


def _fold_tasks(
    fit_fn: FitFn, rows: _Rows, folds: _Folds, cfg: gbm.GBMConfig,
) -> list[_FitTask]:
    """One task per out-of-fold split.  A fold's task stacks its rows when it
    runs and returns only its predictions of the held-out rows, so a process
    holds one fold's rows and model at a time."""
    return [partial(_fold_predictions, fit_fn, rows, train_ys, scored_ys, cfg)
            for train_ys, scored_ys in folds]


def _stage2_set(
    plan: TrainingPlan, predictions: Iterator[np.ndarray]
) -> Stage2TrainingSet:
    """The Stage-2 training set of the plan's folds, taking one fold's
    predictions from ``predictions`` per fold and nothing more."""
    xs, ts, prov, scorers = [], [], [], []
    # zip draws from folds first, so it stops without taking a further result
    for (train_ys, scored_ys), y_hat in zip(plan.folds, predictions):
        x, t, p = plan.rows.stack(scored_ys)
        xs.append(np.concatenate([y_hat[:, None], x], axis=1))
        ts.append(np.abs(y_hat - t))
        prov.extend(p)
        scorers.extend((year, train_ys) for year in scored_ys)
    return Stage2TrainingSet(
        features=np.concatenate(xs, axis=0),
        targets=np.concatenate(ts),
        provenance=tuple(prov),
        scorer_train_years=tuple(scorers),
        boundary=plan.boundary,
        horizon=plan.horizon,
        references=plan.references,
        protocol=plan.protocol,
        years=plan.years,
    )


def build_s2(
    data: Dataset,
    definition: SeasonDefinition,
    years: Iterable[int],
    boundary: str = "start",
    horizon: int = DEFAULT_HORIZON,
    protocol: str = "loyo",
    stage1_cfg: gbm.GBMConfig | None = None,
    stage1_fit: FitFn = gbm.fit,
) -> Stage2TrainingSet:
    """Stage-2 training set of held-out residual sizes.

    Default protocol ``loyo``: for each year Y a Stage-1 model is fitted on
    the remaining years and scores Y's rows, so every y_hat is an honest
    out-of-year prediction.  Protocol ``holdout`` instead fits one model on
    the first half of the years and scores the second half.  Rows are
    ``[y_hat, *features]`` with target ``|y_hat - true countdown|``.  The
    fold fits run on a process per available core, in fold order.
    """
    plan = TrainingPlanner(data, definition, boundary, horizon).plan(years, protocol)
    cfg = stage1_cfg if stage1_cfg is not None else gbm.GBMConfig()
    with _fit_all(_fold_tasks(stage1_fit, plan.rows, plan.folds, cfg),
                  _cores()) as predictions:
        return _stage2_set(plan, predictions)


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


# ---------------------------------------------------------------------------
# Trainings
# ---------------------------------------------------------------------------


def _full_fit(plan: TrainingPlan, cfg: gbm.GBMConfig) -> Stage1Model:
    """The plan's Stage-1 fit on all its years, its rows stacked where it runs."""
    return fit_stage1(_stage1_set(plan.years, plan.references, plan.rows,
                                  plan.boundary, plan.horizon), cfg)


@contextlib.contextmanager
def train_plans(
    plans: list[TrainingPlan],
    stage1_cfg: gbm.GBMConfig | None = None,
    stage2_cfg: gbm.GBMConfig | None = None,
) -> Iterator[Iterator[Forecaster]]:
    """An iterator of the forecaster of each plan, in plan order, while the
    ``with`` block runs.

    The Stage-1 fits of every plan run on one :func:`_fit_all` pool in the
    order their results are taken: a plan's out-of-fold fits, then its full
    fit, then the next plan's.  A plan's Stage 2 is fitted in this process
    as soon as its out-of-fold predictions are in, while the workers go on
    with its full fit and the next plans' fits.
    """
    cfg = stage1_cfg if stage1_cfg is not None else gbm.GBMConfig()
    tasks = [task for plan in plans for task in (
        *_fold_tasks(gbm.fit, plan.rows, plan.folds, cfg), partial(_full_fit, plan, cfg))]
    with _fit_all(tasks, _cores()) as results:
        yield (_forecaster(plan, results, stage2_cfg) for plan in plans)


def _forecaster(
    plan: TrainingPlan, results: Iterator[Stage1Model | np.ndarray],
    stage2_cfg: gbm.GBMConfig | None,
) -> Forecaster:
    """The plan's Stage 2, fitted here on its out-of-fold predictions, and
    then its full Stage-1 fit, both taken from ``results``."""
    stage2 = fit_stage2(_stage2_set(plan, results), stage2_cfg)
    return Forecaster(stage1=next(results), stage2=stage2)


def train_forecaster(
    data: Dataset,
    definition: SeasonDefinition,
    years: Iterable[int],
    boundary: str = "start",
    horizon: int = DEFAULT_HORIZON,
    stage1_cfg: gbm.GBMConfig | None = None,
    stage2_cfg: gbm.GBMConfig | None = None,
    protocol: str = "loyo",
) -> Forecaster:
    """Train both stages on the given years and return the bundled pair.

    The out-of-fold Stage-1 fits of the Stage-2 protocol and then the full
    Stage-1 fit run on a process per available core.  Stage 2 needs only
    the out-of-fold predictions, so it is fitted here as soon as they are
    in, while a worker still runs the full fit (:func:`train_plans`).
    """
    plan = TrainingPlanner(data, definition, boundary, horizon).plan(years, protocol)
    with train_plans([plan], stage1_cfg, stage2_cfg) as forecasters:
        return next(forecasters)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def predict_series(
    s1m: Stage1Model,
    s2m: Stage2Model,
    data: Dataset,
    year: int,
    z_range: tuple[int, int],
) -> ForecastSeries:
    """Per-day forecasts for one year over an inclusive day range.

    For each day z: ``y_hat = stage1(features(z))`` and
    ``u_hat = max(stage2([y_hat, *features(z)]), u_floor)``.  Features use
    only data dated at or before z (trailing windows), so each point is a
    forecast that could have been made on that day.
    """
    z_lo, z_hi = int(z_range[0]), int(z_range[1])
    if z_lo > z_hi:
        raise InvalidRecordError(f"empty z_range {z_range}")
    x = _day_rows(data, s1m.references, year, z_lo, z_hi, WindowUnavailableError)
    y_hat = gbm.predict_batch(s1m.model, x)
    u_raw = gbm.predict_batch(
        s2m.model, np.concatenate([y_hat[:, None], x], axis=1)
    )
    u_hat = np.maximum(u_raw, s2m.u_floor)
    return ForecastSeries(first_z=z_lo, y_hat=y_hat, u_hat=u_hat,
                          boundary=s1m.boundary, year=year)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _bundle(fc: Forecaster) -> dict:
    return {
        "format": BUNDLE_FORMAT,
        "boundary": fc.stage1.boundary,
        "horizon": fc.stage1.horizon,
        "references": list(fc.stage1.references),
        "train_years": list(fc.stage1.train_years),
        "u_floor": fc.stage2.u_floor,
        "stage2_protocol": fc.stage2.protocol,
        "stage1_model": gbm.to_obj(fc.stage1.model),
        "stage2_model": gbm.to_obj(fc.stage2.model),
    }


def forecaster_to_json(fc: Forecaster) -> str:
    """Serialize a trained forecaster pair to a deterministic JSON document."""
    return json_text(_bundle(fc))


def forecaster_from_json(text: str) -> Forecaster:
    """Inverse of :func:`forecaster_to_json` (training curves are not kept).

    Anything but a well-formed bundle of this package's feature layout
    raises :class:`InvalidRecordError`.
    """
    return _forecaster_from_obj(parse_json(text, "model bundle"))


def _forecaster_from_obj(obj: object) -> Forecaster:
    def get(key: str, kinds: tuple[type, ...]):
        return gbm.json_field(obj, key, kinds, "model bundle")

    def require(ok: bool, message: str) -> None:
        if not ok:
            raise InvalidRecordError(f"model bundle: {message}")

    fmt = get("format", (str,))
    if fmt != BUNDLE_FORMAT:
        retired = fmt in ("forecaster-json-v1", "forecaster-json-v2")
        retrain = "; retrain the model" if retired else ""
        raise InvalidRecordError(
            f"expected format {BUNDLE_FORMAT!r}, got {fmt!r}{retrain}")
    refs = gbm.json_array(obj, "references", gbm.NUMBER, np.float64, "model bundle")
    require(refs.size == len(SERIES_NAMES),
            f"references must be {len(SERIES_NAMES)} numbers")
    train_years = get("train_years", (list,))
    require(all(type(y) is int for y in train_years), "train_years must be integers")
    boundary = get("boundary", (str,))
    require(boundary in BOUNDARIES, f"boundary must be one of {BOUNDARIES}")
    horizon = get("horizon", (int,))
    require(horizon >= 1, "horizon must be >= 1")
    protocol = get("stage2_protocol", (str,))
    require(protocol in PROTOCOLS, f"stage2_protocol must be one of {PROTOCOLS}")
    s1_model = gbm.from_obj(get("stage1_model", (dict,)), "stage1_model")
    if s1_model.catalog_version != CATALOG_VERSION:
        raise InvalidRecordError(
            f"stage1_model: catalog_version {s1_model.catalog_version!r}, "
            f"expected {CATALOG_VERSION!r}; retrain the model"
        )
    s2_model = gbm.from_obj(get("stage2_model", (dict,)), "stage2_model")
    for name, model, want in (("stage1_model", s1_model, STAGE1_COLUMNS),
                              ("stage2_model", s2_model, STAGE1_COLUMNS + 1)):
        if model.feature_count != want:
            raise InvalidRecordError(
                f"{name}: feature_count {model.feature_count}, expected {want}")
    stage1 = Stage1Model(
        model=s1_model,
        boundary=boundary,
        horizon=horizon,
        references=tuple(refs.tolist()),
        train_years=tuple(train_years),
    )
    stage2 = Stage2Model(
        model=s2_model,
        u_floor=gbm.json_number(obj, "u_floor", "model bundle"),
        protocol=protocol,
        train_years=tuple(train_years),
    )
    return Forecaster(stage1=stage1, stage2=stage2)


def save_forecaster(fc: Forecaster, path: str) -> None:
    write_json(path, _bundle(fc))


def load_forecaster(path: str) -> Forecaster:
    return _forecaster_from_obj(read_json(path, f"model bundle {path}"))
