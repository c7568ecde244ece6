"""The three workloads: their inputs, their operations and their checks.

Every workload reads the seed-42, 17-year synthetic dataset under the
season rule delta_c = 120, delta_n = 4.  The benchmark's own ``--seed``
shuffles the CSV column order of every input file and, on ``forecast``,
pairs the requests with history lengths and orders them.  It never changes
which forecasts are scored, so the accuracy metrics compare exactly across
seeds while the work the program does varies.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import json
import os
from dataclasses import dataclass

import numpy as np
from pollencast import cli, pipeline
from pollencast.data import (
    CSV_COLUMNS,
    SERIES_NAMES,
    Dataset,
    SeasonDefinition,
    ingest_csv,
    label_years,
)
from pollencast.features import FEATURE_NAMES, build_feature_matrix
from pollencast.synth import generate_synthetic
from pollencast.wls import final_forecast, fit_wls

import checks

DATA_SEED = 42
DATA_YEARS = 17
DELTA_C = 120.0
DELTA_N = 4
HORIZON = 59
SEASON_FLAGS = ["--delta-c", repr(DELTA_C), "--delta-n", str(DELTA_N)]

#: Stage-1/Stage-2 settings of the backtest: the reference backtest with the
#: default 200-tree models takes about 860 s on 2 cores, far above a run.
BACKTEST_GBM = {"n_trees": 30, "max_depth": 2, "learning_rate": 0.25}


@dataclass(frozen=True)
class Op:
    """One operation: a ``pollencast`` command line and the files it writes."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


SEASON = SeasonDefinition(delta_c=DELTA_C, delta_n=DELTA_N)


def _subset(data: Dataset, first: dt.date, last: dt.date) -> Dataset:
    return Dataset(records=tuple(r for r in data.records if first <= r.date <= last))


def _years(data: Dataset, y0: int, y1: int) -> Dataset:
    return _subset(data, dt.date(y0, 1, 1), dt.date(y1, 12, 31))


def _write_csv(data: Dataset, path: str, columns: tuple[str, ...]) -> None:
    """The dataset as CSV with the given column order, floats in repr form."""
    pos = {name: i for i, name in enumerate(SERIES_NAMES)}
    lines = [",".join(columns)]
    for rec in data.records:
        values = rec.values()
        lines.append(",".join(
            rec.date.isoformat() if c == "date" else repr(float(values[pos[c]]))
            for c in columns
        ))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _oracle(records) -> dict[int, tuple[int | None, int | None]]:
    days = [r.date for r in records]
    pollen = [r.pollen for r in records]
    return checks.season_oracle(days, pollen, DELTA_C, DELTA_N)


def _run_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"pollencast {' '.join(argv)} exited {code}")


class Workload:
    """Inputs made in set-up, one round of operations, and their checks."""

    name = ""

    def __init__(self, seed: int, work: str) -> None:
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.columns = tuple(self.rng.permutation(CSV_COLUMNS))
        self.full: Dataset | None = None
        self.setup_dir = ""

    def setup(self, directory: str) -> None:
        """Make every input file in ``directory`` (the timed set-up)."""
        os.makedirs(directory, exist_ok=True)
        self.full = generate_synthetic(seed=DATA_SEED, years=DATA_YEARS)
        self.setup_dir = directory
        self._make_inputs(directory)

    def _make_inputs(self, directory: str) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def out(self, name: str) -> str:
        return os.path.join(self.work, "out", name)

    def inp(self, name: str) -> str:
        return os.path.join(self.setup_dir, name)

    def check(self) -> tuple[list[str], float, float]:
        """Check the last round's output files.

        Returns the failures, and the Stage-3 MAE and last-day Stage-1 MAE
        of the run's forecasts against the oracle's truths.
        """
        raise NotImplementedError

    def _check_inputs(self, csv_name: str, references) -> list[str]:
        """Labels and window statistics of an input file as the program
        reads it, against the generated values it was written from."""
        data = ingest_csv(self.inp(csv_name))
        first = (data.records[0].date - self.full.records[0].date).days
        own = self.full.records[first:first + len(data)]
        errors = checks.check_labels(label_years(data, SEASON), _oracle(own))
        raw = np.array([r.values() for r in own])
        fm = build_feature_matrix(data, references)
        return errors + checks.check_window_stats(fm, raw, references, self.rng, FEATURE_NAMES)


class TrainWorkload(Workload):
    """``pollencast train`` on three years with the default models and LOYO."""

    name = "train"
    years = (2003, 2005)
    held_out = tuple(range(2006, 2003 + DATA_YEARS))

    def _make_inputs(self, directory: str) -> None:
        _write_csv(_years(self.full, *self.years), self.inp("train.csv"), self.columns)

    def ops(self) -> list[Op]:
        bundle = self.out("model.json")
        return [Op("train", (
            "train", "--input", self.inp("train.csv"),
            "--years", f"{self.years[0]}-{self.years[1]}", *SEASON_FLAGS,
            "--out", bundle), (bundle,))]

    def check(self):
        bundle_path = self.out("model.json")
        fc = pipeline.load_forecaster(bundle_path)
        errors = []
        with open(bundle_path, encoding="utf-8") as fh:
            bundle = fh.read()
        if pipeline.forecaster_to_json(fc) + "\n" != bundle:
            errors.append("bundle does not survive a load/save round trip")
        errors += self._check_inputs("train.csv", fc.stage1.references)

        truths = _oracle(self.full.records)
        anchor = round(float(np.mean([truths[y][0] for y in range(self.years[0], self.years[1] + 1)])))
        z_range = (anchor - HORIZON, anchor)
        stage3, stage1 = [], []
        for year in self.held_out:
            series = fc.predict_series(_years(self.full, year, year), year, z_range)
            fit = fit_wls(series)
            y_star = final_forecast(fit).y_star
            z, y, u = series.arrays()
            b0, b1 = checks.wls_refit(z, y, u)
            if not checks.close(y_star, -b0 / b1, rtol=1e-7, atol=1e-7):
                errors.append(f"held-out {year}: y_star {y_star!r} != lstsq {-b0 / b1!r}")
            stage3.append((y_star, truths[year][0]))
            stage1.append((z[-1] + y[-1], truths[year][0]))
        return errors, checks.mae(stage3), checks.mae(stage1)


class BacktestWorkload(Workload):
    """``pollencast backtest``: 3 expanding folds over 2003-2010, LOYO."""

    name = "backtest"
    years = (2003, 2010)
    test_years = 3

    def _make_inputs(self, directory: str) -> None:
        _write_csv(_years(self.full, *self.years), self.inp("backtest.csv"), self.columns)
        with open(self.inp("config.json"), "w") as fh:
            json.dump({"stage1": BACKTEST_GBM, "stage2": BACKTEST_GBM}, fh, sort_keys=True)

    def _report_files(self) -> tuple[str, ...]:
        first_test = self.years[1] - self.test_years + 1
        names = ["report.json", "folds.csv"] + [
            f"convergence_{y}.csv" for y in range(first_test, self.years[1] + 1)]
        return tuple(os.path.join(self.out("report"), n) for n in names)

    def ops(self) -> list[Op]:
        return [Op("backtest", (
            "backtest", "--input", self.inp("backtest.csv"),
            "--config", self.inp("config.json"),
            "--test-years", str(self.test_years), *SEASON_FLAGS,
            "--policy", "train_mean", "--protocol", "loyo",
            "--out-dir", self.out("report")), self._report_files())]

    def check(self):
        data = _years(self.full, *self.years)
        errors, stage3, stage1 = checks.check_backtest_report(
            self.out("report"), _oracle(data.records))
        refs = pipeline.series_references(data, SEASON, data.years())
        return errors + self._check_inputs("backtest.csv", refs), stage3, stage1


@dataclass(frozen=True)
class Request:
    year: int
    anchor: int
    window: int
    history: int


class ForecastWorkload(Workload):
    """A round of 20 ``pollencast predict`` requests against one bundle.

    The bundle is trained in set-up on 2003-2005 with the default models
    and the holdout Stage-2 protocol.  Each request file holds the data
    from 1 January of the first history year up to the anchor day, as a
    forecast made on that day would.
    """

    name = "forecast"
    train_years = (2003, 2005)

    def __init__(self, seed: int, work: str) -> None:
        super().__init__(seed, work)
        # The scored forecasts are fixed; the seed decides only which
        # history length each request gets and the order of the round.
        grid = np.random.default_rng(2020)
        n = 20
        years = [2010 + k // 2 for k in range(n)]
        windows = grid.permutation([10 + round(50 * k / (n - 1)) for k in range(n)])
        offsets = grid.integers(-20, 1, size=n)
        histories = self.rng.permutation([1 + k % 7 for k in range(n)])
        self.requests = [
            # 110 is the rounded mean start day of the training years
            Request(years[k], 110 + int(offsets[k]), int(windows[k]), int(histories[k]))
            for k in self.rng.permutation(n)
        ]

    def _make_inputs(self, directory: str) -> None:
        _write_csv(_years(self.full, *self.train_years), self.inp("train.csv"), self.columns)
        for k, req in enumerate(self.requests):
            first = dt.date(req.year - req.history + 1, 1, 1)
            last = dt.date(req.year, 1, 1) + dt.timedelta(days=req.anchor - 1)
            _write_csv(_subset(self.full, first, last), self.inp(f"request{k}.csv"), self.columns)
        _run_cli(["train", "--input", self.inp("train.csv"),
                  "--years", f"{self.train_years[0]}-{self.train_years[1]}",
                  "--protocol", "holdout", *SEASON_FLAGS,
                  "--out", self.inp("model.json")])

    def _z_range(self, req: Request) -> tuple[int, int]:
        return req.anchor - req.window + 1, req.anchor

    def ops(self) -> list[Op]:
        ops = []
        for k, req in enumerate(self.requests):
            z0, z1 = self._z_range(req)
            series, forecast = self.out(f"series{k}.csv"), self.out(f"forecast{k}.json")
            ops.append(Op(f"request{k}", (
                "predict", "--input", self.inp(f"request{k}.csv"),
                "--model", self.inp("model.json"), "--year", str(req.year),
                "--z-start", str(z0), "--z-end", str(z1),
                "--out-series", series, "--out-forecast", forecast), (series, forecast)))
        return ops

    def check(self):
        truths = _oracle(self.full.records)
        errors, stage3, stage1 = [], [], []
        for k, req in enumerate(self.requests):
            bad, y_star, last = checks.check_forecast_files(
                self.out(f"series{k}.csv"), self.out(f"forecast{k}.json"), self._z_range(req))
            errors += bad
            stage3.append((y_star, truths[req.year][0]))
            stage1.append((last, truths[req.year][0]))
        refs = pipeline.load_forecaster(self.inp("model.json")).stage1.references
        longest = max(range(len(self.requests)), key=lambda k: self.requests[k].history)
        errors += self._check_inputs(f"request{longest}.csv", refs)
        return errors, checks.mae(stage3), checks.mae(stage1)


WORKLOADS = {w.name: w for w in (TrainWorkload, BacktestWorkload, ForecastWorkload)}
