"""Tests for the rolling-origin backtest harness and report emission."""

import dataclasses
import datetime as dt
import hashlib
import json
import multiprocessing
import os

import numpy as np
import pytest

from helpers import cores
from pollencast import backtest as bt
from pollencast import gbm
from pollencast import pipeline as pl
from pollencast.data import Dataset, SeasonDefinition, label_season
from pollencast.errors import (
    EmptyInputError,
    FoldConfigInvalidError,
    InvalidRecordError,
    LengthMismatchError,
    MissingLabelError,
    TooFewRowsError,
)
from pollencast.gbm import GBMConfig

LIGHT = GBMConfig(n_trees=40, max_depth=2, learning_rate=0.2)


def light_config(folds, season_def, **overrides):
    kwargs = dict(
        folds=folds,
        definition=season_def,
        stage1_cfg=LIGHT,
        stage2_cfg=LIGHT,
    )
    kwargs.update(overrides)
    return bt.BacktestConfig(**kwargs)


@pytest.fixture(scope="module")
def small_report(seed42_dataset, season_def):
    folds = (
        bt.Fold(train_years=(2003, 2004), test_year=2005),
        bt.Fold(train_years=(2003, 2004, 2005), test_year=2006),
    )
    cfg = light_config(folds, season_def)
    with cores(2):
        return cfg, bt.rolling_backtest(seed42_dataset, cfg)


def tiny_fold_result(test_year=2005, truth=100, y_star=100.0):
    trace = (bt.TracePoint(k=2, y_star=y_star, sigma_y_star=1.0,
                           theory_reduces=False),)
    return bt.FoldResult(
        test_year=test_year,
        truth=truth,
        y_star=y_star,
        sigma_y_star=1.0,
        abs_error=abs(y_star - truth),
        stage1_last_day=float(truth),
        z_range=(99, 100),
        beta0=float(truth),
        beta1=-1.0,
        n_min=None,
        trace=trace,
    )


class TestFoldValidation:
    def test_test_year_in_training_rejected(self):
        with pytest.raises(FoldConfigInvalidError):
            bt.Fold(train_years=(2003, 2005), test_year=2005)

    def test_empty_training_rejected(self):
        with pytest.raises(FoldConfigInvalidError):
            bt.Fold(train_years=(), test_year=2005)

    def test_expanding_folds_scheme(self):
        folds = bt.expanding_folds(range(2003, 2020), 5)
        assert len(folds) == 5
        assert folds[0] == bt.Fold(train_years=tuple(range(2003, 2015)),
                                   test_year=2015)
        assert folds[-1] == bt.Fold(train_years=tuple(range(2003, 2019)),
                                    test_year=2019)

    def test_expanding_folds_bounds(self):
        with pytest.raises(FoldConfigInvalidError):
            bt.expanding_folds(range(2003, 2010), 0)
        with pytest.raises(FoldConfigInvalidError):
            bt.expanding_folds(range(2003, 2010), 7)

    def test_unknown_policy_rejected(self, season_def):
        fold = bt.Fold(train_years=(2003,), test_year=2005)
        with pytest.raises(InvalidRecordError):
            bt.BacktestConfig(folds=(fold,), definition=season_def,
                              z_range_policy="oracle")

    def test_unknown_boundary_rejected(self, seed42_dataset, season_def):
        # refused with the planner's message as the config is made, before a
        # fold reads its test year's truth at that boundary
        fold = bt.Fold(train_years=(2003, 2004), test_year=2005)
        with pytest.raises(InvalidRecordError,
                           match="boundary must be 'start' or 'end', got 'middle'"):
            bt.rolling_backtest(seed42_dataset, bt.BacktestConfig(
                folds=(fold,), definition=season_def, boundary="middle"))


class TestMae:
    def test_identical_vectors(self):
        assert bt.mae([51.0, 51.0], [51.0, 51.0]) == 0.0

    def test_pinned_pair(self):
        assert bt.mae([52.0, 49.0], [51.0, 51.0]) == 1.5

    def test_single_pair(self):
        assert bt.mae([54.0], [51.0]) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            bt.mae([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            bt.mae([1.0, 2.0], [1.0])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        p = rng.normal(100, 5, size=12)
        t = rng.normal(100, 5, size=12)
        perm = rng.permutation(12)
        assert bt.mae(p, t) == pytest.approx(bt.mae(p[perm], t[perm]),
                                             rel=1e-15)


class TestFoldResultValidation:
    def test_perfect_fold_has_zero_error(self):
        r = tiny_fold_result(truth=100, y_star=100.0)
        assert r.abs_error == 0.0

    def test_wrong_abs_error_rejected(self):
        trace = (bt.TracePoint(k=2, y_star=104.0, sigma_y_star=1.0,
                               theory_reduces=False),)
        with pytest.raises(InvalidRecordError):
            bt.FoldResult(
                test_year=2005, truth=100, y_star=104.0, sigma_y_star=1.0,
                abs_error=1.0, stage1_last_day=100.0, z_range=(99, 100),
                beta0=100.0, beta1=-1.0, n_min=None, trace=trace,
            )

    def test_incomplete_trace_rejected(self):
        with pytest.raises(InvalidRecordError):
            bt.FoldResult(
                test_year=2005, truth=100, y_star=100.0, sigma_y_star=1.0,
                abs_error=0.0, stage1_last_day=100.0, z_range=(95, 100),
                beta0=100.0, beta1=-1.0, n_min=None,
                trace=(bt.TracePoint(k=2, y_star=100.0, sigma_y_star=1.0,
                                     theory_reduces=False),),
            )


class TestRollingBacktest:
    def test_report_aggregates_fold_errors(self, small_report):
        _cfg, report = small_report
        assert report.mae == pytest.approx(
            np.mean([r.abs_error for r in report.folds]), rel=1e-12
        )
        assert len(report.folds) == 2
        assert [r.test_year for r in report.folds] == [2005, 2006]

    def test_stage1_diagnostic_scores_last_day(self, small_report):
        _cfg, report = small_report
        expected = np.mean(
            [abs(r.stage1_last_day - r.truth) for r in report.folds]
        )
        assert report.stage1_mae == pytest.approx(expected, rel=1e-12)

    def test_train_mean_anchor(self, small_report, seed42_dataset, season_def,
                               seed42_labels):
        cfg, report = small_report
        fold = cfg.folds[0]
        m = round(np.mean([seed42_labels[y].start_day
                           for y in fold.train_years]))
        assert report.folds[0].z_range == (m - cfg.horizon, m)

    def test_truth_anchor_policy(self, seed42_dataset, season_def,
                                 seed42_labels):
        fold = bt.Fold(train_years=(2003, 2004), test_year=2005)
        cfg = light_config((fold,), season_def, z_range_policy="truth")
        report = bt.rolling_backtest(seed42_dataset, cfg)
        b = seed42_labels[2005].start_day
        assert report.folds[0].z_range == (b - cfg.horizon, b)

    def test_trace_covers_every_prefix(self, small_report):
        _cfg, report = small_report
        for r in report.folds:
            n = r.z_range[1] - r.z_range[0] + 1
            assert [p.k for p in r.trace] == list(range(2, n + 1))

    def test_theory_annotation_matches_n_min(self, small_report):
        _cfg, report = small_report
        for r in report.folds:
            for p in r.trace:
                expected = r.n_min is not None and p.k >= r.n_min
                assert p.theory_reduces == expected

    def test_deterministic(self, small_report, seed42_dataset):
        cfg, report = small_report
        again = bt.rolling_backtest(seed42_dataset, cfg)
        assert dataclasses.asdict(again) == dataclasses.asdict(report)

    @pytest.mark.parametrize("n_cores", [1, 2, 3])
    def test_report_bytes_pinned(self, small_report, seed42_dataset, tmp_path,
                                 n_cores):
        # sha256 over file names and bytes of the emitted report, taken when
        # every fold still built its feature matrix twice and fitted inline;
        # small_report trains on a pool of two workers, and every pool size
        # gives the same bytes
        cfg, report = small_report
        if n_cores != 2:
            with cores(n_cores):
                report = bt.rolling_backtest(seed42_dataset, cfg)
        h = hashlib.sha256()
        for path in bt.emit_report(report, str(tmp_path)):
            h.update(os.path.basename(path).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
        assert h.hexdigest() == (
            "9540871d9941da32b197dafa449423c7ec1705ee66ee30dba5b324e9903d7b75"
        )

    def test_future_years_do_not_leak(self, seed42_dataset, season_def):
        fold = bt.Fold(train_years=(2003, 2004), test_year=2005)
        cfg = light_config((fold,), season_def)
        full = bt.rolling_backtest(seed42_dataset, cfg)
        cut = seed42_dataset.index_of(dt.date(2005, 12, 31))
        truncated = Dataset(records=seed42_dataset.records[:cut + 1])
        trimmed = bt.rolling_backtest(truncated, cfg)
        assert dataclasses.asdict(trimmed) == dataclasses.asdict(full)

    def test_no_folds_rejected(self, seed42_dataset, season_def):
        with pytest.raises(EmptyInputError):
            bt.rolling_backtest(
                seed42_dataset,
                light_config((), season_def),
            )

    def test_unlabeled_year_rejected(self, seed42_dataset):
        sd = SeasonDefinition(delta_c=1e9, delta_n=4)
        fold = bt.Fold(train_years=(2003, 2004), test_year=2005)
        with pytest.raises(MissingLabelError):
            bt.rolling_backtest(seed42_dataset, light_config((fold,), sd))


class TestFoldFailures:
    """A backtest whose second fold fails raises that fold's error and
    leaves no worker behind."""

    FOLDS = (
        bt.Fold(train_years=(2003, 2004), test_year=2006),
        bt.Fold(train_years=(2003, 2004, 2005), test_year=2007),
        bt.Fold(train_years=(2003, 2004, 2005, 2006), test_year=2008),
    )

    def test_training_year_without_season(self, seed42_dataset, season_def,
                                          monkeypatch):
        # 2005, a training year of the second fold only, has no pollen; the
        # plan refuses it before any fit starts
        matrix = seed42_dataset.series_matrix().copy()
        lo = seed42_dataset.index_of(dt.date(2005, 1, 1))
        hi = seed42_dataset.index_of(dt.date(2005, 12, 31))
        matrix[lo:hi + 1, 0] = 0.0
        data = Dataset.from_matrix(seed42_dataset.start, matrix)

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit started")

        monkeypatch.setattr(gbm, "fit", no_fit)
        with cores(2), pytest.raises(MissingLabelError) as caught:
            bt.rolling_backtest(data, light_config(self.FOLDS, season_def))
        assert str(caught.value) == (
            "year 2005 has no season under delta_c=120.0, delta_n=4")
        assert multiprocessing.active_children() == []

    def test_fit_error_in_a_worker(self, seed42_dataset, season_def,
                                   monkeypatch):
        # the second fold's first out-of-fold fit fails in a worker after
        # the first fold's fits are in
        fold_predictions = pl._fold_predictions

        def failing_fold(fit_fn, rows, train_ys, scored_ys, cfg):
            if train_ys == (2004, 2005):
                raise TooFewRowsError("fold refused")
            return fold_predictions(fit_fn, rows, train_ys, scored_ys, cfg)

        monkeypatch.setattr(pl, "_fold_predictions", failing_fold)
        with cores(2), pytest.raises(TooFewRowsError) as caught:
            bt.rolling_backtest(seed42_dataset,
                                light_config(self.FOLDS, season_def))
        assert str(caught.value) == "fold refused"
        assert multiprocessing.active_children() == []


class TestEmitReport:
    def test_file_inventory(self, small_report, tmp_path):
        _cfg, report = small_report
        out = tmp_path / "out"
        written = bt.emit_report(report, str(out))
        assert len(written) == 4  # report, folds, 2 convergence traces
        names = sorted(os.path.basename(p) for p in written)
        assert names == ["convergence_2005.csv", "convergence_2006.csv",
                         "folds.csv", "report.json"]

    def test_three_folds_five_files(self, tmp_path):
        report = bt.BacktestReport(
            folds=tuple(tiny_fold_result(test_year=y) for y in (2005, 2006, 2007)),
            mae=0.0,
            stage1_mae=0.0,
            boundary="start",
            horizon=1,
        )
        written = bt.emit_report(report, str(tmp_path / "three"))
        assert len(written) == 5

    def test_empty_report_rejected_before_write(self, tmp_path):
        report = bt.BacktestReport(folds=(), mae=0.0, stage1_mae=0.0,
                                   boundary="start", horizon=59)
        target = tmp_path / "never"
        with pytest.raises(EmptyInputError):
            bt.emit_report(report, str(target))
        assert not target.exists()

    def test_reemission_is_byte_identical(self, small_report, tmp_path):
        _cfg, report = small_report
        a = bt.emit_report(report, str(tmp_path / "a"))
        b = bt.emit_report(report, str(tmp_path / "b"))
        for pa, pb in zip(a, b):
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read()

    def test_report_json_round_trips(self, small_report, tmp_path):
        _cfg, report = small_report
        bt.emit_report(report, str(tmp_path))
        with open(tmp_path / "report.json", encoding="utf-8") as fh:
            obj = json.load(fh)
        assert obj["mae"] == report.mae
        assert [f["test_year"] for f in obj["folds"]] == [2005, 2006]
        assert obj["folds"][0]["trace"][0]["k"] == 2

    def test_convergence_csv_matches_trace(self, small_report, tmp_path):
        _cfg, report = small_report
        bt.emit_report(report, str(tmp_path))
        fold = report.folds[0]
        with open(tmp_path / f"convergence_{fold.test_year}.csv",
                  encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "k,y_star,sigma_y_star"
        assert len(lines) == 1 + len(fold.trace)
        k, y, s = lines[1].split(",")
        assert int(k) == 2
        assert float(y) == fold.trace[0].y_star
        assert float(s) == fold.trace[0].sigma_y_star

    def test_folds_csv_header_and_rows(self, small_report, tmp_path):
        _cfg, report = small_report
        bt.emit_report(report, str(tmp_path))
        with open(tmp_path / "folds.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("test_year,truth,y_star")
        assert len(lines) == 1 + len(report.folds)
