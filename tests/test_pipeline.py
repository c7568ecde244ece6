"""Tests for the three-stage pipeline: training sets, fits, inference."""

import datetime as dt
import hashlib
import json
import multiprocessing
import os
import threading
import time
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    cores,
    model_from_trees,
    wait_for,
    year_dataset,
    year_length,
)
from pollencast import backtest as bt
from pollencast import gbm
from pollencast import pipeline as pl
from pollencast.data import Dataset, SeasonDefinition, label_season
from pollencast.errors import (
    HorizonOutOfRangeError,
    InvalidRecordError,
    MissingLabelError,
    TooFewRowsError,
    TooFewYearsError,
    WindowUnavailableError,
    WorkerLostError,
)
from pollencast.features import CATALOG_VERSION, build_feature_matrix
from pollencast.wls import final_forecast, fit_wls

LIGHT = gbm.GBMConfig(n_trees=40, max_depth=2, learning_rate=0.2)

N_FLAT = pl.STAGE1_COLUMNS
DOY_INDEX = N_FLAT - 1  # last column of the flattened feature vector
TRAIN_YEARS = tuple(range(2003, 2013))
HOLDOUT_YEARS = tuple(range(2013, 2020))


def chain_model(boundary: int, z_lo: int, z_hi: int,
                feature_count: int = N_FLAT) -> gbm.GBMModel:
    """Handcrafted tree predicting boundary - z exactly from day-of-year."""
    node = {"value": float(boundary - z_hi)}
    for z in range(z_hi - 1, z_lo - 1, -1):
        node = {"feature": DOY_INDEX, "threshold": z + 0.5,
                "left": {"value": float(boundary - z)}, "right": node}
    return model_from_trees((node,), feature_count)


def test_chain_model_decodes_like_reference():
    # 61 levels, each split's left child a leaf: the right spine is deep
    model = chain_model(150, 90, 150)
    back = gbm.from_json(gbm.to_json(model))
    assert back.arrays.levels == model.arrays.levels == 60
    for a, b in zip(back.arrays[:6], model.arrays[:6]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def constant_model(value: float, feature_count: int) -> gbm.GBMModel:
    return model_from_trees((), feature_count, base_prediction=float(value))


def exact_fit_hook(model: gbm.GBMModel) -> pl.FitFn:
    def fit(X, y, cfg):
        return gbm.FitResult(model=model, curve=np.zeros(1))

    return fit


@pytest.fixture(scope="module")
def twin_years():
    """Two years with identical pollen patterns, so identical boundaries."""
    pollen = [0.0] * 365
    for d in range(95, 131):
        pollen[d - 1] = 200.0
    records = (
        year_dataset(pollen, 2001).records + year_dataset(pollen, 2002).records
    )
    data = Dataset(records=records)
    sd = SeasonDefinition(delta_c=120.0, delta_n=4)
    lab1, lab2 = label_season(data, sd, 2001), label_season(data, sd, 2002)
    assert lab1.start_day == lab2.start_day == 92  # window fires 3 days early
    return SimpleNamespace(data=data, sd=sd, boundary=92)


@pytest.fixture(scope="module")
def ten(seed42_dataset, season_def):
    """Default-config forecaster trained on the first ten seed-42 years."""
    data, sd = seed42_dataset, season_def
    s1 = pl.build_s1(data, sd, TRAIN_YEARS)
    stage1 = pl.fit_stage1(s1)
    s2 = pl.build_s2(data, sd, TRAIN_YEARS)
    stage2 = pl.fit_stage2(s2)
    return SimpleNamespace(
        data=data, sd=sd, s1=s1, s2=s2,
        fc=pl.Forecaster(stage1=stage1, stage2=stage2),
    )


def holdout_series(ten, year):
    b = label_season(ten.data, ten.sd, year).start_day
    return b, ten.fc.predict_series(ten.data, year, (b - 59, b))


class TestSeriesReferences:
    def test_pollen_reference_is_concentration_threshold(self, seed42_dataset):
        sd = SeasonDefinition(delta_c=77.0, delta_n=3)
        refs = pl.series_references(seed42_dataset, sd, (2003,))
        assert refs[0] == 77.0

    def test_covariate_references_are_training_year_means(self, seed42_dataset,
                                                          season_def):
        refs = pl.series_references(seed42_dataset, season_def, (2004, 2005))
        lo = seed42_dataset.index_of(dt.date(2004, 1, 1))
        hi = seed42_dataset.index_of(dt.date(2005, 12, 31))
        block = seed42_dataset.series_matrix()[lo:hi + 1]
        for s in range(1, 12):
            assert refs[s] == pytest.approx(block[:, s].mean(), rel=1e-12)

    def test_changing_years_changes_references(self, seed42_dataset, season_def):
        a = pl.series_references(seed42_dataset, season_def, (2003, 2004))
        b = pl.series_references(seed42_dataset, season_def, (2003, 2005))
        assert a != b

    def test_no_years_rejected(self, seed42_dataset, season_def):
        with pytest.raises(TooFewYearsError):
            pl.series_references(seed42_dataset, season_def, ())

    def test_uncovered_years_rejected(self, seed42_dataset, season_def):
        with pytest.raises(MissingLabelError):
            pl.series_references(seed42_dataset, season_def, (1950,))

    def test_years_outside_date_range_rejected(self, seed42_dataset, season_def):
        with pytest.raises(MissingLabelError):
            pl.series_references(seed42_dataset, season_def, (0, 10_000, 10**20))


class TrainingSetChecks:
    """Argument checks that build_s1 and build_s2 share; the test classes
    below set ``build`` to the function under test."""

    def test_absent_label_rejected(self, seed42_dataset):
        sd = SeasonDefinition(delta_c=1e9, delta_n=4)
        with pytest.raises(MissingLabelError):
            self.build(seed42_dataset, sd, (2003, 2004))

    def test_horizon_before_day_one_rejected(self, seed42_dataset, season_def):
        with pytest.raises(HorizonOutOfRangeError):
            self.build(seed42_dataset, season_def, (2003, 2004), horizon=200)

    def test_horizon_without_feature_window_rejected(self, seed42_dataset,
                                                     season_def, seed42_labels):
        b = seed42_labels[2003].start_day
        with pytest.raises(HorizonOutOfRangeError):
            self.build(seed42_dataset, season_def, (2003, 2004), horizon=b - 5)

    def test_nonpositive_horizon_rejected(self, seed42_dataset, season_def):
        with pytest.raises(HorizonOutOfRangeError):
            self.build(seed42_dataset, season_def, (2003, 2004), horizon=0)

    def test_bad_boundary_rejected(self, seed42_dataset, season_def):
        with pytest.raises(InvalidRecordError):
            self.build(seed42_dataset, season_def, (2003, 2004),
                       boundary="middle")


class TestBuildS1(TrainingSetChecks):
    build = staticmethod(pl.build_s1)

    def test_one_year_row_count_and_targets(self, seed42_dataset, season_def,
                                            seed42_labels):
        s1 = pl.build_s1(seed42_dataset, season_def, (2005,))
        b = seed42_labels[2005].start_day
        assert len(s1) == 60
        assert list(s1.targets) == [float(t) for t in range(59, -1, -1)]
        assert s1.provenance[0] == (2005, b - 59)
        assert s1.provenance[-1] == (2005, b)

    def test_boundary_day_target_is_zero(self, seed42_dataset, season_def,
                                         seed42_labels):
        s1 = pl.build_s1(seed42_dataset, season_def, (2007,))
        b = seed42_labels[2007].start_day
        idx = s1.provenance.index((2007, b))
        assert s1.targets[idx] == 0.0

    def test_two_years_120_rows_with_per_year_provenance(self, seed42_dataset,
                                                         season_def):
        s1 = pl.build_s1(seed42_dataset, season_def, (2003, 2004))
        assert len(s1) == 120
        by_year = {}
        for year, _z in s1.provenance:
            by_year[year] = by_year.get(year, 0) + 1
        assert by_year == {2003: 60, 2004: 60}

    def test_rows_match_flattened_feature_matrix(self, seed42_dataset,
                                                 season_def):
        s1 = pl.build_s1(seed42_dataset, season_def, (2006,))
        fm = build_feature_matrix(seed42_dataset, s1.references)
        year, z = s1.provenance[17]
        date = dt.date(year, 1, 1) + dt.timedelta(days=z - 1)
        expected = fm.rows[(date - fm.start).days]
        assert np.array_equal(s1.features[17], expected)

    def test_end_boundary_targets(self, seed42_dataset, season_def,
                                  seed42_labels):
        s1 = pl.build_s1(seed42_dataset, season_def, (2005,), boundary="end")
        e = seed42_labels[2005].end_day
        assert s1.provenance[-1] == (2005, e)
        assert s1.targets[-1] == 0.0

    def test_feature_width_and_doy_column(self, seed42_dataset, season_def):
        s1 = pl.build_s1(seed42_dataset, season_def, (2003,))
        assert s1.features.shape[1] == N_FLAT
        for (year, z), row in zip(s1.provenance, s1.features):
            assert row[DOY_INDEX] == float(z)

    def test_no_years_rejected(self, seed42_dataset, season_def):
        with pytest.raises(TooFewYearsError):
            pl.build_s1(seed42_dataset, season_def, ())

    def test_target_bounds_enforced_on_construction(self, seed42_dataset,
                                                    season_def):
        s1 = pl.build_s1(seed42_dataset, season_def, (2003,))
        with pytest.raises(HorizonOutOfRangeError):
            pl.Stage1TrainingSet(
                features=s1.features,
                targets=s1.targets + 10.0,  # pushes max above horizon
                provenance=s1.provenance,
                boundary=s1.boundary,
                horizon=s1.horizon,
                references=s1.references,
                years=s1.years,
            )


class TestFitStage1:
    def test_constant_targets_predict_that_constant(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 5))
        training = pl.Stage1TrainingSet(
            features=X,
            targets=np.full(40, 7.0),
            provenance=tuple((2001, z) for z in range(40)),
            boundary="start",
            horizon=59,
            references=(1.0,) * 12,
            years=(2001,),
        )
        m = pl.fit_stage1(training, LIGHT)
        assert gbm.predict(m.model, X[11]) == 7.0

    def test_model_is_tagged_with_catalog_version(self, ten):
        assert ten.fc.stage1.model.catalog_version == CATALOG_VERSION

    def test_curve_non_increasing(self, ten):
        curve = np.array(ten.fc.stage1.curve)
        assert (np.diff(curve) <= 1e-9).all()

    def test_refit_identical(self, seed42_dataset, season_def):
        s1 = pl.build_s1(seed42_dataset, season_def, (2003, 2004))
        a = pl.fit_stage1(s1, LIGHT)
        b = pl.fit_stage1(s1, LIGHT)
        assert gbm.to_json(a.model) == gbm.to_json(b.model)

    def test_holdout_countdown_mae_beats_quarter_horizon(self, ten):
        b, series = holdout_series(ten, 2013)
        z, y, _u = series.arrays()
        mae = np.abs(y - (b - z)).mean()
        assert mae < 59 / 4


class TestBuildS2(TrainingSetChecks):
    build = staticmethod(pl.build_s2)

    def test_single_year_rejected(self, seed42_dataset, season_def):
        with pytest.raises(TooFewYearsError):
            pl.build_s2(seed42_dataset, season_def, (2003,))

    def test_two_years_scored_by_the_other_model(self, seed42_dataset,
                                                 season_def):
        years = (2003, 2004)
        s2 = pl.build_s2(seed42_dataset, season_def, years, stage1_cfg=LIGHT)
        assert len(s2) == 120
        assert s2.features.shape[1] == N_FLAT + 1
        assert dict(s2.scorer_train_years) == {2003: (2004,), 2004: (2003,)}

        # recompute year 2003's rows by hand from the 2004-trained model;
        # both years' rows carry the two-year references
        both = pl.build_s1(seed42_dataset, season_def, years)
        assert {y for y, _z in both.provenance[:60]} == {2003}
        assert {y for y, _z in both.provenance[60:]} == {2004}
        model = gbm.fit(both.features[60:], both.targets[60:], LIGHT).model
        y_hat = gbm.predict_batch(model, both.features[:60])
        assert np.array_equal(s2.features[:60, 0], y_hat)
        assert np.array_equal(s2.features[:60, 1:], both.features[:60])
        assert np.array_equal(s2.targets[:60], np.abs(y_hat - both.targets[:60]))

    def test_perfect_stage1_gives_zero_targets(self, twin_years):
        # the closure hook reaches forked workers without being pickled
        exact = chain_model(twin_years.boundary, twin_years.boundary - 20,
                            twin_years.boundary)
        with cores(2):
            s2 = pl.build_s2(twin_years.data, twin_years.sd, (2001, 2002),
                             horizon=20, stage1_fit=exact_fit_hook(exact))
        assert np.array_equal(s2.targets, np.zeros(42))
        assert np.array_equal(s2.features[:, 0],
                              np.tile(np.arange(20, -1, -1, dtype=float), 2))

    def test_loyo_scorers_exclude_their_year(self, seed42_dataset, season_def):
        s2 = pl.build_s2(seed42_dataset, season_def, (2003, 2004, 2005),
                         stage1_cfg=LIGHT)
        assert dict(s2.scorer_train_years) == {
            2003: (2004, 2005), 2004: (2003, 2005), 2005: (2003, 2004),
        }

    def test_holdout_protocol_scores_later_half(self, seed42_dataset,
                                                season_def):
        s2 = pl.build_s2(seed42_dataset, season_def, (2003, 2004, 2005, 2006),
                         protocol="holdout", stage1_cfg=LIGHT)
        assert dict(s2.scorer_train_years) == {
            2005: (2003, 2004), 2006: (2003, 2004),
        }
        assert {y for y, _z in s2.provenance} == {2005, 2006}

    def test_unknown_protocol_rejected(self, seed42_dataset, season_def):
        with pytest.raises(InvalidRecordError):
            pl.build_s2(seed42_dataset, season_def, (2003, 2004),
                        protocol="bootstrap", stage1_cfg=LIGHT)

    def test_leakage_guard_on_construction(self, seed42_dataset, season_def):
        s2 = pl.build_s2(seed42_dataset, season_def, (2003, 2004),
                         stage1_cfg=LIGHT)
        with pytest.raises(InvalidRecordError, match="leakage"):
            pl.Stage2TrainingSet(
                features=s2.features,
                targets=s2.targets,
                provenance=s2.provenance,
                scorer_train_years=((2003, (2003, 2004)), (2004, (2003,))),
                boundary=s2.boundary,
                horizon=s2.horizon,
                references=s2.references,
                protocol=s2.protocol,
                years=s2.years,
            )

    def test_ten_year_mean_target_within_horizon(self, ten):
        mean = ten.s2.targets.mean()
        assert 0.0 < mean < 59.0


class TestFitStage2:
    def test_constant_residual_predicts_that_constant(self):
        rng = np.random.default_rng(5)
        s2 = pl.Stage2TrainingSet(
            features=rng.normal(size=(30, 6)),
            targets=np.full(30, 3.0),
            provenance=tuple((2001, z) for z in range(30)),
            scorer_train_years=((2001, (2002,)),),
            boundary="start",
            horizon=59,
            references=(1.0,) * 12,
            protocol="loyo",
            years=(2001, 2002),
        )
        m = pl.fit_stage2(s2, LIGHT)
        pred = gbm.predict_batch(m.model, s2.features)
        assert np.array_equal(pred, np.full(30, 3.0))

    def test_nonpositive_floor_rejected(self, seed42_dataset, season_def):
        s2 = pl.build_s2(seed42_dataset, season_def, (2003, 2004),
                         stage1_cfg=LIGHT)
        with pytest.raises(InvalidRecordError):
            pl.fit_stage2(s2, LIGHT, u_floor=0.0)

    def test_uncertainty_tracks_residuals_on_pooled_holdout(self, ten):
        us, rs = [], []
        for year in HOLDOUT_YEARS:
            b, series = holdout_series(ten, year)
            z, y, u = series.arrays()
            us.append(u)
            rs.append(np.abs(y - (b - z)))
        corr = np.corrcoef(np.concatenate(us), np.concatenate(rs))[0, 1]
        assert corr > 0.0


class TestPredictSeries:
    def test_single_day_range(self, ten):
        series = ten.fc.predict_series(ten.data, 2014, (100, 100))
        assert len(series) == 1
        assert series.arrays()[0].tolist() == [100.0]

    def test_clamp_invariant(self, ten):
        _b, series = holdout_series(ten, 2015)
        assert (series.u_hat >= pl.U_FLOOR).all()

    def test_bit_exact_reproducibility(self, ten):
        a = ten.fc.predict_series(ten.data, 2016, (60, 110))
        b = ten.fc.predict_series(ten.data, 2016, (60, 110))
        assert a == b

    def test_causality_under_truncation(self, ten):
        cut = ten.data.index_of(dt.date(2014, 4, 20))
        truncated = Dataset(records=ten.data.records[:cut + 1])
        z_hi = dt.date(2014, 4, 20).timetuple().tm_yday
        full = ten.fc.predict_series(ten.data, 2014, (z_hi - 30, z_hi))
        cut_series = ten.fc.predict_series(truncated, 2014, (z_hi - 30, z_hi))
        assert full == cut_series

    def test_missing_window_rejected(self, ten):
        with pytest.raises(WindowUnavailableError):
            ten.fc.predict_series(ten.data, 2003, (5, 20))

    def test_year_overflow_rejected(self, ten):
        with pytest.raises(WindowUnavailableError):
            ten.fc.predict_series(ten.data, 2014, (300, 380))

    def test_empty_range_rejected(self, ten):
        with pytest.raises(InvalidRecordError):
            ten.fc.predict_series(ten.data, 2014, (100, 90))

    def test_countdown_consistency_exact_slope(self, twin_years):
        b = twin_years.boundary
        stage1 = pl.Stage1Model(
            model=chain_model(b, b - 20, b),
            boundary="start",
            horizon=20,
            references=(120.0,) + (10.0,) * 11,
            train_years=(2001,),
        )
        stage2 = pl.Stage2Model(
            model=constant_model(1.0, N_FLAT + 1),
            u_floor=0.25,
            protocol="loyo",
            train_years=(2001,),
        )
        series = pl.predict_series(stage1, stage2, twin_years.data, 2002,
                                   (b - 20, b))
        z, y_hat, u_hat = series.arrays()
        assert (y_hat == float(b) - z).all()
        assert (u_hat == 1.0).all()
        fit = fit_wls(series)
        assert fit.beta1 == pytest.approx(-1.0, abs=1e-12)
        assert final_forecast(fit).y_star == pytest.approx(b, abs=1e-9)


@st.composite
def seed42_spans(draw):
    """A year of the seed-42 data (2003-01-01..2019-12-31) and a span of its
    days whose windows lie in the data."""
    year = draw(st.sampled_from(range(2003, 2020)))
    z_lo = draw(st.integers(14 if year == 2003 else 1, year_length(year)))
    z_hi = draw(st.integers(z_lo, min(year_length(year), z_lo + 70)))
    return year, z_lo, z_hi


class TestDayRows:
    """A flat row depends only on its own 14-day window, so the rows the
    pipeline builds for a span equal the same dates' rows of the whole
    dataset's feature matrix, bit for bit."""

    @pytest.fixture(scope="class")
    def full(self, seed42_dataset, season_def):
        refs = pl.series_references(seed42_dataset, season_def, TRAIN_YEARS)
        return refs, build_feature_matrix(seed42_dataset, refs).rows

    @given(span=seed42_spans())
    @example(span=(2003, 14, 14))  # the first day with a full window
    @example(span=(2019, 300, 365))  # the last days of the data
    @settings(max_examples=40, deadline=None)
    def test_span_rows_equal_full_matrix_rows(self, seed42_dataset, full,
                                              span):
        data, (refs, flat) = seed42_dataset, full
        year, z_lo, z_hi = span
        last = data.index_of(dt.date(year, 1, 1) + dt.timedelta(z_hi - 1))
        want = flat[last - (z_hi - z_lo) - 13:last - 13 + 1]
        # the data ends on z_hi, as it does for a forecast made that day
        cut = Dataset(records=data.records[:last + 1])
        for source in (cut, data):
            got = pl._day_rows(source, refs, year, z_lo, z_hi,
                               WindowUnavailableError)
            assert got.shape == (z_hi - z_lo + 1, N_FLAT)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("error", [WindowUnavailableError,
                                       HorizonOutOfRangeError])
    @pytest.mark.parametrize("year, z_lo, z_hi", [
        (2003, 13, 40),   # day 13 of the first year has 12 days before it
        (2003, 0, 40),    # day 0 is not a day of the year
        (2004, 300, 367),  # a leap year has 366 days
        (2019, 360, 366),  # 2019 has 365
        (2002, 100, 120),  # before the data
        (2020, 1, 10),    # after the data
    ])
    def test_span_outside_the_data_rejected(self, seed42_dataset, full,
                                            error, year, z_lo, z_hi):
        with pytest.raises(error):
            pl._day_rows(seed42_dataset, full[0], year, z_lo, z_hi, error)

    @pytest.mark.parametrize("year", [0, -5, 10_000, 10**20])
    def test_year_outside_date_range_rejected(self, seed42_dataset, full, year):
        with pytest.raises(WindowUnavailableError, match=f"^year {year}, days 1..10: "):
            pl._day_rows(seed42_dataset, full[0], year, 1, 10, WindowUnavailableError)

    def test_span_past_a_cut_rejected(self, seed42_dataset, full):
        cut = Dataset(records=seed42_dataset.records[
            :seed42_dataset.index_of(dt.date(2010, 4, 9)) + 1])
        assert pl._day_rows(cut, full[0], 2010, 90, 99,
                            WindowUnavailableError).shape == (10, N_FLAT)
        with pytest.raises(WindowUnavailableError):
            pl._day_rows(cut, full[0], 2010, 90, 100, WindowUnavailableError)


class TestTrainingPlanner:
    def test_shared_rows_equal_each_trainings_own(self, seed42_dataset,
                                                  season_def, seed42_labels,
                                                  monkeypatch):
        # each year's rows are built once, with the references of the first
        # training that reads it; every training's stacked rows equal the
        # rows built with its own references, bit for bit
        built = []

        def counted(data, refs):
            built.append(data.span)
            return build_feature_matrix(data, refs)

        monkeypatch.setattr(pl, "build_feature_matrix", counted)
        planner = pl.TrainingPlanner(seed42_dataset, season_def)
        plans = [planner.plan(range(2003, end)) for end in (2006, 2009, 2012)]
        assert len(built) == len(set(built)) == 2011 - 2003 + 1
        assert len({plan.references for plan in plans}) == 3
        monkeypatch.undo()
        for plan in plans:
            want = []
            for year in plan.years:
                b = seed42_labels[year].start_day
                want.append(pl._day_rows(seed42_dataset, plan.references, year,
                                         b - pl.DEFAULT_HORIZON, b,
                                         HorizonOutOfRangeError))
            x, t, prov = plan.rows.stack(plan.years)
            assert x.tobytes() == np.concatenate(want).tobytes()
            assert len(t) == len(prov) == len(x)
        # the counts did differ: the later trainings' references moved them
        first = plans[0].rows
        assert any((plans[2].rows.counts[y] != first.counts[y]).any()
                   for y in plans[0].years)


class TestPersistence:
    def test_round_trip_preserves_predictions(self, seed42_dataset, season_def,
                                              tmp_path):
        fc = pl.train_forecaster(seed42_dataset, season_def, (2003, 2004),
                                 stage1_cfg=LIGHT, stage2_cfg=LIGHT)
        path = tmp_path / "forecaster.json"
        pl.save_forecaster(fc, str(path))
        loaded = pl.load_forecaster(str(path))
        a = fc.predict_series(seed42_dataset, 2005, (80, 120))
        b = loaded.predict_series(seed42_dataset, 2005, (80, 120))
        assert a == b

    def test_serialization_is_stable(self, seed42_dataset, season_def):
        fc = pl.train_forecaster(seed42_dataset, season_def, (2003, 2004),
                                 stage1_cfg=LIGHT, stage2_cfg=LIGHT)
        text = pl.forecaster_to_json(fc)
        assert pl.forecaster_to_json(pl.forecaster_from_json(text)) == text

    def test_format_guard(self):
        with pytest.raises(InvalidRecordError):
            pl.forecaster_from_json(json.dumps({"format": "other-v9"}))


class TestTrainForecaster:
    def test_deterministic(self, seed42_dataset, season_def):
        kwargs = dict(stage1_cfg=LIGHT, stage2_cfg=LIGHT)
        a = pl.train_forecaster(seed42_dataset, season_def, (2003, 2004, 2005),
                                **kwargs)
        b = pl.train_forecaster(seed42_dataset, season_def, (2003, 2004, 2005),
                                **kwargs)
        assert pl.forecaster_to_json(a) == pl.forecaster_to_json(b)

    def test_matches_manual_assembly(self, seed42_dataset, season_def):
        years = (2003, 2004)
        fc = pl.train_forecaster(seed42_dataset, season_def, years,
                                 stage1_cfg=LIGHT, stage2_cfg=LIGHT)
        s1 = pl.build_s1(seed42_dataset, season_def, years)
        s2 = pl.build_s2(seed42_dataset, season_def, years, stage1_cfg=LIGHT)
        manual = pl.Forecaster(stage1=pl.fit_stage1(s1, LIGHT),
                               stage2=pl.fit_stage2(s2, LIGHT))
        assert pl.forecaster_to_json(manual) == pl.forecaster_to_json(fc)

    def test_year_length_helper_consistency(self):
        # predict_series trusts day-of-year arithmetic; pin the two year kinds
        assert year_length(2004) == 366
        assert year_length(2003) == 365


class TestPinnedBundles:
    """sha256 of the bundle JSON for both Stage-2 protocols.

    The digests were taken when the window slope became a row-by-row sum,
    which moved a few split thresholds on slope and intercept columns by
    1-2 ulp, and retaken for the ``forecaster-json-v2`` bundle, whose node
    arrays equal those of the nested ``forecaster-json-v1`` bundle bit for
    bit.  They were retaken for the ``w14s29-v1`` catalog without the
    window sum, whose node arrays equal the ``w14s30-v1`` ones once the
    feature indices are renumbered, and for the packed
    ``forecaster-json-v3`` bundle, whose node arrays decode to the
    ``forecaster-json-v2`` ones bit for bit; any change to the rows, folds,
    fits or their order shows here, for every pool size.
    """

    DIGESTS = {
        "loyo": "95bcdba19c5773fefd0876d7fa4f5a063669a008f82efb9df2dc9ef7f94141f6",
        "holdout": "fd6d4869375e6acb055d6c0ef0da8a218aad7f630ae2a4e04020d59c4804703c",
    }

    @pytest.mark.parametrize("n_cores", [1, 2, 3])
    @pytest.mark.parametrize("protocol", sorted(DIGESTS))
    def test_digest(self, seed42_dataset, season_def, protocol, n_cores):
        years = (y for y in range(2003, 2007))  # one-shot iterables work
        with cores(n_cores):
            fc = pl.train_forecaster(seed42_dataset, season_def, years,
                                     stage1_cfg=LIGHT, stage2_cfg=LIGHT,
                                     protocol=protocol)
        text = pl.forecaster_to_json(fc)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[protocol]


class TestFitPool:
    def test_fit_error_in_worker_keeps_its_type(self, seed42_dataset,
                                                season_def):
        # 120 rows cannot hold two leaves of 100 rows: every Stage-1 fit
        # raises TooFewRowsError inside a worker
        with cores(2), pytest.raises(TooFewRowsError):
            pl.train_forecaster(seed42_dataset, season_def, (2003, 2004),
                                stage1_cfg=gbm.GBMConfig(min_samples_leaf=100))

    def test_hook_error_in_worker_keeps_its_type(self, twin_years):
        def failing(X, y, cfg):
            raise TooFewRowsError(f"refused {len(y)} rows")

        with cores(2), pytest.raises(TooFewRowsError, match="refused 21 rows"):
            pl.build_s2(twin_years.data, twin_years.sd, (2001, 2002),
                        horizon=20, stage1_fit=failing)

    def test_no_workers_left_after_training(self, seed42_dataset, season_def):
        with cores(2):
            pl.train_forecaster(seed42_dataset, season_def, (2003, 2004, 2005),
                                stage1_cfg=LIGHT, stage2_cfg=LIGHT)
        assert multiprocessing.active_children() == []

    def test_results_in_task_order(self):
        # results come back in task order, however the pool schedules them
        def constant_fit(value):
            return gbm.FitResult(model=constant_model(value, 1),
                                 curve=np.zeros(1))

        tasks = [partial(constant_fit, v) for v in range(5)]
        for jobs in (1, 2, 3):
            with pl._fit_all(tasks, jobs) as results:
                got = [r.model.base_prediction for r in results]
            assert got == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_many_tasks_on_more_workers_than_cores(self):
        # each done-callback hands out one more task: every result comes
        # back once and in order, and no worker is left
        tasks = [partial(int, i) for i in range(200)]
        with pl._fit_all(tasks, 2 * pl._cores() + 1) as results:
            assert list(results) == list(range(200))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_results_stream(self, tmp_path, jobs):
        # the last task waits for a file that is written only once the
        # earlier results are taken: a call that collected every result
        # before handing any back would time out instead of hanging
        taken = tmp_path / "taken"
        tasks = [partial(int, 7), partial(int, 8),
                 partial(wait_for, taken, 20.0)]
        with pl._fit_all(tasks, jobs) as results:
            first = [next(results), next(results)]
            taken.touch()
            last = next(results)
        assert first == [7, 8] and last is True
        assert multiprocessing.active_children() == []

    def test_tasks_run_in_workers(self):
        with pl._fit_all([os.getpid] * 3, 2) as results:
            pids = list(results)
        assert os.getpid() not in pids and len(set(pids)) <= 2

    def test_inline_while_other_threads_run(self):
        # a forked child would inherit the other thread's locks
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with pl._fit_all([os.getpid] * 3, 2) as results:
                assert list(results) == [os.getpid()] * 3
        finally:
            stop.set()
            thread.join()

    def test_stage2_fits_beside_the_full_fit(self, seed42_dataset, season_def,
                                             tmp_path, monkeypatch):
        # Stage 2 is fitted here while a worker still runs the full Stage-1
        # fit; its error keeps its type and ends the training with no
        # worker left
        started, finished = tmp_path / "started", tmp_path / "finished"
        full_fit = pl.fit_stage1

        def slow_full_fit(*args):
            started.touch()
            time.sleep(0.5)
            finished.touch()
            return full_fit(*args)

        def failing_stage2(training, cfg=None):
            assert wait_for(started, 20.0) and not finished.exists()
            raise TooFewRowsError("stage 2 refused")

        monkeypatch.setattr(pl, "fit_stage1", slow_full_fit)
        monkeypatch.setattr(pl, "fit_stage2", failing_stage2)
        with cores(2), pytest.raises(TooFewRowsError, match="stage 2 refused"):
            pl.train_forecaster(seed42_dataset, season_def, (2003, 2004),
                                stage1_cfg=LIGHT, stage2_cfg=LIGHT)
        assert multiprocessing.active_children() == []

    def test_fold_error_leaves_later_fits_unstarted(self, seed42_dataset,
                                                    season_def, tmp_path,
                                                    monkeypatch):
        # the first out-of-fold fit fails at once: its error keeps its
        # type, the fit already running beside it ends, and the fits queued
        # behind them, the full fit included, never start
        fold_predictions, full_fit = pl._fold_predictions, pl.fit_stage1

        def logged_fold(fit_fn, per_year, train_ys, scored_ys, cfg):
            (tmp_path / f"fold-{scored_ys[0]}").touch()
            if scored_ys == (2003,):
                raise TooFewRowsError("fold refused")
            return fold_predictions(fit_fn, per_year, train_ys, scored_ys, cfg)

        def logged_full_fit(*args):
            (tmp_path / "full").touch()
            return full_fit(*args)

        monkeypatch.setattr(pl, "_fold_predictions", logged_fold)
        monkeypatch.setattr(pl, "fit_stage1", logged_full_fit)
        with cores(2), pytest.raises(TooFewRowsError, match="fold refused"):
            pl.train_forecaster(seed42_dataset, season_def,
                                (2003, 2004, 2005, 2006),
                                stage1_cfg=LIGHT, stage2_cfg=LIGHT)
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fold-2003", "fold-2004"]

    def test_next_fold_fits_beside_stage2(self, seed42_dataset, season_def,
                                          tmp_path, monkeypatch):
        # a backtest runs every fold's fits on one pool: while the first
        # fold's Stage 2 is fitted here, the workers start the second fold's
        # first out-of-fold fit, and its second once a running fit is done
        fold_predictions, stage2_fit = pl._fold_predictions, pl.fit_stage2
        markers = [tmp_path / "fold-2004-2005", tmp_path / "fold-2003-2005"]

        def logged_fold(fit_fn, rows, train_ys, scored_ys, cfg):
            (tmp_path / f"fold-{'-'.join(map(str, train_ys))}").touch()
            return fold_predictions(fit_fn, rows, train_ys, scored_ys, cfg)

        seen = []

        def watching_stage2(training, cfg=None):
            if not seen:
                seen.extend(wait_for(marker, 10.0) for marker in markers)
            return stage2_fit(training, cfg)

        monkeypatch.setattr(pl, "_fold_predictions", logged_fold)
        monkeypatch.setattr(pl, "fit_stage2", watching_stage2)
        folds = (bt.Fold(train_years=(2003, 2004), test_year=2005),
                 bt.Fold(train_years=(2003, 2004, 2005), test_year=2006))
        with cores(2):
            bt.rolling_backtest(seed42_dataset, bt.BacktestConfig(
                folds=folds, definition=season_def, stage1_cfg=LIGHT,
                stage2_cfg=LIGHT))
        assert seen == [True, True]
        assert multiprocessing.active_children() == []

    def test_training_in_a_daemonic_process(self, seed42_dataset, season_def):
        # multiprocessing pool workers are daemonic and may not fork; their
        # trainings run inline and give the same bundle
        def train(conn):
            try:
                fc = pl.train_forecaster(seed42_dataset, season_def,
                                         (2003, 2004), stage1_cfg=LIGHT,
                                         stage2_cfg=LIGHT)
                conn.send(pl.forecaster_to_json(fc))
            except BaseException as exc:
                conn.send(repr(exc))

        with cores(2):
            expected = pl.forecaster_to_json(pl.train_forecaster(
                seed42_dataset, season_def, (2003, 2004), stage1_cfg=LIGHT,
                stage2_cfg=LIGHT))
            ctx = multiprocessing.get_context("fork")
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=train, args=(child,), daemon=True)
            proc.start()
            got = parent.recv()
            proc.join()
        assert got == expected

    def test_dead_worker_is_a_pollencast_error(self):
        with pytest.raises(WorkerLostError):
            with pl._fit_all([partial(os._exit, 1)] * 2, 2) as results:
                list(results)
        assert multiprocessing.active_children() == []
