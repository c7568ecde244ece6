"""The benchmark's tracer and checks must fit the program's names.

``perfbench/spans.py`` wraps functions by module attribute name and counts
the rows of each feature matrix it sees, ``perfbench/checks.py`` reads a
feature matrix's ``values[r, :, s]`` to check window statistics, and its
``train`` check refits a forecast series from its arrays; a refactor that
renames or removes one of them fails here instead of in a benchmark run.
Its fit span counts trees and split nodes by walking ``model.trees``, so
those views must keep matching the tree arrays.  Its
``pipeline.fit_stage2.s`` must keep measuring the Stage-2 fit, which
``train_forecaster`` runs in the parent process beside a pool worker.
Its ``forecast`` and ``backtest`` checks read the emitted series CSV,
forecast JSON, ``folds.csv`` and ``report.json`` by column and key name.
"""

import importlib.util
import os
import sys

import numpy as np

from helpers import cores
from pollencast import backtest, cli, features, gbm, pipeline
from pollencast.data import label_years
from pollencast.wls import emit_forecast_json, emit_series_csv, final_forecast, fit_wls

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def load(name):
    """The module ``perfbench/<name>.py``."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load("spans")


def test_tracer_installs_and_uninstalls():
    modules = (backtest, cli, gbm, pipeline)
    before = [dict(vars(m)) for m in modules]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert any(vars(m) != b for m, b in zip(modules, before))
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before


def test_fit_span_counts_trees_and_splits():
    # the tracer counts split nodes by walking ``model.trees``
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 6))
    y = X[:, 0] + rng.normal(size=80)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        result = gbm.fit(X, y, gbm.GBMConfig(n_trees=9, max_depth=3,
                                             min_samples_leaf=2))
    finally:
        tracer.uninstall()
    (span,) = [s for s in tracer.spans if s.name == "gbm.fit"]
    left = result.model.arrays.left
    splits = int(np.count_nonzero(left != np.arange(left.size)))  # leaves loop
    assert span.counts == {"trees": 9, "split_nodes": splits}
    assert 9 < splits <= 9 * 7


def test_stage2_fit_traced_in_the_parent(seed42_dataset, season_def):
    # with two cores the Stage-1 fits run in pool workers, out of the
    # tracer's sight; the Stage-2 fit is the one fit left in this process
    light = gbm.GBMConfig(n_trees=10, max_depth=2)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        with cores(2):
            pipeline.train_forecaster(seed42_dataset, season_def,
                                      (2003, 2004, 2005), stage1_cfg=light,
                                      stage2_cfg=light)
    finally:
        tracer.uninstall()
    (stage2,) = [i for i, s in enumerate(tracer.spans)
                 if s.name == "pipeline.fit_stage2"]
    fits = [s for s in tracer.spans if s.name == "gbm.fit"]
    assert [s.parent for s in fits] == [stage2]
    assert [f.X.shape[1] for f in tracer.fits] == [pipeline.STAGE1_COLUMNS + 1]


def test_train_check_refits_the_series(seed42_dataset, season_def):
    # the calls the benchmark's ``train`` check makes on a held-out series
    checks = load("checks")
    light = gbm.GBMConfig(n_trees=10, max_depth=2)
    fc = pipeline.train_forecaster(seed42_dataset, season_def,
                                   (2003, 2004, 2005), stage1_cfg=light,
                                   stage2_cfg=light)
    series = fc.predict_series(seed42_dataset, 2006, (60, 110))
    z, y, u = series.arrays()
    assert z.tolist() == [float(day) for day in range(60, 111)]
    assert len(y) == len(u) == len(series) == 51
    fit = fit_wls(series)
    b0, b1 = checks.wls_refit(z, y, u)
    assert checks.close(fit.beta0, b0, rtol=1e-7, atol=1e-7)
    assert checks.close(fit.beta1, b1, rtol=1e-7, atol=1e-7)
    assert checks.close(final_forecast(fit).y_star, -b0 / b1, rtol=1e-7, atol=1e-7)


def test_window_stats_check_reads_the_feature_matrix(seed42_dataset):
    checks = load("checks")
    data = seed42_dataset[:120]
    raw = data.series_matrix()
    refs = (120.0, *(float(v) for v in raw[:, 1:].mean(axis=0)))
    fm = features.build_feature_matrix(data, refs)
    rng = np.random.default_rng(4)
    assert checks.check_window_stats(fm, raw, refs, rng, features.FEATURE_NAMES,
                                     samples=200) == []


def test_feature_span_counts_the_rows_of_a_day_range(seed42_dataset,
                                                      season_def):
    light = gbm.GBMConfig(n_trees=5, max_depth=2)
    fc = pipeline.train_forecaster(seed42_dataset, season_def, (2003, 2004),
                                   stage1_cfg=light, stage2_cfg=light)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        fc.predict_series(seed42_dataset, 2006, (60, 110))
    finally:
        tracer.uninstall()
    (built,) = [s for s in tracer.spans if s.name == "features.build_feature_matrix"]
    predict = tracer.spans[built.parent]
    assert predict.name == "pipeline.predict_series"
    assert built.counts == {"rows_built": 51} and predict.counts == {"rows_used": 51}


def test_forecast_check_reads_the_emitted_files(seed42_dataset, season_def,
                                                tmp_path):
    checks = load("checks")
    light = gbm.GBMConfig(n_trees=10, max_depth=2)
    fc = pipeline.train_forecaster(seed42_dataset, season_def, (2003, 2004),
                                   stage1_cfg=light, stage2_cfg=light)
    series = fc.predict_series(seed42_dataset, 2006, (60, 110))
    fit = fit_wls(series)
    final = final_forecast(fit)
    series_path, forecast_path = tmp_path / "series.csv", tmp_path / "forecast.json"
    emit_series_csv(series, str(series_path))
    emit_forecast_json(final, fit, str(forecast_path))
    errors, y_star, last = checks.check_forecast_files(
        str(series_path), str(forecast_path), (60, 110))
    assert errors == []
    z, y, _u = series.arrays()
    assert (y_star, last) == (final.y_star, z[-1] + y[-1])


def test_backtest_check_reads_the_emitted_report(seed42_dataset, season_def,
                                                 tmp_path):
    checks = load("checks")
    # the benchmark's backtest models; the check also holds the fused MAE
    # to at most the last day's Stage-1 MAE + 1, and the error bar to shrink
    light = gbm.GBMConfig(n_trees=30, max_depth=2, learning_rate=0.25)
    cfg = backtest.BacktestConfig(
        folds=backtest.expanding_folds(range(2003, 2008), 2),
        definition=season_def, stage1_cfg=light, stage2_cfg=light)
    report = backtest.rolling_backtest(seed42_dataset, cfg)
    backtest.emit_report(report, str(tmp_path))
    truths = {year: (label.start_day, label.end_day)
              for year, label in label_years(seed42_dataset, season_def).items()}
    errors, stage3, stage1 = checks.check_backtest_report(str(tmp_path), truths)
    assert errors == []
    assert (stage3, stage1) == (report.mae, report.stage1_mae)


def test_traced_backtest_round(tmp_path, monkeypatch):
    # one round of the benchmark's backtest, untraced and then traced: the
    # tracer installs, both runs write the same bytes and the checks pass;
    # every year's feature rows are built once, and once more for each of
    # the three forecasts
    monkeypatch.syspath_prepend(PERFBENCH)  # run.py imports its neighbours
    result = load("run").run("backtest", 1, 0, True, tmp_path / "w")
    assert result["correct"] and result["failed"] == 0
    calls = result["metrics"]["features.build_feature_matrix.calls"]["value"]
    assert calls == 7 + 3
    assert list(tmp_path.glob("spans-backtest-seed1.json"))
