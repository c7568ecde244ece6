"""Acceptance suite: one test per shipping criterion, tolerances inline.

Each test prints a single `criterion N: PASS ...` line with the measured
numbers once its assertions hold (run with -s to see them on success).
"""

import datetime as dt
import math
import os
import time

import numpy as np
import pytest

from helpers import dataset_from_pollen, label_brute_force
from pollencast import backtest as bt
from pollencast import gbm
from pollencast import pipeline as pl
from pollencast.data import SeasonDefinition, emit_csv, label_season
from pollencast.synth import generate_synthetic
from pollencast.wls import (
    ForecastSeries,
    emit_forecast_json,
    emit_series_csv,
    final_forecast,
    fit_wls,
    min_days,
    monte_carlo_variance,
    propagation_identity_check,
    threshold_function,
)

LIGHT = gbm.GBMConfig(n_trees=30, max_depth=2, learning_rate=0.25)


@pytest.fixture(scope="module")
def seed42_backtest(seed42_dataset, season_def):
    """The reference 5-fold expanding-window backtest, run once and timed."""
    cfg = bt.BacktestConfig(
        folds=bt.expanding_folds(seed42_dataset.years(), 5),
        definition=season_def,
    )
    t0 = time.monotonic()
    report = bt.rolling_backtest(seed42_dataset, cfg)
    return report, time.monotonic() - t0


def _random_year_pollen(rng: np.random.Generator) -> np.ndarray:
    days = 365
    mode = rng.integers(4)
    if mode == 0:
        return np.zeros(days)
    if mode == 1:
        pollen = np.zeros(days)
        start = int(rng.integers(0, days - 30))
        length = int(rng.integers(5, 120))
        stop = min(start + length, days)
        pollen[start:stop] = rng.uniform(0.0, 400.0, size=stop - start)
        return pollen
    if mode == 2:
        pollen = np.zeros(days)
        for _ in range(int(rng.integers(1, 40))):
            pollen[rng.integers(days)] = rng.uniform(0.0, 500.0)
        return pollen
    t = np.arange(days, dtype=np.float64)
    center = rng.uniform(60.0, 300.0)
    width = rng.uniform(5.0, 60.0)
    bump = rng.uniform(100.0, 400.0) * np.exp(-(((t - center) / width) ** 2))
    return np.clip(bump + rng.normal(0.0, 40.0, size=days), 0.0, None)


def test_criterion_1_label_oracle_equivalence():
    rng = np.random.default_rng(20260816)
    deltas_c = (50.0, 120.0, 200.0)
    n_present = n_absent = 0
    t0 = time.monotonic()
    for i in range(1000):
        pollen = _random_year_pollen(rng)
        data = dataset_from_pollen(pollen, dt.date(2001, 1, 1))
        sd = SeasonDefinition(delta_c=deltas_c[i % 3], delta_n=1 + i % 7)
        fast = label_season(data, sd, 2001)
        slow = label_brute_force(data, sd, 2001)
        assert fast == slow
        if fast.present:
            n_present += 1
        else:
            n_absent += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    assert n_present > 0 and n_absent > 0
    print(f"criterion 1: PASS 1000/1000 labels identical "
          f"({n_present} present, {n_absent} absent) in {elapsed:.1f} s")


def test_criterion_2_uniform_weight_reduction():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 61))
        z = rng.uniform(-20.0, 50.0) + np.arange(n, dtype=np.float64)
        y = rng.uniform(-50.0, 150.0) + rng.uniform(-3.0, 3.0) * z
        y += rng.normal(0.0, rng.uniform(0.1, 3.0), size=n)
        fit = fit_wls(ForecastSeries(first_z=z[0], y_hat=y, u_hat=np.ones(n),
                                     boundary="start", year=2001))
        # independent closed form under uniform weights
        zbar = z.mean()
        s = float(((z - zbar) ** 2).sum())
        b1 = float(((z - zbar) * (y - y.mean())).sum() / s)
        b0 = float(y.mean() - b1 * zbar)
        sigma0_sq = float(((y - b0 - b1 * z) ** 2).mean())
        var_b0 = sigma0_sq / n * (1.0 / n + zbar ** 2 / s)
        var_b1 = sigma0_sq / n / s
        for got, want in ((fit.beta0, b0), (fit.beta1, b1),
                          (fit.var_beta0, var_b0), (fit.var_beta1, var_b1)):
            assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-15)
            if want != 0:
                worst = max(worst, abs(got - want) / abs(want))
    print(f"criterion 2: PASS 100/100 uniform-weight fits match the closed "
          f"form (worst relative error {worst:.2e} <= 1e-10)")


def test_criterion_3_propagation_identity():
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(1000):
        beta0 = float(rng.uniform(-40.0, 40.0))
        beta1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0))
        n = int(rng.integers(2, 101))
        z_start = float(rng.uniform(-20.0, 50.0))
        sigma0 = float(rng.uniform(0.5, 8.0))
        lhs, rhs = propagation_identity_check(beta0, beta1, n, z_start, sigma0)
        err = abs(lhs - rhs) / max(1.0, abs(lhs))
        worst = max(worst, err)
        assert err <= 1e-12
    print(f"criterion 3: PASS 1000/1000 identity checks "
          f"(worst relative error {worst:.2e} <= 1e-12)")


def test_criterion_4_threshold_behavior():
    # f_th grows with |beta0| at fixed N and beta1
    values = [threshold_function(b0, 1.0, 10, 0.0)
              for b0 in (0.0, 2.0, 5.0, 10.0, 20.0)]
    assert all(b > a for a, b in zip(values, values[1:]))

    def eq9(beta0: float, n: int) -> float:
        zbar = (n - 1) / 2.0
        s = n * (n * n - 1) / 12.0
        return (1.0 / n) * (1.0 / n + zbar ** 2 / s + beta0 ** 2 / s)

    for beta0, expected in ((0.0, 2), (10.0, 7)):
        analysis = min_days(beta0, 1.0, z_start=0.0)
        independent = next(n for n in range(2, 101) if eq9(beta0, n) < 1.0)
        assert analysis.n_min == expected == independent
    print("criterion 4: PASS f_th increasing in |beta0|; "
          "N_n(0)=2 and N_n(10)=7 confirmed by independent evaluation")


def test_criterion_5_monte_carlo_reduction():
    t0 = time.monotonic()
    ns = (10, 20, 40, 80)
    stds = [monte_carlo_variance(60.0, 5.0, n, 1.0, trials=2000,
                                 seed=2025).empirical_std for n in ns]
    elapsed = time.monotonic() - t0
    by_n = dict(zip(ns, stds))
    assert by_n[40] < 5.0
    rises = [(b - a, a) for a, b in zip(stds, stds[1:]) if b > a]
    assert len(rises) <= 1
    assert all(d <= 0.05 * base for d, base in rises)
    assert elapsed < 60.0
    print(f"criterion 5: PASS empirical std at N=40 is {by_n[40]:.3f} < 5; "
          f"ladder {[round(s, 3) for s in stds]} non-increasing "
          f"in {elapsed:.1f} s")


def test_criterion_6_gbm_learner():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(500, 4))
    y_det = X[:, 2].copy()
    det = gbm.fit(X, y_det, gbm.GBMConfig())
    assert det.curve[-1] < 0.01 * y_det.var()

    battery = [det]
    targets = (
        X @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.normal(0.0, 0.5, 500),
        np.where(X[:, 0] > 0.3, 4.0, -1.0) + rng.normal(0.0, 0.2, 500),
    )
    configs = (
        gbm.GBMConfig(n_trees=50, max_depth=2, learning_rate=0.3, seed=1),
        gbm.GBMConfig(n_trees=120, max_depth=4, learning_rate=0.1, seed=2),
        gbm.GBMConfig(n_trees=200, max_depth=3, learning_rate=0.05, seed=3),
    )
    for target in targets:
        for cfg in configs:
            battery.append(gbm.fit(X, target, cfg))
    for result in battery:
        assert (np.diff(result.curve) <= 1e-9).all()

    model = battery[2].model
    text = gbm.to_json(model)
    restored = gbm.from_json(text)
    assert gbm.to_json(restored) == text
    probe = rng.normal(size=(60, 4))
    assert np.array_equal(gbm.predict_batch(restored, probe),
                          gbm.predict_batch(model, probe))
    print(f"criterion 6: PASS {len(battery)} training curves non-increasing; "
          f"deterministic-target MSE {det.curve[-1]:.2e} < 1% of variance; "
          f"serialization round-trip lossless")


def test_criterion_7_backtest_error_bounds(seed42_backtest):
    report, elapsed = seed42_backtest
    assert len(report.folds) == 5
    assert elapsed < 300.0
    assert report.mae <= 10.0
    assert report.mae <= report.stage1_mae + 1.0
    print(f"criterion 7: PASS stage-3 MAE {report.mae:.3f} <= 10 and <= "
          f"stage-1 last-day MAE {report.stage1_mae:.3f} + 1 "
          f"(5 folds in {elapsed:.0f} s)")


def test_criterion_8_uncertainty_shrinks_with_more_days(seed42_backtest):
    report, _elapsed = seed42_backtest
    pairs = []
    for fold in report.folds:
        at5 = next(p for p in fold.trace if p.k == 5)
        full = fold.trace[-1]
        assert at5.sigma_y_star is not None and full.sigma_y_star is not None
        assert full.sigma_y_star <= at5.sigma_y_star
        pairs.append((fold.test_year, at5.sigma_y_star, full.sigma_y_star))
    detail = ", ".join(f"{y}: {a:.1f}->{b:.2f}" for y, a, b in pairs)
    print(f"criterion 8: PASS sigma at k=full <= sigma at k=5 in every fold "
          f"({detail})")


def _reference_slice(target_dir: str) -> None:
    """Deterministic end-to-end run writing every artifact kind."""
    os.makedirs(target_dir, exist_ok=True)
    data = generate_synthetic(seed=7, years=6)
    emit_csv(data, os.path.join(target_dir, "data.csv"))
    sd = SeasonDefinition(delta_c=120.0, delta_n=4)
    fc = pl.train_forecaster(data, sd, range(2003, 2007),
                             stage1_cfg=LIGHT, stage2_cfg=LIGHT)
    pl.save_forecaster(fc, os.path.join(target_dir, "model.json"))
    series = fc.predict_series(data, 2008, (60, 110))
    emit_series_csv(series, os.path.join(target_dir, "series.csv"))
    fit = fit_wls(series)
    emit_forecast_json(final_forecast(fit), fit,
                       os.path.join(target_dir, "forecast.json"))
    cfg = bt.BacktestConfig(
        folds=bt.expanding_folds(data.years(), 2),
        definition=sd,
        stage1_cfg=LIGHT,
        stage2_cfg=LIGHT,
    )
    bt.emit_report(bt.rolling_backtest(data, cfg),
                   os.path.join(target_dir, "report"))


def _tree_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_criterion_9_byte_identical_reports(seed42_backtest, tmp_path):
    report, _elapsed = seed42_backtest
    first, second = str(tmp_path / "run1"), str(tmp_path / "run2")
    _reference_slice(first)
    _reference_slice(second)
    a, b = _tree_bytes(first), _tree_bytes(second)
    assert a.keys() == b.keys()
    assert all(a[k] == b[k] for k in a)

    bt.emit_report(report, str(tmp_path / "big1"))
    bt.emit_report(report, str(tmp_path / "big2"))
    big_a = _tree_bytes(str(tmp_path / "big1"))
    big_b = _tree_bytes(str(tmp_path / "big2"))
    assert big_a.keys() == big_b.keys()
    assert all(big_a[k] == big_b[k] for k in big_a)
    print(f"criterion 9: PASS two full pipeline runs produced byte-identical "
          f"artifacts ({len(a)} files) and the reference backtest re-emits "
          f"byte-identically ({len(big_a)} files)")
