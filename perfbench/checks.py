"""Correctness checks computed apart from the program.

Nothing here calls the program's own oracles: the season labels, the WLS
refit, the window statistics and the error metrics are recomputed from the
raw daily values and the emitted files with plain Python and numpy.  Each
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

SEASON_WINDOW = 7


def close(a: float, b: float, rtol: float, atol: float = 1e-9) -> bool:
    """a equals b up to floats recomputed in another order of operations."""
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= atol + rtol * abs(b)


def season_oracle(
    days: list, pollen: list[float], delta_c: float, delta_n: int
) -> dict[int, tuple[int | None, int | None]]:
    """Literal season labels per fully covered year: (start_day, end_day).

    A day is typical when its pollen is strictly above ``delta_c``; days
    outside the data are never typical.  The start is the first day of the
    year whose window of itself and the 6 following days holds at least
    ``delta_n`` typical days; the end is the last day of the year, not
    before the start, whose window of itself and the 6 preceding days does.
    """
    n = len(days)

    def typical_count(lo: int, hi: int) -> int:
        count = 0
        for i in range(lo, hi + 1):
            if 0 <= i < n and pollen[i] > delta_c:
                count += 1
        return count

    labels = {}
    for year in sorted({d.year for d in days}):
        idx = [i for i, d in enumerate(days) if d.year == year]
        first, last = days[idx[0]], days[idx[-1]]
        if (first.month, first.day, last.month, last.day) != (1, 1, 12, 31):
            continue
        start = None
        for i in idx:
            if typical_count(i, i + SEASON_WINDOW - 1) >= delta_n:
                start = i
                break
        end = None
        if start is not None:
            for i in reversed(idx):
                if i < start:
                    break
                if typical_count(i - SEASON_WINDOW + 1, i) >= delta_n:
                    end = i
                    break
        if start is None or end is None:
            labels[year] = (None, None)
        else:
            labels[year] = (start - idx[0] + 1, end - idx[0] + 1)
    return labels


def check_labels(program: dict, oracle: dict) -> list[str]:
    """The program's labels (year -> SeasonLabel) against the oracle's."""
    errors = []
    for year, (start, end) in oracle.items():
        lab = program.get(year)
        if lab is None or (lab.start_day, lab.end_day) != (start, end):
            errors.append(f"label {year}: program {lab} != oracle {(start, end)}")
    return errors


def wls_refit(z: np.ndarray, y: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """(b0, b1) of y = b0 + b1 z, weights 1/u^2, by lstsq on the sqrt(w)-scaled design."""
    sw = 1.0 / u
    design = np.stack([sw, sw * z], axis=1)
    coef, *_ = np.linalg.lstsq(design, sw * y, rcond=None)
    return float(coef[0]), float(coef[1])


def read_series_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    z = np.array([float(r["z"]) for r in rows])
    y = np.array([float(r["y_hat"]) for r in rows])
    u = np.array([float(r["u_hat"]) for r in rows])
    return z, y, u


def check_forecast_files(
    series_path: str, forecast_path: str, z_range: tuple[int, int]
) -> tuple[list[str], float, float]:
    """Refit the emitted series and compare with the emitted forecast.

    Returns the failures, the emitted y_star, and the last day's Stage-1
    estimate z + y_hat.
    """
    z, y, u = read_series_csv(series_path)
    with open(forecast_path) as fh:
        doc = json.load(fh)
    errors = []
    if list(z) != list(range(z_range[0], z_range[1] + 1)):
        errors.append(f"{series_path}: days {z[0]}..{z[-1]} != {z_range}")
    if doc["n_points"] != len(z):
        errors.append(f"{forecast_path}: n_points {doc['n_points']} != {len(z)}")
    b0, b1 = wls_refit(z, y, u)
    y_star = -b0 / b1
    for key, want in (("beta0", b0), ("beta1", b1), ("y_star", y_star)):
        if not close(doc[key], want, rtol=1e-7, atol=1e-7):
            errors.append(f"{forecast_path}: {key} {doc[key]!r} != lstsq {want!r}")
    return errors, float(doc["y_star"]), float(z[-1] + y[-1])


def check_window_stats(fm, raw: np.ndarray, references, rng: np.random.Generator,
                       feature_names, samples: int = 40) -> list[str]:
    """Spot-check trailing-window mean, max and n_above_ref against numpy.

    ``raw`` is the (days, 12) value matrix the feature rows were built from;
    row r of the feature tensor reads days r .. r+13.
    """
    i_mean = feature_names.index("mean")
    i_max = feature_names.index("max")
    i_ref = feature_names.index("n_above_ref")
    errors = []
    for _ in range(samples):
        r = int(rng.integers(len(fm)))
        s = int(rng.integers(raw.shape[1]))
        window = raw[r:r + 14, s]
        got = fm.values[r, :, s]
        want = (float(np.mean(window)), float(np.max(window)),
                float(np.count_nonzero(window > references[s])))
        if not (close(got[i_mean], want[0], rtol=1e-12) and got[i_max] == want[1]
                and got[i_ref] == want[2]):
            errors.append(f"window stats row {r} series {s}: "
                          f"{(got[i_mean], got[i_max], got[i_ref])} != {want}")
    return errors


def check_fit_curves(fits, predict_batch) -> list[str]:
    """Each fit's last training-curve value against the MSE of its model."""
    errors = []
    for k, fit in enumerate(fits):
        mse = float(np.mean((predict_batch(fit.result.model, fit.X) - fit.y) ** 2))
        last = float(fit.result.curve[-1])
        if not close(last, mse, rtol=1e-7, atol=1e-9):
            errors.append(f"fit {k}: curve end {last!r} != predict MSE {mse!r}")
    return errors


def mae(pairs: list[tuple[float, float]]) -> float:
    return sum(abs(a - b) for a, b in pairs) / len(pairs)


def check_backtest_report(report_dir: str, truths: dict) -> tuple[list[str], float, float]:
    """MAE recomputed from folds.csv and the oracle's truths, and the
    method properties: MAE <= stage-1 MAE + 1, sigma at full k <= sigma at k=5.

    Returns the failures, the Stage-3 MAE and the stage-1 MAE.
    """
    with open(f"{report_dir}/folds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(f"{report_dir}/report.json") as fh:
        report = json.load(fh)
    errors = []
    stage3, stage1 = [], []
    for row in rows:
        year = int(row["test_year"])
        truth = truths[year][0]
        if int(row["truth"]) != truth:
            errors.append(f"folds.csv {year}: truth {row['truth']} != oracle {truth}")
        stage3.append((float(row["y_star"]), truth))
        stage1.append((float(row["stage1_last_day"]), truth))
    got3, got1 = mae(stage3), mae(stage1)
    if not close(report["mae"], got3, rtol=1e-12):
        errors.append(f"report mae {report['mae']!r} != recomputed {got3!r}")
    if not close(report["stage1_mae"], got1, rtol=1e-12):
        errors.append(f"report stage1_mae {report['stage1_mae']!r} != recomputed {got1!r}")
    if not got3 <= got1 + 1.0:
        errors.append(f"MAE {got3} > stage-1 MAE {got1} + 1")
    for fold in report["folds"]:
        at5 = next(p for p in fold["trace"] if p["k"] == 5)["sigma_y_star"]
        full = fold["trace"][-1]["sigma_y_star"]
        if at5 is None or full is None or not full <= at5:
            errors.append(f"fold {fold['test_year']}: sigma full k {full} > sigma k=5 {at5}")
    return errors, got3, got1
