"""Rolling-window feature extraction.

Every day gets one feature row built from the trailing 14-day window of
each of the 12 series, 30 statistics per window.  Only past data enters a
row: predictions made on day d must not peek beyond d.  The statistic
catalog is fixed and versioned so serialized models can name the exact
layout they were trained on.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, SERIES_NAMES
from .errors import (
    DatasetTooShortError,
    IndexOutOfRangeError,
    NonFiniteError,
    WrongWindowLengthError,
)

WINDOW_LEN = 14

#: Catalog order is load-bearing: serialized models reference it by version.
FEATURE_NAMES: tuple[str, ...] = (
    "mean",
    "std",
    "min",
    "max",
    "median",
    "q25",
    "q75",
    "iqr",
    "range",
    "sum",
    "first",
    "last",
    "delta",
    "slope",
    "intercept",
    "mean_abs_diff",
    "max_diff",
    "std_diff",
    "autocorr1",
    "skewness",
    "kurtosis",
    "rms",
    "n_above_mean",
    "argmax",
    "argmin",
    "ewma",
    "mean_last3",
    "mean_first3",
    "n_above_ref",
    "diff_sign_flips",
)

N_FEATURES = len(FEATURE_NAMES)  # 30

CATALOG_VERSION = "w14s30-v1"

#: Appended column name when day-of-year is included.
DOY_NAME = "day_of_year"


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den with the convention that a zero denominator yields 0."""
    zero = den == 0.0
    out = num / np.where(zero, 1.0, den)
    return np.where(zero, 0.0, out)


def _window_stats(windows: np.ndarray, reference: float) -> np.ndarray:
    """The 30 catalog statistics for each row of a (rows, 14) window matrix."""
    w = windows
    n = w.shape[1]
    t = np.arange(n, dtype=np.float64)
    t_centered = t - t.mean()
    s_tt = float((t_centered**2).sum())

    mean = w.mean(axis=1)
    centered = w - mean[:, None]
    m2 = (centered**2).mean(axis=1)
    m3 = (centered**3).mean(axis=1)
    m4 = (centered**4).mean(axis=1)
    std = np.sqrt(m2)
    wmin = w.min(axis=1)
    wmax = w.max(axis=1)
    q25 = np.quantile(w, 0.25, axis=1)
    q75 = np.quantile(w, 0.75, axis=1)
    slope = centered @ t_centered / s_tt
    intercept = mean - slope * t.mean()
    diffs = np.diff(w, axis=1)
    autocorr = _safe_ratio(
        (centered[:, :-1] * centered[:, 1:]).sum(axis=1), (centered**2).sum(axis=1)
    )
    skewness = _safe_ratio(m3, m2**1.5)
    kurtosis = _safe_ratio(m4, m2**2) - np.where(m2 == 0.0, 0.0, 3.0)

    ewma = w[:, 0].copy()
    for i in range(1, n):
        ewma = 0.3 * w[:, i] + 0.7 * ewma

    cols = [
        mean,
        std,
        wmin,
        wmax,
        np.median(w, axis=1),
        q25,
        q75,
        q75 - q25,
        wmax - wmin,
        w.sum(axis=1),
        w[:, 0],
        w[:, -1],
        w[:, -1] - w[:, 0],
        slope,
        intercept,
        np.abs(diffs).mean(axis=1),
        diffs.max(axis=1),
        diffs.std(axis=1),
        autocorr,
        skewness,
        kurtosis,
        np.sqrt((w**2).mean(axis=1)),
        (w > mean[:, None]).sum(axis=1).astype(np.float64),
        w.argmax(axis=1).astype(np.float64),
        w.argmin(axis=1).astype(np.float64),
        ewma,
        w[:, -3:].mean(axis=1),
        w[:, :3].mean(axis=1),
        (w > reference).sum(axis=1).astype(np.float64),
        ((diffs[:, :-1] * diffs[:, 1:]) < 0).sum(axis=1).astype(np.float64),
    ]
    return np.stack(cols, axis=1)


def window_features(window: Sequence[float], reference: float = 0.0) -> np.ndarray:
    """The 30 catalog statistics of one 14-value window, in catalog order.

    ``reference`` is the series threshold behind the ``n_above_ref`` count.
    """
    arr = np.asarray(window, dtype=np.float64)
    if arr.shape != (WINDOW_LEN,):
        raise WrongWindowLengthError(
            f"window must have exactly {WINDOW_LEN} values, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise NonFiniteError("window contains non-finite values")
    return _window_stats(arr[None, :], reference)[0]


@dataclass(frozen=True)
class FeatureMatrix:
    """Day x feature x series tensor plus the date each row describes.

    ``values[r, f, s]`` is catalog statistic f of series s over the window
    ending on ``dates[r]``.  ``references`` records the per-series count
    thresholds the rows were built with.
    """

    values: np.ndarray
    dates: tuple[dt.date, ...]
    references: tuple[float, ...]
    catalog_version: str = CATALOG_VERSION

    def __post_init__(self) -> None:
        n, f, s = self.values.shape
        if f != N_FEATURES or s != len(SERIES_NAMES):
            raise WrongWindowLengthError(
                f"feature tensor must be N x {N_FEATURES} x {len(SERIES_NAMES)}, "
                f"got {self.values.shape}"
            )
        if n != len(self.dates):
            raise WrongWindowLengthError("one date per row required")
        if not np.isfinite(self.values).all():
            raise NonFiniteError("feature tensor contains non-finite values")

    def __len__(self) -> int:
        return self.values.shape[0]

    def row_for_date(self, date: dt.date) -> int:
        first = self.dates[0]
        idx = (date - first).days
        if idx < 0 or idx >= len(self.dates):
            raise IndexOutOfRangeError(f"{date} has no feature row")
        return idx


def build_feature_matrix(
    data: Dataset,
    references: Sequence[float],
    window_len: int = WINDOW_LEN,
) -> FeatureMatrix:
    """Feature tensor for every day with a full trailing window.

    Row r describes the day at dataset index ``r + window_len - 1``; its
    statistics read only that day and the 13 before it.  ``references``
    gives the ``n_above_ref`` threshold per series (pollen first); use the
    season concentration threshold for pollen and training-period means for
    covariates, computed from training years only so no future information
    leaks in.
    """
    if window_len != WINDOW_LEN:
        raise WrongWindowLengthError(f"window_len is fixed at {WINDOW_LEN}")
    refs = tuple(float(r) for r in references)
    if len(refs) != len(SERIES_NAMES):
        raise WrongWindowLengthError(
            f"need {len(SERIES_NAMES)} references, got {len(refs)}"
        )
    matrix = data.series_matrix()
    if matrix.shape[0] < window_len:
        raise DatasetTooShortError(
            f"need at least {window_len} days, got {matrix.shape[0]}"
        )

    per_series = []
    for s in range(len(SERIES_NAMES)):
        windows = np.lib.stride_tricks.sliding_window_view(matrix[:, s], window_len)
        per_series.append(_window_stats(windows, refs[s]))
    values = np.stack(per_series, axis=2)
    values.setflags(write=False)

    first, _ = data.span
    offset = window_len - 1
    dates = tuple(
        first + dt.timedelta(days=offset + r) for r in range(values.shape[0])
    )
    return FeatureMatrix(values=values, dates=dates, references=refs)


def _doy(date: dt.date) -> float:
    return float(date.timetuple().tm_yday)


def flatten_row(m: FeatureMatrix, day: int) -> np.ndarray:
    """One flat feature vector: series-major concatenation, then day-of-year.

    Layout: series 1 features 1..30, series 2 features 1..30, and so on;
    the day-of-year is the last entry.
    """
    if not 0 <= day < len(m):
        raise IndexOutOfRangeError(f"row {day} outside 0..{len(m) - 1}")
    return np.concatenate([m.values[day].T.reshape(-1), [_doy(m.dates[day])]])


def flatten_all(m: FeatureMatrix) -> np.ndarray:
    """All rows flattened at once; row r equals ``flatten_row(m, r)``."""
    flat = m.values.transpose(0, 2, 1).reshape(len(m), -1)
    doy = np.array([_doy(d) for d in m.dates], dtype=np.float64)
    return np.concatenate([flat, doy[:, None]], axis=1)


def flat_feature_names() -> tuple[str, ...]:
    """Column names matching :func:`flatten_row` order."""
    names = [
        f"{series}__{feat}" for series in SERIES_NAMES for feat in FEATURE_NAMES
    ]
    return (*names, DOY_NAME)


def emit_feature_csv(m: FeatureMatrix, path: str) -> None:
    """Write the flattened matrix for inspection, one row per day."""
    flat = flatten_all(m)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(flat_feature_names())
        for row in flat:
            writer.writerow([repr(float(v)) for v in row])
