"""Rolling-window feature extraction.

Every day gets one feature row built from the trailing 14-day window of
each of the 12 series, 29 statistics per window.  Only past data enters a
row: predictions made on day d must not peek beyond d.  The statistic
catalog is fixed and versioned so serialized models can name the exact
layout they were trained on.

The rows come out flat, in the 349-column layout that both stages and
inference read: the statistics of each series in turn, then day-of-year.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, SERIES_NAMES
from .errors import DatasetTooShortError, NonFiniteError, WrongWindowLengthError

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

N_FEATURES = len(FEATURE_NAMES)  # 29

CATALOG_VERSION = "w14s29-v1"

#: Name of the last flat column, the day-of-year.
DOY_NAME = "day_of_year"

#: Days per statistics pass, 12 windows each: one pass covers a forecast's
#: or a training year's rows, and a long dataset's temporaries stay small.
_BLOCK_DAYS = 341


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den with the convention that a zero denominator yields 0."""
    zero = den == 0.0
    out = num / np.where(zero, 1.0, den)
    return np.where(zero, 0.0, out)


def _sorted_quantile(s: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(w, q, axis=1)`` (method ``linear``) of the rows of
    ``s = np.sort(w, axis=1)``, in the arithmetic of numpy's ``_lerp``:
    ``a + (b - a) * t``, or ``b - (b - a) * (1 - t)`` when ``t >= 0.5``."""
    virtual = (s.shape[1] - 1) * q
    i = math.floor(virtual)
    t = virtual - i
    a, b = s[:, i], s[:, min(i + 1, s.shape[1] - 1)]
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _sorted_median(s: np.ndarray) -> np.ndarray:
    """``np.median(w, axis=1)`` of the rows of ``s = np.sort(w, axis=1)``:
    as numpy does, the mean of the middle one or two."""
    half = s.shape[1] // 2
    return np.mean(s[:, half - 1 + s.shape[1] % 2 : half + 1], axis=1)


def _window_stats(windows: np.ndarray, references: np.ndarray) -> np.ndarray:
    """The 29 catalog statistics for each row of a (rows, 14) window matrix,
    with ``references[i]`` as row i's ``n_above_ref`` threshold."""
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
    # one sort serves the order statistics; a window holds no -0.0 (the
    # dataset matrix stores 0.0), so the sorted values equal numpy's
    # partitioned ones bit for bit
    ordered = np.sort(w, axis=1)
    q25 = _sorted_quantile(ordered, 0.25)
    q75 = _sorted_quantile(ordered, 0.75)
    # row by row, so a row's bits do not depend on the rows around it
    slope = (centered * t_centered).sum(axis=1) / s_tt
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
        _sorted_median(ordered),
        q25,
        q75,
        q75 - q25,
        wmax - wmin,
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
        (w > references[:, None]).sum(axis=1).astype(np.float64),
        ((diffs[:, :-1] * diffs[:, 1:]) < 0).sum(axis=1).astype(np.float64),
    ]
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class FeatureMatrix:
    """Flat Stage-1 feature rows and the date of the first.

    ``rows[r]`` describes the day ``start + r``: the 29 catalog statistics
    of series 1 over its window ending that day, then those of series 2,
    and so on, then the day-of-year (:func:`flat_feature_names`).
    ``references`` records the per-series count thresholds the rows were
    built with.
    """

    rows: np.ndarray
    start: dt.date
    references: tuple[float, ...]
    catalog_version: str = CATALOG_VERSION

    def __post_init__(self) -> None:
        if not np.isfinite(self.rows).all():
            raise NonFiniteError("feature rows contain non-finite values")

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def values(self) -> np.ndarray:
        """A read-only (rows, 29, 12) view of ``rows`` without the
        day-of-year: ``values[r, f, s]`` is statistic f of series s.  Only
        the benchmark's window-statistics check (``perfbench``) reads it."""
        return self.rows[:, :-1].reshape(
            len(self), len(SERIES_NAMES), N_FEATURES).transpose(0, 2, 1)


def build_feature_matrix(data: Dataset, references: Sequence[float]) -> FeatureMatrix:
    """Feature rows for every day with a full trailing window.

    Row r describes the day at dataset index ``r + 13``; its
    statistics read only that day and the 13 before it.  ``references``
    gives the ``n_above_ref`` threshold per series (pollen first); use the
    season concentration threshold for pollen and training-period means for
    covariates, computed from training years only so no future information
    leaks in.
    """
    refs = tuple(float(r) for r in references)
    if len(refs) != len(SERIES_NAMES):
        raise WrongWindowLengthError(
            f"need {len(SERIES_NAMES)} references, got {len(refs)}"
        )
    matrix = data.series_matrix()
    if matrix.shape[0] < WINDOW_LEN:
        raise DatasetTooShortError(
            f"need at least {WINDOW_LEN} days, got {matrix.shape[0]}"
        )

    # every (day, series) window of a block as one row, (days, 12, 14) ->
    # (days * 12, 14); each block is copied so that numpy reduces every window
    # as a contiguous row, pairwise like a lone window (the view would add
    # values one by one), and its statistics go straight into their rows
    windows = np.lib.stride_tricks.sliding_window_view(matrix, WINDOW_LEN, axis=0)
    n_rows, n_series = windows.shape[:2]
    rows = np.empty((n_rows, n_series * N_FEATURES + 1))
    block_refs = np.tile(refs, _BLOCK_DAYS)
    for lo in range(0, n_rows, _BLOCK_DAYS):
        block = windows[lo:lo + _BLOCK_DAYS]  # a view; its copy lives for one pass
        rows[lo:lo + len(block), :-1] = _window_stats(
            np.ascontiguousarray(block).reshape(-1, WINDOW_LEN),
            block_refs[:len(block) * n_series],
        ).reshape(len(block), -1)

    start = data.span[0] + dt.timedelta(days=WINDOW_LEN - 1)
    days = np.datetime64(start, "D") + np.arange(n_rows)
    rows[:, -1] = (days - days.astype("datetime64[Y]")).astype(np.int64) + 1
    rows.setflags(write=False)
    return FeatureMatrix(rows=rows, start=start, references=refs)


#: The flat columns of the ``n_above_ref`` statistic, one per series: the
#: only columns of a row whose values depend on the references.
COUNT_COLUMNS = (np.arange(len(SERIES_NAMES)) * N_FEATURES
                 + FEATURE_NAMES.index("n_above_ref"))


def count_above(data: Dataset, references: Sequence[float]) -> np.ndarray:
    """The :data:`COUNT_COLUMNS` of ``build_feature_matrix(data,
    references).rows``, a (rows, 12) array, bit for bit: each window's count
    of days above its series' reference."""
    windows = np.lib.stride_tricks.sliding_window_view(
        data.series_matrix(), WINDOW_LEN, axis=0)  # (rows, 12, 14)
    refs = np.asarray(references, dtype=np.float64)
    return (windows > refs[:, None]).sum(axis=2).astype(np.float64)


def flat_feature_names() -> tuple[str, ...]:
    """The names of the columns of :attr:`FeatureMatrix.rows`."""
    names = [
        f"{series}__{feat}" for series in SERIES_NAMES for feat in FEATURE_NAMES
    ]
    return (*names, DOY_NAME)
