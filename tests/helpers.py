"""Builders shared by the test modules."""

from __future__ import annotations

import contextlib
import datetime as dt
from typing import Sequence

import numpy as np
import pytest

from pollencast import pipeline
from pollencast.data import DailyRecord, Dataset, SeasonDefinition, SeasonLabel
from pollencast.errors import InsufficientDataError

#: Valid placeholder covariates for records whose weather does not matter.
NEUTRAL_WEATHER = dict(
    tmax=15.0,
    tmin=5.0,
    tavg=10.0,
    precip=0.0,
    humidity=60.0,
    wind_speed=3.0,
    pressure=1013.0,
    sunshine_hours=6.0,
    dew_point=4.0,
    cloud_cover=40.0,
    soil_temp=8.0,
)


@contextlib.contextmanager
def cores(n: int):
    """Train as if this process had ``n`` cores: the fit pool's size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_cores", lambda: n)
        yield


def make_record(date: dt.date, pollen: float, **overrides: float) -> DailyRecord:
    fields = dict(NEUTRAL_WEATHER)
    fields.update(overrides)
    return DailyRecord(date=date, pollen=pollen, **fields)


def dataset_from_pollen(pollen: Sequence[float], first_date: dt.date) -> Dataset:
    """Dataset with the given pollen series and neutral weather."""
    records = tuple(
        make_record(first_date + dt.timedelta(days=i), float(v))
        for i, v in enumerate(pollen)
    )
    return Dataset(records=records)


def year_dataset(pollen: Sequence[float], year: int = 2001) -> Dataset:
    """Single-year dataset; ``pollen`` must cover the year exactly."""
    first = dt.date(year, 1, 1)
    n_days = (dt.date(year, 12, 31) - first).days + 1
    if len(pollen) != n_days:
        raise ValueError(f"need {n_days} values for year {year}, got {len(pollen)}")
    return dataset_from_pollen(pollen, first)


def year_length(year: int) -> int:
    return (dt.date(year, 12, 31) - dt.date(year, 1, 1)).days + 1


def label_brute_force(data: Dataset, definition: SeasonDefinition, year: int) -> SeasonLabel:
    """Oracle version of ``pollencast.data.label_season``: a literal scan of
    every window.

    Same contract, no vectorization, no shortcuts.
    """
    if not data.covers_year(year):
        raise InsufficientDataError(f"dataset does not fully cover year {year}")

    n = len(data)

    def is_typical(idx: int) -> bool:
        if idx < 0 or idx >= n:
            return False
        return data.records[idx].pollen > definition.delta_c

    window = definition.window_days
    i0 = data.index_of(dt.date(year, 1, 1))
    i1 = data.index_of(dt.date(year, 12, 31))

    start_candidates = []
    for i in range(i0, i1 + 1):
        count = sum(1 for j in range(i, i + window) if is_typical(j))
        if count >= definition.delta_n:
            start_candidates.append(i)
    if not start_candidates:
        return SeasonLabel(year=year, start_day=None, end_day=None)
    start_idx = min(start_candidates)

    end_candidates = []
    for i in range(i0, i1 + 1):
        count = sum(1 for j in range(i - window + 1, i + 1) if is_typical(j))
        if count >= definition.delta_n and i >= start_idx:
            end_candidates.append(i)
    if not end_candidates:
        return SeasonLabel(year=year, start_day=None, end_day=None)
    end_idx = max(end_candidates)

    return SeasonLabel(year=year, start_day=start_idx - i0 + 1, end_day=end_idx - i0 + 1)


def reference_split_gains(
    V: np.ndarray, R: np.ndarray, node_mean: float, min_leaf: int
) -> np.ndarray:
    """Gain of the split after every position, in the plain expression the
    split kernel must reproduce bit for bit.

    ``V`` and ``R`` are (features, k) values and residuals, each row in that
    feature's ascending value order.  Illegal positions get -inf.
    """
    k = V.shape[1]
    centered = R - node_mean
    csum = np.cumsum(centered, axis=1)
    total = csum[:, -1:]
    n_left = np.arange(1, k, dtype=np.float64)
    n_right = k - n_left
    s_left = csum[:, :-1]
    s_right = total - s_left
    gain = s_left**2 / n_left + s_right**2 / n_right - total**2 / k
    valid = (V[:, :-1] < V[:, 1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    return np.where(valid, gain, -np.inf)


def reference_best_split(
    V: np.ndarray, R: np.ndarray, node_mean: float, min_leaf: int
) -> tuple[int, int, float]:
    """(feature, position, gain) chosen from :func:`reference_split_gains`:
    each feature's first best position, then the first best feature;
    (-1, -1, -inf) when no split is legal."""
    gain = reference_split_gains(V, R, node_mean, min_leaf)
    pos = np.argmax(gain, axis=1)
    best = gain[np.arange(V.shape[0]), pos]
    f = int(np.argmax(best))
    if not np.isfinite(best[f]):
        return -1, -1, -np.inf
    return f, int(pos[f]), float(best[f])
