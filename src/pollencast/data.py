"""Daily pollen/weather datasets and customizable allergy-season labeling.

A season is defined by two patient-specific thresholds: a day is "typical"
when its pollen concentration strictly exceeds ``delta_c``, and the season
starts on the earliest day whose 7-day leading window contains at least
``delta_n`` typical days.  The end date mirrors that rule with a trailing
window.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    GapTooLargeError,
    InsufficientDataError,
    InvalidRecordError,
    MissingColumnError,
    NonFiniteError,
    NonMonotoneDatesError,
    PollencastError,
)

#: Covariate columns, in canonical CSV order (pollen comes first).
COVARIATE_NAMES: tuple[str, ...] = (
    "tmax",
    "tmin",
    "tavg",
    "precip",
    "humidity",
    "wind_speed",
    "pressure",
    "sunshine_hours",
    "dew_point",
    "cloud_cover",
    "soil_temp",
)

#: All value series carried by a dataset: pollen plus the 11 covariates.
SERIES_NAMES: tuple[str, ...] = ("pollen",) + COVARIATE_NAMES

#: CSV header, canonical order.
CSV_COLUMNS: tuple[str, ...] = ("date",) + SERIES_NAMES

#: Maximum run of missing days that ingestion will forward-fill.
MAX_FILL_GAP_DAYS = 3

#: Length of the season-detection window, in days.
SEASON_WINDOW_DAYS = 7


@dataclass(frozen=True)
class DailyRecord:
    """One day of observations: pollen concentration plus 11 weather covariates.

    Units: pollen grains/m3, temperatures degC, precip mm, humidity and
    cloud_cover percent, wind m/s, pressure hPa, sunshine hours.
    """

    date: dt.date
    pollen: float
    tmax: float
    tmin: float
    tavg: float
    precip: float
    humidity: float
    wind_speed: float
    pressure: float
    sunshine_hours: float
    dew_point: float
    cloud_cover: float
    soil_temp: float

    def __post_init__(self) -> None:
        # ingest_csv checks these rules on all its lines at once with
        # _records_ok and makes its records without this method
        if not all(map(math.isfinite, self.values())):
            raise NonFiniteError(f"non-finite value in record for {self.date}")
        if self.pollen < 0:
            raise InvalidRecordError(f"{self.date}: pollen must be >= 0")
        for name, v in (("humidity", self.humidity), ("cloud_cover", self.cloud_cover)):
            if not 0.0 <= v <= 100.0:
                raise InvalidRecordError(f"{self.date}: {name}={v} outside [0, 100]")
        if not self.tmin <= self.tavg <= self.tmax:
            raise InvalidRecordError(
                f"{self.date}: requires tmin <= tavg <= tmax "
                f"({self.tmin}, {self.tavg}, {self.tmax})"
            )

    def values(self) -> tuple[float, ...]:
        """The 12 value fields in canonical series order (``SERIES_NAMES``)."""
        return (self.pollen, self.tmax, self.tmin, self.tavg, self.precip,
                self.humidity, self.wind_speed, self.pressure, self.sunshine_hours,
                self.dew_point, self.cloud_cover, self.soil_temp)


@dataclass(frozen=True)
class Dataset:
    """An immutable sequence of consecutive daily records.

    Dates are strictly increasing with no gaps; any gap handling happens at
    ingestion time.  Instances are safe to share across threads.  A float
    matrix view (days x 12 series) is precomputed for feature extraction.
    """

    records: tuple[DailyRecord, ...]
    #: Dates synthesized by gap-filling at ingestion; load metadata only,
    #: not part of dataset identity.
    filled_dates: tuple[dt.date, ...] = field(default=(), compare=False)
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.records:
            raise InsufficientDataError("dataset has no records")
        prev = None
        for rec in self.records:
            if prev is not None and (rec.date - prev).days != 1:
                raise NonMonotoneDatesError(
                    f"records must be consecutive days; saw {prev} then {rec.date}"
                )
            prev = rec.date
        self._keep_matrix(np.array([r.values() for r in self.records], dtype=np.float64))

    @classmethod
    def _checked(
        cls,
        records: tuple[DailyRecord, ...],
        filled_dates: tuple[dt.date, ...],
        matrix: np.ndarray,
    ) -> Dataset:
        """A dataset of consecutive ``records`` and their values as a fresh
        (n_days, 12) ``matrix``, both already checked by the caller."""
        data = object.__new__(cls)
        object.__setattr__(data, "records", records)
        object.__setattr__(data, "filled_dates", filled_dates)
        data._keep_matrix(matrix)
        return data

    def _keep_matrix(self, matrix: np.ndarray) -> None:
        # -0.0 + 0.0 is 0.0: the max or min of a window holding both zeros
        # would otherwise take either sign by numpy's reduction path
        matrix += 0.0
        matrix.setflags(write=False)
        object.__setattr__(self, "_matrix", matrix)

    @property
    def span(self) -> tuple[dt.date, dt.date]:
        return self.records[0].date, self.records[-1].date

    def __len__(self) -> int:
        return len(self.records)

    def index_of(self, date: dt.date) -> int:
        """Row index of ``date``; raises if outside the span."""
        first, last = self.span
        if not first <= date <= last:
            raise InsufficientDataError(f"{date} outside dataset span {first}..{last}")
        return (date - first).days

    def series_matrix(self) -> np.ndarray:
        """Read-only (n_days, 12) float matrix in canonical series order."""
        return self._matrix

    def pollen(self) -> np.ndarray:
        return self._matrix[:, 0]

    def covers_year(self, year: int) -> bool:
        first, last = self.span
        return first <= dt.date(year, 1, 1) and dt.date(year, 12, 31) <= last

    def years(self) -> tuple[int, ...]:
        """Calendar years fully covered by the dataset."""
        first, last = self.span
        return tuple(y for y in range(first.year, last.year + 1) if self.covers_year(y))


@dataclass(frozen=True)
class SeasonDefinition:
    """Patient-customizable season thresholds.

    ``delta_c``: minimum pollen concentration (grains/m3, exclusive) for a
    typical day.  ``delta_n``: minimum count of typical days within the
    7-day detection window.
    """

    delta_c: float
    delta_n: int
    window_days: int = SEASON_WINDOW_DAYS

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta_c) and self.delta_c > 0):
            raise InvalidRecordError(
                f"delta_c must be finite and positive, got {self.delta_c}"
            )
        if not 1 <= self.delta_n <= self.window_days:
            raise InvalidRecordError(
                f"delta_n must be in [1, {self.window_days}], got {self.delta_n}"
            )


@dataclass(frozen=True)
class SeasonLabel:
    """Per-year season boundaries as day-of-year, or absent when no season."""

    year: int
    start_day: int | None
    end_day: int | None

    def __post_init__(self) -> None:
        if (self.start_day is None) != (self.end_day is None):
            raise InvalidRecordError("start_day and end_day must be absent together")
        if self.start_day is not None and self.end_day is not None:
            if not 1 <= self.start_day <= self.end_day <= 366:
                raise InvalidRecordError(
                    f"invalid season bounds {self.start_day}..{self.end_day}"
                )

    @property
    def present(self) -> bool:
        return self.start_day is not None

    @property
    def length_days(self) -> int | None:
        if self.start_day is None or self.end_day is None:
            return None
        return self.end_day - self.start_day + 1

    def boundary(self, which: str) -> int | None:
        if which == "start":
            return self.start_day
        if which == "end":
            return self.end_day
        raise ValueError(f"boundary must be 'start' or 'end', got {which!r}")


# ---------------------------------------------------------------------------
# CSV ingestion / emission
# ---------------------------------------------------------------------------


#: The fields of a :class:`DailyRecord`, in order.
_RECORD_FIELDS: tuple[str, ...] = ("date",) + SERIES_NAMES


def _field_error(
    row: list[str], line: int, date_at: int, value_at: list[int]
) -> PollencastError | None:
    """The error of the first field of ``row`` that is not a date or a finite
    number, checked in the order date, then ``SERIES_NAMES``; a field past
    the end of a short row is ``None``."""

    def field(i: int) -> str | None:
        return row[i] if i < len(row) else None

    raw_date = field(date_at)
    try:
        dt.date.fromisoformat(raw_date)
    except (TypeError, ValueError):
        return NonMonotoneDatesError(f"line {line}: bad date {raw_date!r}")
    for name, i in zip(SERIES_NAMES, value_at):
        text = field(i)
        try:
            value = float(text)
        except (TypeError, ValueError):
            return NonFiniteError(f"line {line}: cannot parse {name}={text!r}")
        if not math.isfinite(value):
            return NonFiniteError(f"line {line}: {name}={text!r} is not finite")
    return None


def _records_ok(m: np.ndarray) -> np.ndarray:
    """Which rows of an (n, 12) value matrix pass the :class:`DailyRecord`
    rules, all rows at once."""
    pollen, tmax, tmin, tavg = m[:, 0], m[:, 1], m[:, 2], m[:, 3]
    humidity, cloud_cover = m[:, 5], m[:, 10]
    return (
        np.isfinite(m).all(axis=1)
        & (pollen >= 0)
        & (0.0 <= humidity) & (humidity <= 100.0)
        & (0.0 <= cloud_cover) & (cloud_cover <= 100.0)
        & (tmin <= tavg) & (tavg <= tmax)
    )


def ingest_csv(path: str, column_map: Mapping[str, str] | None = None) -> Dataset:
    """Load a daily dataset from ``path``, validating and gap-filling.

    ``column_map`` maps canonical column names to the file's header names
    (identity by default); a header name that occurs twice reads its last
    column, as :class:`csv.DictReader` does.  Blank lines are skipped.
    Gaps of up to 3 consecutive missing days are forward-filled with the
    previous record's values; the filled dates are recorded on the returned
    dataset.  Longer gaps are an error.  A leading UTF-8 byte-order mark is
    skipped; a file that is not UTF-8 raises :class:`InvalidRecordError`.

    A bad file raises the error of its first failing line, naming the
    line's physical number.  A line that the CSV reader cannot read (say,
    a field longer than ``csv.field_size_limit()``) raises
    :class:`InvalidRecordError`.  Within a line the checks run in this
    order: the date, then each value in ``SERIES_NAMES`` order (a field
    missing from a short row cannot be parsed), then the
    :class:`DailyRecord` rules, then the date against the previous line's
    (later, and at most 3 missing days between).
    """
    mapping = dict(column_map or {})
    header_for = {name: mapping.get(name, name) for name in CSV_COLUMNS}

    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidRecordError(f"{path} is not UTF-8: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        headers = next(reader, None) or []
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise InvalidRecordError(f"line {reader.line_num}: {exc}") from exc
    missing = [header_for[c] for c in CSV_COLUMNS if header_for[c] not in headers]
    if missing:
        raise MissingColumnError(f"missing columns in {path}: {', '.join(missing)}")
    column = {name: i for i, name in enumerate(headers)}  # the last one wins
    date_at = column[header_for["date"]]
    value_at = [column[header_for[name]] for name in SERIES_NAMES]
    take = operator.itemgetter(*value_at)

    # Parse every line; the checks then run on all of them at once.
    lines: list[int] = []
    dates: list[dt.date] = []
    values: list[float] = []  # row-major, 12 per line
    failure = None  # the error of the line after the last one kept
    try:
        for row in reader:
            if not row:
                continue
            try:
                dates.append(dt.date.fromisoformat(row[date_at]))
                values.extend(map(float, take(row)))
            except (IndexError, TypeError, ValueError):
                failure = _field_error(row, reader.line_num, date_at, value_at)
                break
            lines.append(reader.line_num)
    except csv.Error as exc:
        failure = InvalidRecordError(f"line {reader.line_num}: {exc}")
    del reader  # frees its copy of the text before the records are made
    n, width = len(lines), len(SERIES_NAMES)
    del dates[n:], values[n * width:]
    if not n:
        if failure is not None:
            raise failure
        return Dataset(records=())  # raises InsufficientDataError

    m = np.array(values).reshape(n, width)
    ordinals = np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64, count=n)
    gaps = np.diff(ordinals) - 1
    bad = ~_records_ok(m)
    bad[1:] |= (gaps < 0) | (gaps > MAX_FILL_GAP_DAYS)
    if bad.any():
        j = int(bad.argmax())
        if not np.isfinite(m[j]).all():
            # the message quotes the field as written: read the line again
            rows = (row for row in csv.reader(io.StringIO(text, newline="")) if row)
            row = next(itertools.islice(rows, j + 1, None))
            raise _field_error(row, lines[j], date_at, value_at)
        DailyRecord(dates[j], *values[j * width:(j + 1) * width])  # raises
        gap = int(gaps[j - 1])
        if gap < 0:
            raise NonMonotoneDatesError(
                f"line {lines[j]}: date {dates[j]} not after {dates[j - 1]}"
            )
        raise GapTooLargeError(
            f"{gap}-day gap before {dates[j]} exceeds "
            f"{MAX_FILL_GAP_DAYS}-day fill limit"
        )
    if failure is not None:
        raise failure

    # Repeat the line before each gap once per missing day.
    repeats = np.ones(n, dtype=np.intp)
    repeats[:-1] += gaps
    source = np.repeat(np.arange(n), repeats)
    first = int(ordinals[0])
    days = dates if source.size == n else list(
        map(dt.date.fromordinal, range(first, first + source.size)))
    records = []
    new, set_field, repeat = object.__new__, object.__setattr__, itertools.repeat
    for date, i in zip(days, source.tolist()):
        # _records_ok has run DailyRecord.__post_init__'s checks.  Setting
        # each field keeps the instance's compact layout, where filling
        # rec.__dict__ would give every record a dict of its own; any()
        # runs the map to its end, as object.__setattr__ returns None.
        rec = new(DailyRecord)
        row = values[i * width:(i + 1) * width]
        any(map(set_field, repeat(rec), _RECORD_FIELDS, (date, *row)))
        records.append(rec)
    filled = np.ones(source.size, dtype=bool)
    filled[ordinals - first] = False
    return Dataset._checked(
        tuple(records),
        tuple(days[k] for k in np.flatnonzero(filled).tolist()),
        m[source] if source.size > n else m,
    )


def emit_csv(data: Dataset, path: str) -> None:
    """Write ``data`` in the canonical CSV schema.

    Floats are written in shortest round-trip form, so
    ``ingest_csv(emit_csv(d)) == d`` and repeated emissions are
    byte-identical.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in data.records:
            writer.writerow(
                [rec.date.isoformat()] + [repr(float(v)) for v in rec.values()]
            )


# ---------------------------------------------------------------------------
# Season labeling
# ---------------------------------------------------------------------------


def _typical_window_counts(typical: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading/trailing window counts of typical days, zero-padded at edges.

    Days outside the dataset contribute zero, i.e. they are never typical.
    """
    padded = np.concatenate([np.zeros(window, dtype=np.int64),
                             typical.astype(np.int64),
                             np.zeros(window, dtype=np.int64)])
    cs = np.concatenate([[0], np.cumsum(padded)])
    n = typical.size
    idx = np.arange(n) + window
    leading = cs[idx + window] - cs[idx]
    trailing = cs[idx + 1] - cs[idx - window + 1]
    return leading, trailing


def label_season(data: Dataset, definition: SeasonDefinition, year: int) -> SeasonLabel:
    """Label the allergy season of ``year`` under ``definition``.

    The start day is the earliest day of the year whose leading
    ``window_days`` window (the day itself plus the following days) holds at
    least ``delta_n`` typical days; the end day is the latest day at or after
    the start whose trailing window does.  Windows may extend past the year
    into adjacent data; days beyond the dataset count as non-typical.
    """
    if not data.covers_year(year):
        raise InsufficientDataError(f"dataset does not fully cover year {year}")

    typical = data.pollen() > definition.delta_c
    leading, trailing = _typical_window_counts(typical, definition.window_days)

    i0 = data.index_of(dt.date(year, 1, 1))
    i1 = data.index_of(dt.date(year, 12, 31))

    start_hits = np.nonzero(leading[i0 : i1 + 1] >= definition.delta_n)[0]
    if start_hits.size == 0:
        return SeasonLabel(year=year, start_day=None, end_day=None)
    start_off = int(start_hits[0])

    # No qualifying trailing window at-or-after the start can happen only
    # when the start sits within the last window_days - 1 days of the year
    # and the qualifying days spill into the next year; the season is then
    # absent for this year.
    end_hits = np.nonzero(trailing[i0 + start_off : i1 + 1] >= definition.delta_n)[0]
    if end_hits.size == 0:
        return SeasonLabel(year=year, start_day=None, end_day=None)
    end_off = start_off + int(end_hits[-1])

    return SeasonLabel(year=year, start_day=start_off + 1, end_day=end_off + 1)


def label_years(
    data: Dataset, definition: SeasonDefinition, years: Iterable[int] | None = None
) -> dict[int, SeasonLabel]:
    """Labels for each requested year (default: every fully covered year)."""
    ys = tuple(years) if years is not None else data.years()
    return {y: label_season(data, definition, y) for y in ys}
