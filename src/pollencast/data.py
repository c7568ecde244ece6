"""Daily pollen/weather datasets and customizable allergy-season labeling.

A :class:`Dataset` is matrix-first: it holds its first date, a read-only
(days x 12) value matrix and the dates that ingestion filled.  Its
:class:`DailyRecord` objects are built on first access and cached, so
reading a CSV, slicing a dataset and building features make none.
:func:`ingest_csv` reads a plain file's values with one ``np.loadtxt``
call, and falls back to ``csv.reader`` and ``float`` for any other file
and to name a bad file's first failing line.  It is the only module that
opens a file: every CSV table goes through :func:`write_table` (shortest
round-trip floats, an empty cell for ``None``, ``\n`` line ends), every
JSON document through :func:`json_text` (sorted keys, indent 2) and
:func:`parse_json` (a UTF-8 object without ``NaN`` or ``Infinity``).

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
import json
import math
import operator
import os
import stat
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Mapping, Sequence, TextIO

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
        # ingest_csv and Dataset.from_matrix check these rules on a whole
        # value matrix at once with _records_ok
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


class Dataset:
    """An immutable run of consecutive days, held as a matrix.

    A dataset holds its first date (``start``), a read-only (n_days, 12)
    float matrix in ``SERIES_NAMES`` order and the dates that ingestion
    filled (load metadata, not part of its identity).  ``Dataset(records)``
    takes consecutive :class:`DailyRecord` objects and keeps that tuple as
    ``records``.  A dataset made from a matrix (by :func:`ingest_csv`,
    :meth:`from_matrix` or a slice ``data[i:j]``) builds its records on
    first access to ``records`` and caches them.  The matrix holds a
    ``-0.0`` as ``0.0``, and so do the records, slices and CSV rows made
    from it; only the records given to ``Dataset(records)`` keep theirs.
    Two datasets are equal when their first dates and values are.
    Instances are safe to share across threads.
    """

    __slots__ = ("start", "filled_dates", "_matrix", "_records")

    def __init__(
        self, records: tuple[DailyRecord, ...], filled_dates: tuple[dt.date, ...] = ()
    ) -> None:
        if not records:
            raise InsufficientDataError("dataset has no records")
        prev = None
        for rec in records:
            if prev is not None and (rec.date - prev).days != 1:
                raise NonMonotoneDatesError(
                    f"records must be consecutive days; saw {prev} then {rec.date}"
                )
            prev = rec.date
        values = np.array([r.values() for r in records], dtype=np.float64)
        self._hold(records[0].date, values, filled_dates, records)

    @classmethod
    def from_matrix(cls, start: dt.date, values: np.ndarray) -> Dataset:
        """The days from ``start`` with the rows of an (n_days, 12) float
        matrix in ``SERIES_NAMES`` order.  The first row that breaks a
        :class:`DailyRecord` rule raises that record's error."""
        values = np.array(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(SERIES_NAMES):
            raise InvalidRecordError(
                f"need an (n_days, {len(SERIES_NAMES)}) matrix, got shape {values.shape}"
            )
        if not len(values):
            raise InsufficientDataError("dataset has no records")
        ok = _records_ok(values)
        if not ok.all():
            j = int(ok.argmin())
            DailyRecord(start + dt.timedelta(days=j), *values[j].tolist())  # raises
        return cls._of(start, values)

    @classmethod
    def _of(
        cls, start: dt.date, values: np.ndarray, filled_dates: tuple[dt.date, ...] = ()
    ) -> Dataset:
        """A dataset of checked ``values``; its records are built when read."""
        data = object.__new__(cls)
        data._hold(start, values, filled_dates, None)
        return data

    def _hold(
        self,
        start: dt.date,
        values: np.ndarray,
        filled_dates: tuple[dt.date, ...],
        records: tuple[DailyRecord, ...] | None,
    ) -> None:
        # -0.0 + 0.0 is 0.0: the max or min of a window holding both zeros
        # would otherwise take either sign by numpy's reduction path
        matrix = values + 0.0
        matrix.setflags(write=False)
        set_field = object.__setattr__
        set_field(self, "start", start)
        set_field(self, "filled_dates", filled_dates)
        set_field(self, "_matrix", matrix)
        set_field(self, "_records", records)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def records(self) -> tuple[DailyRecord, ...]:
        """One :class:`DailyRecord` per day, built on first access and cached."""
        if self._records is None:
            first = self.start.toordinal()
            days = map(dt.date.fromordinal, range(first, first + len(self)))
            records = tuple(map(DailyRecord, days, *self._matrix.T.tolist()))
            object.__setattr__(self, "_records", records)
        return self._records

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.start == other.start and np.array_equal(self._matrix, other._matrix)

    def __hash__(self) -> int:
        return hash((self.start, self._matrix.tobytes()))

    def __repr__(self) -> str:
        first, last = self.span
        return f"Dataset({first}..{last}, {len(self)} days, {len(self.filled_dates)} filled)"

    def __getitem__(self, days: slice) -> Dataset:
        """The days of a slice (step 1) as a dataset with no filled dates."""
        lo, hi, step = days.indices(len(self))
        if step != 1 or lo >= hi:
            raise InsufficientDataError(f"dataset slice {days} is empty or has a step")
        return Dataset._of(self.start + dt.timedelta(days=lo), self._matrix[lo:hi])

    @property
    def span(self) -> tuple[dt.date, dt.date]:
        return self.start, self.start + dt.timedelta(days=len(self) - 1)

    def __len__(self) -> int:
        return self._matrix.shape[0]

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
        """Whether every day of ``year`` is in the dataset; False for a year
        that ``datetime.date`` cannot hold."""
        first, last = self.span
        return (first.year <= year <= last.year
                and first <= dt.date(year, 1, 1) and dt.date(year, 12, 31) <= last)

    def years(self) -> tuple[int, ...]:
        """Calendar years fully covered by the dataset."""
        first, last = self.span
        return tuple(y for y in range(first.year, last.year + 1) if self.covers_year(y))


@dataclass(frozen=True)
class SeasonDefinition:
    """Patient-customizable season thresholds.

    ``delta_c``: minimum pollen concentration (grains/m3, exclusive) for a
    typical day.  ``delta_n``: minimum count of typical days within the
    ``SEASON_WINDOW_DAYS`` detection window.
    """

    delta_c: float
    delta_n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta_c) and self.delta_c > 0):
            raise InvalidRecordError(
                f"delta_c must be finite and positive, got {self.delta_c}"
            )
        if not 1 <= self.delta_n <= SEASON_WINDOW_DAYS:
            raise InvalidRecordError(
                f"delta_n must be in [1, {SEASON_WINDOW_DAYS}], got {self.delta_n}"
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


#: The bytes the fast parse reads: line feeds and printable ASCII other than
#: the double quote.  ``csv.reader`` gives a quote or a carriage return a
#: meaning of its own, and ``np.loadtxt`` reads a number padded with
#: \x1c-\x1f, which ``float`` refuses.
_PLAIN = bytes([10, *range(0x20, 0x7F)]).replace(b'"', b"")


#: The one-pass read of a row: the date's first 11 bytes, then the values.
#: ``np.loadtxt`` cuts a longer field to 11 bytes, one more than a strict
#: ``YYYY-MM-DD``, so a date that is too long still shows.
_ROW = np.dtype([("date", "S11"), ("values", "<f8", (len(SERIES_NAMES),))])

#: Where a ``YYYY-MM-DD`` date has its digits and its dashes.
_DIGIT_AT = [0, 1, 2, 3, 5, 6, 8, 9]
_DASH_AT = [4, 7]

#: The ordinal (``dt.date.toordinal``) of day 0 of ``datetime64[D]``.
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


def _iso_ordinals(dates: np.ndarray) -> np.ndarray | None:
    """The proleptic Gregorian ordinals (``dt.date.toordinal``) of an
    ``S11`` array of dates, or None unless every date is a strict
    ``YYYY-MM-DD`` of a day that exists, in year 1 or later."""
    raw = np.ascontiguousarray(dates).view(np.uint8).reshape(-1, 11)
    digits = raw[:, _DIGIT_AT] - np.uint8(ord("0"))  # other bytes wrap past 9
    if (digits > 9).any() or (raw[:, _DASH_AT] != ord("-")).any() or raw[:, 10].any():
        return None
    try:
        days = dates.astype("S10").astype("datetime64[D]")
    except ValueError:  # a month or day that does not exist
        return None
    ordinals = days.astype(np.int64) + _EPOCH_ORDINAL
    return None if (ordinals < 1).any() else ordinals  # year 0000


def _fast_rows(
    text: str, date_at: int, value_at: list[int]
) -> tuple[np.ndarray, np.ndarray] | None:
    """The date ordinals and the (n, 12) values of the lines after the first
    line of ``text``, read by one ``np.loadtxt`` call.

    None when the parse declines the text or ``np.loadtxt`` refuses it.  It
    declines anything that ``np.loadtxt`` might read otherwise than
    ``csv.reader``, ``dt.date.fromisoformat`` and ``float`` do: a byte
    outside :data:`_PLAIN`, a line longer than ``csv.field_size_limit()``,
    nothing but white space after the header, or a date that is not a
    strict ``YYYY-MM-DD`` (:func:`_iso_ordinals`), such as the
    ``YYYYMMDD`` and week dates that ``fromisoformat`` also reads.
    ``np.loadtxt`` refuses what ``float`` reads only with more grammar,
    such as ``1_000`` or non-ASCII digits, and a date column that is also
    read as a value.  Both readers skip empty lines only, and
    ``np.loadtxt`` keeps a date field's white space.
    """
    body = text.find("\n") + 1
    limit = csv.field_size_limit()
    if (
        not body
        or not text[body:].strip()
        or not text.isascii()
        or text.encode("ascii").translate(None, _PLAIN)
        or (len(text) > limit and max(map(len, text.split("\n"))) > limit)
    ):
        return None
    try:
        table = np.loadtxt(io.StringIO(text), dtype=_ROW, delimiter=",",
                           comments=None, skiprows=1,
                           usecols=[date_at, *value_at], ndmin=1)
    except ValueError:
        return None
    ordinals = _iso_ordinals(table["date"])
    return None if ordinals is None else (ordinals, table["values"])


def _tokenized_rows(
    reader, date_at: int, value_at: list[int]
) -> tuple[list[int], list[dt.date], np.ndarray, PollencastError | None]:
    """The rows that a ``csv.reader`` past the header reads, parsed with
    ``float`` up to the first line that cannot be read or parsed or holds a
    value that is not finite: each row's physical line, date and values, and
    that line's error (None when there is none)."""
    take = operator.itemgetter(*value_at)
    width = len(SERIES_NAMES)
    lines: list[int] = []
    dates: list[dt.date] = []
    values: list[float] = []  # row-major, 12 per line
    failure = None
    try:
        for row in reader:
            if not row:
                continue
            try:
                dates.append(dt.date.fromisoformat(row[date_at]))
                values.extend(map(float, take(row)))
                if not all(map(math.isfinite, values[-width:])):
                    raise ValueError
            except (IndexError, TypeError, ValueError):
                failure = _field_error(row, reader.line_num, date_at, value_at)
                break
            lines.append(reader.line_num)
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        failure = InvalidRecordError(f"line {reader.line_num}: {exc}")
    n = len(lines)
    del dates[n:], values[n * width:]
    return lines, dates, np.array(values).reshape(n, width), failure


def _row_checks(ordinals: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The missing days before each row after the first, and which rows
    break a :class:`DailyRecord` rule, are dated no later than the row
    before, or follow more than ``MAX_FILL_GAP_DAYS`` missing days."""
    gaps = np.diff(ordinals) - 1
    bad = ~_records_ok(m)
    bad[1:] |= (gaps < 0) | (gaps > MAX_FILL_GAP_DAYS)
    return gaps, bad


def _filled(ordinals: np.ndarray, m: np.ndarray, gaps: np.ndarray) -> Dataset:
    """The dataset of checked rows, each gap filled by repeating the row
    before it."""
    n = len(ordinals)
    first = int(ordinals[0])
    days = int(ordinals[-1]) - first + 1
    start = dt.date.fromordinal(first)
    if days == n:
        return Dataset._of(start, m)
    repeats = np.ones(n, dtype=np.intp)
    repeats[:-1] += gaps
    filled = np.ones(days, dtype=bool)
    filled[ordinals - first] = False
    filled_dates = map(dt.date.fromordinal, (np.flatnonzero(filled) + first).tolist())
    return Dataset._of(start, m[np.repeat(np.arange(n), repeats)], tuple(filled_dates))


def ingest_csv(path: str, column_map: Mapping[str, str] | None = None) -> Dataset:
    """Load a daily dataset from ``path``, validating and gap-filling.

    ``column_map`` maps canonical column names to the file's header names
    (identity by default); a header name that occurs twice reads its last
    column, as :class:`csv.DictReader` does.  Blank lines are skipped.
    Gaps of up to 3 consecutive missing days are forward-filled with the
    previous record's values; the filled dates are recorded on the returned
    dataset.  Longer gaps are an error.  A leading UTF-8 byte-order mark is
    skipped; a file that is not UTF-8, or longer than
    :data:`MAX_INPUT_BYTES`, raises :class:`InvalidRecordError`.

    The values of a plain file (ASCII, no quotes, ``\\n`` line ends) are
    read by one ``np.loadtxt`` call (:func:`_fast_rows`).  Any other file,
    or one that ``np.loadtxt`` refuses or whose rows break a rule, is read
    line by line with ``csv.reader`` and ``float``, which the fast parse
    must agree with.  Both routes feed the same checks and gap filling, and
    build no records: the dataset makes them when they are read.

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

    try:
        text = read_bytes(path, path).decode("utf-8-sig")
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

    fast = _fast_rows(text, date_at, value_at)
    if fast is not None:
        gaps, bad = _row_checks(*fast)
        if not bad.any():
            return _filled(*fast, gaps)

    # The tokenizer reads what the fast parse declined or refused, and
    # finds the physical line of a file's first error.
    lines, dates, m, failure = _tokenized_rows(reader, date_at, value_at)
    if not lines:
        raise failure or InsufficientDataError("dataset has no records")
    ordinals = np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64, count=len(dates))
    gaps, bad = _row_checks(ordinals, m)
    if bad.any():
        j = int(bad.argmax())
        # raises; + 0.0 names a -0.0 as the dataset would hold it, 0.0
        DailyRecord(dates[j], *(m[j] + 0.0).tolist())
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
    return _filled(ordinals, m, gaps)


def _cell(value: str | int | float | None) -> str:
    """One table cell: empty for ``None``, a string or an integer as it is,
    any other number as the shortest string that reads back as its float."""
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return repr(float(value))


def write_table(fh: TextIO, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write ``header``, then each of ``rows``, to ``fh`` as CSV lines: the
    cells (see :func:`_cell`) joined by ``,``, each line ended by ``\n``.

    Cells are not quoted, so none may hold a comma, a quote or a line end.
    """
    fh.write(",".join(header) + "\n")
    fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """:func:`write_table` into the UTF-8 file at ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_table(fh, header, rows)


def json_text(doc: object) -> str:
    """``doc`` as JSON: sorted keys, an indent of 2, no final line end."""
    return json.dumps(doc, sort_keys=True, indent=2)


def write_json(path: str, doc: object) -> None:
    """:func:`json_text` and a final ``\n`` into the UTF-8 file at ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json_text(doc) + "\n")


def parse_json(text: str | bytes, what: str) -> dict:
    """The JSON object of ``text`` (UTF-8, if bytes); any failure raises
    one :class:`InvalidRecordError` naming the document ``what``."""
    def refuse(constant: str) -> float:
        raise InvalidRecordError(f"{what}: non-finite number {constant}")

    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        doc = json.loads(text, parse_constant=refuse)
    except (ValueError, RecursionError) as exc:
        raise InvalidRecordError(f"{what} is not readable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidRecordError(f"{what} must hold a JSON object")
    return doc


#: The most bytes a reader takes from one file: about 350 times a default
#: model bundle and 700 years of CSV with 17-digit values.  A longer file
#: (or a path that never ends, such as ``/dev/zero``) is refused unparsed.
MAX_INPUT_BYTES = 64 * 2**20


def read_bytes(path: str, what: str) -> bytes:
    """The bytes of the file at ``path``; :class:`InvalidRecordError`,
    naming the document ``what``, past :data:`MAX_INPUT_BYTES`."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        # a regular file that fits is read whole, without a buffer the size
        # of the cap; anything else (a device, a pipe) up to a byte past it
        fits = stat.S_ISREG(info.st_mode) and info.st_size <= MAX_INPUT_BYTES
        data = fh.read() if fits else fh.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise InvalidRecordError(f"{what} is longer than {MAX_INPUT_BYTES} bytes")
    return data


def read_json(path: str, what: str) -> dict:
    """:func:`parse_json` of the bytes of the file at ``path``."""
    return parse_json(read_bytes(path, what), what)


def emit_csv(data: Dataset, path: str) -> None:
    """Write ``data`` in the canonical CSV schema.

    Floats are written in shortest round-trip form, so
    ``ingest_csv(emit_csv(d)) == d`` and repeated emissions are
    byte-identical.  The rows come from the dataset's matrix, so no
    records are built.
    """
    first = data.start.toordinal()
    days = map(dt.date.fromordinal, range(first, first + len(data)))
    write_csv(path, CSV_COLUMNS, ((day.isoformat(), *values) for day, values
                                  in zip(days, data.series_matrix().tolist())))


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
    ``SEASON_WINDOW_DAYS`` window (the day itself plus the following days) holds at
    least ``delta_n`` typical days; the end day is the latest day at or after
    the start whose trailing window does.  Windows may extend past the year
    into adjacent data; days beyond the dataset count as non-typical.
    """
    if not data.covers_year(year):
        raise InsufficientDataError(f"dataset does not fully cover year {year}")

    typical = data.pollen() > definition.delta_c
    leading, trailing = _typical_window_counts(typical, SEASON_WINDOW_DAYS)

    i0 = data.index_of(dt.date(year, 1, 1))
    i1 = data.index_of(dt.date(year, 12, 31))

    start_hits = np.nonzero(leading[i0 : i1 + 1] >= definition.delta_n)[0]
    if start_hits.size == 0:
        return SeasonLabel(year=year, start_day=None, end_day=None)
    start_off = int(start_hits[0])

    # No qualifying trailing window at-or-after the start can happen only
    # when the start sits within the last SEASON_WINDOW_DAYS - 1 days of the year
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
