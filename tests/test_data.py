import ast
import csv
import datetime as dt
import hashlib
import io
import math
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import pollencast
from pollencast.data import (
    CSV_COLUMNS,
    SERIES_NAMES,
    DailyRecord,
    Dataset,
    SeasonDefinition,
    SeasonLabel,
    emit_csv,
    _row_checks,
    _fast_rows,
    ingest_csv,
    label_season,
    label_years,
    read_bytes,
)
from pollencast import data as data_module
from pollencast.errors import (
    GapTooLargeError,
    InsufficientDataError,
    InvalidRecordError,
    MissingColumnError,
    NonFiniteError,
    NonMonotoneDatesError,
    PollencastError,
)
from pollencast.synth import generate_synthetic

from helpers import (
    dataset_from_pollen,
    label_brute_force,
    make_record,
    reference_ingest_csv,
    year_dataset,
    year_length,
)


# ---------------------------------------------------------------------------
# Record and dataset invariants
# ---------------------------------------------------------------------------


class TestDailyRecord:
    def test_valid_record(self):
        rec = make_record(dt.date(2020, 3, 1), 50.0)
        assert rec.pollen == 50.0

    def test_negative_pollen_rejected(self):
        with pytest.raises(InvalidRecordError):
            make_record(dt.date(2020, 3, 1), -1.0)

    @pytest.mark.parametrize("field", ["humidity", "cloud_cover"])
    @pytest.mark.parametrize("value", [-0.1, 100.1])
    def test_percent_fields_bounded(self, field, value):
        with pytest.raises(InvalidRecordError):
            make_record(dt.date(2020, 3, 1), 0.0, **{field: value})

    def test_temperature_ordering_enforced(self):
        with pytest.raises(InvalidRecordError):
            make_record(dt.date(2020, 3, 1), 0.0, tmin=12.0, tavg=10.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            make_record(dt.date(2020, 3, 1), 0.0, precip=bad)

    def test_values_order_matches_csv_schema(self):
        rec = make_record(dt.date(2020, 3, 1), 7.0)
        assert len(rec.values()) == 12
        assert rec.values()[0] == rec.pollen
        assert CSV_COLUMNS[0] == "date"
        assert CSV_COLUMNS[1] == "pollen"


#: A valid record's values, in ``SERIES_NAMES`` order.
NEUTRAL_ROW = make_record(dt.date(2020, 1, 1), 5.0).values()


class TestDataset:
    def test_gap_rejected(self):
        recs = (
            make_record(dt.date(2020, 3, 1), 0.0),
            make_record(dt.date(2020, 3, 3), 0.0),
        )
        with pytest.raises(NonMonotoneDatesError):
            Dataset(records=recs)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            Dataset(records=())

    def test_index_of(self):
        data = dataset_from_pollen([0.0] * 10, dt.date(2020, 3, 1))
        assert data.index_of(dt.date(2020, 3, 1)) == 0
        assert data.index_of(dt.date(2020, 3, 10)) == 9
        with pytest.raises(InsufficientDataError):
            data.index_of(dt.date(2020, 3, 11))

    def test_years_requires_full_coverage(self):
        data = dataset_from_pollen([0.0] * 400, dt.date(2019, 12, 1))
        assert data.years() == (2020,)

    def test_matrix_is_read_only(self):
        data = dataset_from_pollen([1.0, 2.0], dt.date(2020, 3, 1))
        with pytest.raises(ValueError):
            data.series_matrix()[0, 0] = 5.0

    def test_records_given_are_kept(self):
        recs = tuple(make_record(dt.date(2020, 3, 1) + dt.timedelta(k), 1.0)
                     for k in range(3))
        assert Dataset(records=recs).records is recs

    def test_records_built_once_from_the_matrix(self):
        data = Dataset.from_matrix(dt.date(2020, 2, 28), np.tile(NEUTRAL_ROW, (3, 1)))
        assert data.records is data.records
        assert [r.date for r in data.records] == [
            dt.date(2020, 2, 28), dt.date(2020, 2, 29), dt.date(2020, 3, 1)]
        assert all(r.values() == NEUTRAL_ROW for r in data.records)

    def test_from_matrix_raises_the_first_bad_record_error(self):
        m = np.tile(NEUTRAL_ROW, (4, 1))
        m[3, 5] = 101.0  # humidity
        m[2, 0] = -1.0  # pollen
        with pytest.raises(InvalidRecordError, match=r"^2020-03-03: pollen must be >= 0$"):
            Dataset.from_matrix(dt.date(2020, 3, 1), m)
        with pytest.raises(InsufficientDataError):
            Dataset.from_matrix(dt.date(2020, 3, 1), np.empty((0, 12)))
        with pytest.raises(InvalidRecordError):
            Dataset.from_matrix(dt.date(2020, 3, 1), np.ones((2, 11)))

    def test_slice_is_the_dataset_of_its_records(self):
        data = dataset_from_pollen([0.0, -0.0, 2.0, 3.0, 4.0], dt.date(2020, 3, 1))
        part = data[1:4]
        assert part == Dataset(records=data.records[1:4])
        assert part.span == (dt.date(2020, 3, 2), dt.date(2020, 3, 4))
        assert part.series_matrix().tobytes() == data.series_matrix()[1:4].tobytes()
        assert math.copysign(1.0, part.records[0].pollen) == 1.0  # from the matrix
        for empty_or_strided in (slice(2, 2), slice(0, 4, 2)):
            with pytest.raises(InsufficientDataError):
                data[empty_or_strided]

    def test_equality_and_hash_follow_first_date_and_values(self):
        data = dataset_from_pollen([1.0, 0.0], dt.date(2020, 3, 1))
        same = Dataset.from_matrix(dt.date(2020, 3, 1), data.series_matrix())
        assert data == same and hash(data) == hash(same)
        assert data == dataset_from_pollen([1.0, -0.0], dt.date(2020, 3, 1))
        assert data != dataset_from_pollen([1.0, 0.5], dt.date(2020, 3, 1))
        assert data != dataset_from_pollen([1.0, 0.0], dt.date(2020, 3, 2))

    def test_immutable(self):
        data = dataset_from_pollen([1.0], dt.date(2020, 3, 1))
        with pytest.raises(AttributeError):
            data.start = dt.date(2021, 3, 1)

    def test_year_outside_date_range_not_covered(self):
        data = dataset_from_pollen([0.0] * 400, dt.date(2019, 12, 1))
        for year in (0, -5, 10_000, 10**20):
            assert not data.covers_year(year)
            with pytest.raises(InsufficientDataError):
                label_season(data, SeasonDefinition(delta_c=1.0, delta_n=1), year)


# ---------------------------------------------------------------------------
# CSV ingestion and emission
# ---------------------------------------------------------------------------


def write_csv(path, rows, header=None):
    lines = [",".join(header or CSV_COLUMNS)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def full_row(date, pollen=5.0):
    return [
        date,
        pollen,
        15.0,
        5.0,
        10.0,
        0.0,
        60.0,
        3.0,
        1013.0,
        6.0,
        4.0,
        40.0,
        8.0,
    ]


class TestReadBytes:
    def test_regular_file_at_and_past_the_cap(self, tmp_path, monkeypatch):
        # a regular file is read whole up to the cap, and refused past it
        monkeypatch.setattr(data_module, "MAX_INPUT_BYTES", 10)
        path = tmp_path / "f"
        path.write_bytes(b"0123456789")
        assert read_bytes(str(path), "f") == b"0123456789"
        path.write_bytes(b"0123456789a")
        with pytest.raises(InvalidRecordError, match="^f is longer than 10 bytes$"):
            read_bytes(str(path), "f")


class TestIngestCsv:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [full_row("2020-03-01"), full_row("2020-03-02")])
        data = ingest_csv(str(path))
        assert len(data) == 2
        assert data.filled_dates == ()

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        header = [c for c in CSV_COLUMNS if c != "wind_speed"]
        rows = [full_row("2020-03-01")[:7] + full_row("2020-03-01")[8:]]
        write_csv(path, rows, header=header)
        with pytest.raises(MissingColumnError):
            ingest_csv(str(path))

    def test_gap_too_large(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [full_row("2020-03-01"), full_row("2020-03-06")])
        with pytest.raises(GapTooLargeError):
            ingest_csv(str(path))

    def test_small_gap_forward_filled(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [full_row("2020-03-01", 9.0), full_row("2020-03-04", 2.0)])
        data = ingest_csv(str(path))
        assert len(data) == 4
        assert data.filled_dates == (dt.date(2020, 3, 2), dt.date(2020, 3, 3))
        assert data.records[1].pollen == 9.0
        assert data.records[2].pollen == 9.0
        assert data.records[3].pollen == 2.0

    def test_broken_rule_names_negative_zero_as_zero(self, tmp_path):
        # the dataset holds a -0.0 as 0.0, and so does the error's message
        path = tmp_path / "d.csv"
        row = full_row("2020-03-01")
        row[2:5] = "2.0", "1.0", "-0.0"  # tmax, tmin, tavg
        write_csv(path, [row])
        with pytest.raises(InvalidRecordError, match=r"\(1\.0, 0\.0, 2\.0\)$"):
            ingest_csv(str(path))

    def test_non_monotone_dates(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [full_row("2020-03-02"), full_row("2020-03-01")])
        with pytest.raises(NonMonotoneDatesError):
            ingest_csv(str(path))

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "d.csv"
        row = full_row("2020-03-01")
        row[1] = "oops"
        write_csv(path, [row])
        with pytest.raises(NonFiniteError):
            ingest_csv(str(path))

    def test_nan_value(self, tmp_path):
        path = tmp_path / "d.csv"
        row = full_row("2020-03-01")
        row[4] = "nan"
        write_csv(path, [row])
        with pytest.raises(NonFiniteError):
            ingest_csv(str(path))

    def test_column_map(self, tmp_path):
        path = tmp_path / "d.csv"
        header = ["day" if c == "date" else c for c in CSV_COLUMNS]
        write_csv(path, [full_row("2020-03-01")], header=header)
        data = ingest_csv(str(path), column_map={"date": "day"})
        assert len(data) == 1

    def test_round_trip_idempotent(self, tmp_path):
        rng = np.random.default_rng(3)
        data = dataset_from_pollen(
            rng.uniform(0, 500, size=60).round(4), dt.date(2020, 3, 1)
        )
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_csv(data, str(p1))
        again = ingest_csv(str(p1))
        assert again == data
        emit_csv(again, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        emit_csv(dataset_from_pollen([1.0, 2.0], dt.date(2020, 3, 1)), str(path))
        plain = ingest_csv(str(path))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert ingest_csv(str(path)) == plain

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        emit_csv(dataset_from_pollen([1.0, 2.0], dt.date(2020, 3, 1)), str(path))
        path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
        with pytest.raises(InvalidRecordError, match="d.csv is not UTF-8"):
            ingest_csv(str(path))

    def test_error_names_physical_line(self, tmp_path):
        path = tmp_path / "d.csv"
        bad = full_row("2020-03-03")
        bad[5] = "oops"
        write_csv(path, [full_row("2020-03-01"), "", "", full_row("2020-03-02"), bad])
        with pytest.raises(NonFiniteError, match=r"^line 6: cannot parse precip='oops'$"):
            ingest_csv(str(path))

    @pytest.mark.parametrize("where,line", [("header", 1), ("row", 4)])
    def test_field_over_csv_limit_names_its_line(self, tmp_path, where, line):
        path = tmp_path / "d.csv"
        huge = "1" * 200_000  # over csv.field_size_limit()
        bad = full_row("2020-03-02", huge if where == "row" else 5.0)
        header = [*CSV_COLUMNS, huge] if where == "header" else None
        write_csv(path, [full_row("2020-03-01"), "", bad], header=header)
        with pytest.raises(InvalidRecordError,
                           match=rf"^line {line}: field larger than field limit"):
            ingest_csv(str(path))

    def test_duplicated_header_reads_last_column(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [["junk"] + full_row("2020-03-01", 7.0)],
                  header=["pollen", *CSV_COLUMNS])
        assert ingest_csv(str(path)).records[0].pollen == 7.0

    def test_negative_zero_read_as_zero(self, tmp_path):
        # a dataset holds one matrix: its records and its CSV rows read it
        path = tmp_path / "d.csv"
        write_csv(path, [full_row("2020-03-01", "-0"), full_row("2020-03-03", 1.0)])
        data = ingest_csv(str(path))
        assert [math.copysign(1.0, r.pollen) for r in data.records] == [1.0, 1.0, 1.0]
        assert not np.signbit(data.series_matrix()).any()
        out = tmp_path / "out.csv"
        emit_csv(data, str(out))
        assert out.read_text().splitlines()[1].split(",")[1] == "0.0"
        given = (make_record(dt.date(2020, 3, 1), -0.0),)
        assert Dataset(records=given).records is given
        assert not np.signbit(Dataset(records=given).series_matrix()).any()

    def test_round_trip_after_fill(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [full_row("2020-03-01", 9.0), full_row("2020-03-04", 2.0)])
        data = ingest_csv(str(path))
        out = tmp_path / "out.csv"
        emit_csv(data, str(out))
        assert ingest_csv(str(out)) == data


#: Text that never parses as a date or as a finite number.
BAD_DATES = ("2020-02-30", "yesterday", "", "2020/03/01", "0000-01-01",
             "1900-02-29", "2021-04-31", "2021-06-31", "2021-09-31",
             "2021-11-31", "2021-13-01", "2021-00-10", "2021-01-00")
BAD_NUMBERS = ("oops", "nan", "inf", "-Infinity", "1e999", "", "1.5.2")
FAULTS = ("short_row", "bad_date", "bad_number", "negative_pollen",
          "percent_out_of_range", "tmin_above_tavg", "repeated_date",
          "earlier_date", "field_over_csv_limit", "other_date_form")
#: First days of a file, before a shift of 0-20 days: the first and the
#: last days a date can have, the end of February in a year that is not a
#: leap year (1900) and in one that is (2000), and the end of April.
FIRST_DAYS = (dt.date(2019, 12, 25), dt.date.min, dt.date(1900, 2, 20),
              dt.date(2000, 2, 20), dt.date(2021, 4, 20), dt.date(9999, 11, 29))


def _other_date_form(rng: random.Random, day: dt.date) -> str:
    """``day`` written otherwise than as a strict ``YYYY-MM-DD``: as
    ``YYYYMMDD`` or a week date, which ``dt.date.fromisoformat`` reads from
    Python 3.11 on, or padded or with short fields, which it refuses."""
    year, week, weekday = day.isocalendar()
    return rng.choice([
        f"{day.year:04d}{day.month:02d}{day.day:02d}",
        f"{year:04d}-W{week:02d}-{weekday}",
        f"{year:04d}W{week:02d}{weekday}",
        f" {day.isoformat()}",
        f"{day.isoformat()} ",
        f"0{day.isoformat()}",
        f"{day.year}-{day.month}-{day.day}",
        day.isoformat()[:-1],
    ])


def _value_text(rng: random.Random, v: float, plain: bool = False) -> str:
    """``v`` written in one of the ways ``float`` reads; never with ``_``
    when ``plain``."""
    if v == 0.0 and rng.random() < 0.3:
        return rng.choice(["-0", "-0.0", "0", "+0.0"])
    if not plain and v == int(v) and abs(v) < 1e6 and rng.random() < 0.2:
        return f"{int(v):_}"  # 1_000
    return rng.choice(["{!r}", " {!r}", "{!r} ", "{:.3f}", "{:e}"]).format(v)


def _valid_values(rng: random.Random) -> list[float]:
    """12 values, in ``SERIES_NAMES`` order, that make a valid record."""
    tmin, tavg, tmax = sorted(round(rng.uniform(-10, 35), rng.choice([0, 2])) for _ in "abc")
    v = {name: round(rng.gauss(5.0, 20.0), rng.choice([0, 1, 6])) for name in SERIES_NAMES}
    v.update(
        pollen=rng.choice([0.0, 1000.0, round(rng.uniform(0, 500), 2)]),
        tmin=tmin, tavg=tavg, tmax=tmax,
        humidity=rng.choice([0.0, 100.0, round(rng.uniform(0, 100), 1)]),
        cloud_cover=rng.choice([0.0, 100.0, round(rng.uniform(0, 100), 1)]),
    )
    return [v[name] for name in SERIES_NAMES]


@st.composite
def csv_files(draw):
    """CSV text and the column map to read it with: any column order,
    extra and duplicated columns, blank lines, a byte-order mark, quoted
    fields and gaps of 1-5 days, and up to two faults put into its lines.
    About half the files are plain (no quotes, ``\n`` line ends and no
    ``_`` in a number), which the fast parse reads."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    plain = draw(st.booleans())
    column_map = {"date": "day"} if draw(st.booleans()) else {}
    names = [column_map.get(c, c) for c in CSV_COLUMNS]
    header = draw(st.permutations(names + ["station", "notes"][: draw(st.integers(0, 2))]))
    dup_name = draw(st.sampled_from([None, *names]))
    if dup_name is not None:  # its earlier column holds junk: the last one is read
        header.insert(draw(st.integers(0, len(header))), dup_name)
    n = draw(st.integers(1, 8))
    gaps = [0] * n
    if draw(st.booleans()):
        gaps[draw(st.integers(0, n - 1))] = draw(st.integers(1, 5))
    first = draw(st.sampled_from(FIRST_DAYS)) + dt.timedelta(days=draw(st.integers(0, 20)))
    days = [first + dt.timedelta(days=k + sum(gaps[: k + 1])) for k in range(n)]
    rows = [
        dict(date=day.isoformat(),
             **{name: _value_text(rng, v, plain)
                for name, v in zip(SERIES_NAMES, _valid_values(rng))})
        for day in days
    ]
    faults = draw(st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, n - 1)),
                           max_size=2))
    short = {}
    for fault, k in faults:
        row = rows[k]
        if fault == "bad_date":
            row["date"] = rng.choice(BAD_DATES)
        elif fault == "bad_number":
            row[rng.choice(SERIES_NAMES)] = rng.choice(BAD_NUMBERS)
        elif fault == "negative_pollen":
            row["pollen"] = rng.choice(["-1.5", "-1e-300"])
        elif fault == "percent_out_of_range":
            row[rng.choice(["humidity", "cloud_cover"])] = rng.choice(["100.5", "-0.1"])
        elif fault == "tmin_above_tavg":
            row["tmin"] = repr(float(row["tavg"]) + 1.0)
        elif fault in ("repeated_date", "earlier_date") and k > 0:
            back = 1 if fault == "earlier_date" and days[k - 1] > dt.date.min else 0
            row["date"] = (days[k - 1] - dt.timedelta(days=back)).isoformat()
        elif fault == "short_row":
            short[k] = draw(st.integers(1, len(header) - 1))
        elif fault == "field_over_csv_limit":
            row[rng.choice(SERIES_NAMES)] = "7" * (csv.field_size_limit() + 1)
        elif fault == "other_date_form":
            row["date"] = _other_date_form(rng, days[k])

    lines = [",".join(header)]
    for k, row in enumerate(rows):
        cells = []
        for pos, name in enumerate(header):
            canonical = CSV_COLUMNS[names.index(name)] if name in names else None
            last = name not in header[pos + 1:]
            text = row[canonical] if canonical and last else ("junk" if canonical else "x")
            cells.append(f'"{text}"' if not plain and rng.random() < 0.1 else text)
        lines.append(",".join(cells[: short.get(k, len(cells))]))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(rng.randint(1, len(lines)), "")
    text = ("\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))).join(lines) + "\n"
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, column_map


def _outcome(ingest, path: str, column_map: dict):
    """What ``ingest`` makes of a file: the error's type and message, or the
    dataset's records, filled dates and matrix, bit for bit."""
    try:
        data = ingest(path, column_map)
    except PollencastError as exc:
        return type(exc), str(exc)
    return (
        [(r.date, *map(float.hex, r.values())) for r in data.records],
        data.filled_dates,
        data.series_matrix().tobytes(),
    )


class TestIngestDifferential:
    """``ingest_csv`` checks all lines at once; it must read every file as
    the line-by-line oracle does and fail with the same error."""

    @given(case=csv_files())
    @settings(max_examples=250, deadline=None)
    def test_same_as_line_by_line_oracle(self, tmp_path_factory, case):
        text, column_map = case
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome(ingest_csv, str(path), column_map) == _outcome(
            reference_ingest_csv, str(path), column_map)


def _fast_read(text: str, column_map: dict):
    """What the fast parse makes of a file's text: None when it declines or
    refuses it, else each row's date and values (as hex)."""
    text = text.removeprefix("\ufeff")  # as reading the file with utf-8-sig
    headers = next(csv.reader(io.StringIO(text, newline="")))
    column = {name: i for i, name in enumerate(headers)}  # the last one wins
    at = [column[column_map.get(name, name)] for name in CSV_COLUMNS]
    rows = _fast_rows(text, at[0], at[1:])
    if rows is None:
        return None
    ordinals, values = rows
    return ordinals, values, [  # + 0.0: a dataset holds a -0.0 it reads as 0.0
        (dt.date.fromordinal(o), *map(float.hex, v))
        for o, v in zip(ordinals.tolist(), (values + 0.0).tolist())]


def plain_csv(n: int = 3) -> str:
    """A valid CSV of ``n`` days that the fast parse reads."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(map(str, full_row(f"2020-03-0{k + 1}"))) for k in range(n)]
    return "\n".join(lines) + "\n"


#: Texts that ``np.loadtxt`` could read otherwise than ``csv.reader`` and
#: ``float``, made from :func:`plain_csv`, and the error they raise (None
#: for a file that reads).
FAST_PARSE_HAZARDS = {
    # comments=None: '#' is no comment, so the field does not parse
    "comment": (lambda t: t.replace(",5.0,", ",1.5#x,", 1), NonFiniteError),
    # np.loadtxt hands the converter a line of blanks, as csv.reader does
    "blank_line": (lambda t: t.replace("\n", "\n   \n", 1), NonMonotoneDatesError),
    "lone_cr": (lambda t: t.replace("\n", "\r", 2), None),
    "crlf": (lambda t: t.replace("\n", "\r\n"), None),
    "nul": (lambda t: t.replace(",5.0,", ",5.0\x00,", 1), NonFiniteError),
    "nul_in_extra_column": (
        lambda t: "\n".join(f"{ln},\x00" for ln in t.split("\n")[:-1]) + "\n", None),
    "padded_date": (lambda t: t.replace("\n2020", "\n 2020", 1), NonMonotoneDatesError),
    # strict YYYY-MM-DD of a day that does not exist
    "year_zero": (lambda t: t.replace("2020-03-01", "0000-03-01"), NonMonotoneDatesError),
    "april_31": (lambda t: t.replace("2020-03-01", "2020-04-31"), NonMonotoneDatesError),
    "padded_date_end": (lambda t: t.replace("-01,", "-01 ,", 1), NonMonotoneDatesError),
    "info_separator": (lambda t: t.replace(",5.0,", ",5.0\x1f,", 1), NonFiniteError),
    "full_width_digits": (lambda t: t.replace(",5.0,", ",１２,", 1), None),
    "underscore": (lambda t: t.replace(",1013.0,", ",1_013.0,", 1), None),
    "quoted": (lambda t: t.replace(",5.0,", ',"5.0",', 1), None),
    # float reads it as a finite number, but csv.reader refuses the field
    "finite_field_over_csv_limit": (
        lambda t: t.replace(",5.0,", ",0." + "0" * 200_000 + "1,", 1), InvalidRecordError),
}


class TestFastParse:
    """``ingest_csv`` reads a plain file with one ``np.loadtxt`` call; the
    parse must decline every other file, or read it as the oracle does."""

    @given(case=csv_files())
    @settings(max_examples=250, deadline=None)
    def test_declines_or_reads_as_the_oracle(self, tmp_path_factory, case):
        text, column_map = case
        fast = _fast_read(text, column_map)
        event("read" if fast else "declined")
        if fast is None:
            return
        ordinals, values, rows = fast
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            data = reference_ingest_csv(str(path), column_map)
        except PollencastError as exc:
            # a field that does not parse must make np.loadtxt refuse; a
            # rule, order or gap error is the checks' to find
            assert not re.search("bad date|cannot parse|field larger", str(exc))
            assert _row_checks(ordinals, values)[1].any()
            return
        filled = set(data.filled_dates)
        assert rows == [(r.date, *map(float.hex, r.values()))
                        for r in data.records if r.date not in filled]

    def test_plain_files_are_read(self, tmp_path):
        assert _fast_read(plain_csv(), {}) is not None
        path = tmp_path / "d.csv"
        emit_csv(generate_synthetic(seed=3, years=1), str(path))
        assert _fast_read(path.read_text(), {}) is not None

    def test_date_column_read_as_a_value_refused(self, tmp_path):
        # np.loadtxt hands the converter the date column once, and refuses
        # to read it as the pollen value
        path = tmp_path / "d.csv"
        path.write_text(plain_csv())
        column_map = {"pollen": "date"}
        assert _fast_read(plain_csv(), column_map) is None
        outcome = _outcome(ingest_csv, str(path), column_map)
        assert outcome == _outcome(reference_ingest_csv, str(path), column_map)
        assert outcome[0] is NonFiniteError

    def test_compact_dates_read_by_the_tokenizer(self, tmp_path):
        # the fast parse takes strict YYYY-MM-DD only; fromisoformat reads
        # YYYYMMDD from Python 3.11 on, and so does the tokenizer
        text = plain_csv()
        compact = re.sub(r"^(\d{4})-(\d\d)-(\d\d),", r"\1\2\3,", text, flags=re.M)
        assert compact.count("\n20200301,") == 1
        assert _fast_read(compact, {}) is None
        plain, path = tmp_path / "plain.csv", tmp_path / "compact.csv"
        plain.write_text(text)
        path.write_text(compact)
        outcome = _outcome(ingest_csv, str(path), {})
        assert outcome == _outcome(reference_ingest_csv, str(path), {})
        if sys.version_info >= (3, 11):
            assert ingest_csv(str(path)) == ingest_csv(str(plain))
            assert outcome == _outcome(ingest_csv, str(plain), {})

    @pytest.mark.parametrize("hazard", sorted(FAST_PARSE_HAZARDS))
    def test_hazard_declined(self, tmp_path, hazard):
        change, error = FAST_PARSE_HAZARDS[hazard]
        text = change(plain_csv())
        assert text != plain_csv()
        assert _fast_read(text, {}) is None
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        outcome = _outcome(ingest_csv, str(path), {})
        assert outcome == _outcome(reference_ingest_csv, str(path), {})
        assert outcome[0] is error if error else isinstance(outcome[0], list)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_PERCENT = st.floats(0.0, 100.0)


@st.composite
def valid_datasets(draw):
    """A dataset of 1-15 consecutive days whose values span the whole
    finite range each series allows."""
    first = draw(st.dates(dt.date(1900, 1, 1), dt.date(2200, 1, 1)))
    records = []
    for k in range(draw(st.integers(1, 15))):
        tmin, tavg, tmax = sorted(draw(st.lists(_FINITE, min_size=3, max_size=3)))
        free = {name: draw(_FINITE) for name in (
            "precip", "wind_speed", "pressure", "sunshine_hours", "dew_point",
            "soil_temp")}
        records.append(DailyRecord(
            date=first + dt.timedelta(days=k),
            pollen=draw(st.floats(0.0, allow_infinity=False)),
            tmax=tmax, tmin=tmin, tavg=tavg,
            humidity=draw(_PERCENT), cloud_cover=draw(_PERCENT), **free))
    return Dataset(records=tuple(records))


class TestEmitIngestRoundTrip:
    @given(data=valid_datasets())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        emit_csv(data, str(path))
        back = ingest_csv(str(path))
        assert back.filled_dates == ()
        # the rows are written from the matrix, which holds a -0.0 as 0.0
        matrix = Dataset.from_matrix(data.start, data.series_matrix())
        assert [(r.date, *map(float.hex, r.values())) for r in back.records] == [
            (r.date, *map(float.hex, r.values())) for r in matrix.records]
        assert back.series_matrix().tobytes() == data.series_matrix().tobytes()
        again = path.with_name("again.csv")
        emit_csv(back, str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_synthetic_bytes_pinned(self, tmp_path):
        # sha256 of the file as written when emit_csv had its own csv.writer
        path = tmp_path / "d.csv"
        emit_csv(generate_synthetic(seed=7, years=1), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "81a2a8b3ada2265b8aa4fb3e8a3ff6cb06a5c4f2d2c328aca31ec41fb5c0754f"
        )

    def test_only_this_module_opens_files(self):
        # every file and JSON document goes through the readers and
        # writers of pollencast.data: no other module calls open (the
        # builtin or a method), json.load(s) or json.dump(s), or imports
        # from json; the syntax tree skips comments and docstrings
        found: dict[str, list[int]] = {}
        for path in sorted(Path(pollencast.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                f = node.func if isinstance(node, ast.Call) else None
                if (isinstance(node, ast.ImportFrom) and node.module == "json"
                        or isinstance(f, ast.Name) and f.id == "open"
                        or isinstance(f, ast.Attribute) and (
                            f.attr == "open"
                            or f.attr in ("load", "loads", "dump", "dumps")
                            and ast.unparse(f.value) == "json")):
                    found.setdefault(path.name, []).append(node.lineno)
        assert list(found) == ["data.py"], found



# ---------------------------------------------------------------------------
# Season definitions and labels
# ---------------------------------------------------------------------------


class TestSeasonTypes:
    def test_delta_n_bounds(self):
        with pytest.raises(InvalidRecordError):
            SeasonDefinition(delta_c=100.0, delta_n=0)
        with pytest.raises(InvalidRecordError):
            SeasonDefinition(delta_c=100.0, delta_n=8)

    def test_delta_c_positive(self):
        with pytest.raises(InvalidRecordError):
            SeasonDefinition(delta_c=0.0, delta_n=4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_delta_c_finite(self, bad):
        with pytest.raises(InvalidRecordError):
            SeasonDefinition(delta_c=bad, delta_n=4)

    def test_label_invariants(self):
        with pytest.raises(InvalidRecordError):
            SeasonLabel(year=2020, start_day=10, end_day=None)
        with pytest.raises(InvalidRecordError):
            SeasonLabel(year=2020, start_day=10, end_day=9)
        lab = SeasonLabel(year=2020, start_day=10, end_day=14)
        assert lab.length_days == 5
        assert SeasonLabel(year=2020, start_day=None, end_day=None).length_days is None


# ---------------------------------------------------------------------------
# Labeling: pinned cases
# ---------------------------------------------------------------------------


class TestLabelSeason:
    def test_constant_high_pollen(self, season_def):
        data = year_dataset([200.0] * 365, year=2001)
        lab = label_season(data, season_def, 2001)
        assert (lab.start_day, lab.end_day) == (1, 365)

    def test_all_zero_pollen(self, season_def):
        data = year_dataset([0.0] * 365, year=2001)
        lab = label_season(data, season_def, 2001)
        assert not lab.present

    def test_sparse_spikes(self, season_def):
        pollen = [0.0] * 365
        for d in (50, 52, 54, 56):
            pollen[d - 1] = 130.0
        data = year_dataset(pollen, year=2001)
        lab = label_season(data, season_def, 2001)
        assert lab.start_day == 50
        assert lab.end_day == 56

    def test_year_not_covered(self, season_def):
        data = dataset_from_pollen([0.0] * 100, dt.date(2001, 1, 1))
        with pytest.raises(InsufficientDataError):
            label_season(data, season_def, 2001)

    def test_multi_episode_collapses_to_one_span(self, season_def):
        pollen = [0.0] * 365
        for d in list(range(60, 70)) + list(range(200, 210)):
            pollen[d - 1] = 300.0
        data = year_dataset(pollen, year=2001)
        lab = label_season(data, season_def, 2001)
        # Leading window {57..63} already holds four typical days, and the
        # trailing window {206..212} holds the last four.
        assert (lab.start_day, lab.end_day) == (57, 212)
        assert label_brute_force(data, season_def, 2001) == lab

    def test_strict_inequality_at_threshold(self):
        sd = SeasonDefinition(delta_c=120.0, delta_n=1)
        pollen = [0.0] * 365
        pollen[99] = 120.0
        data = year_dataset(pollen, year=2001)
        assert not label_season(data, sd, 2001).present
        pollen[99] = 120.0000001
        data = year_dataset(pollen, year=2001)
        assert label_season(data, sd, 2001).present

    def test_window_crossing_year_boundary(self, season_def):
        # Four typical days at each side of the year boundary: both years
        # get a season, and windows near the boundary read the other
        # year's data.
        pollen = [0.0] * 365 + [0.0] * 365
        for d in range(362, 370):
            pollen[d - 1] = 200.0
        data = dataset_from_pollen(pollen, dt.date(2001, 1, 1))
        lab1 = label_season(data, season_def, 2001)
        lab2 = label_season(data, season_def, 2002)
        assert (lab1.start_day, lab1.end_day) == (359, 365)
        assert (lab2.start_day, lab2.end_day) == (1, 7)
        assert label_brute_force(data, season_def, 2001) == lab1
        assert label_brute_force(data, season_def, 2002) == lab2

    def test_spillover_start_without_end_is_absent(self, season_def):
        # Typical days all in the first days of year two: year one gets a
        # qualifying leading window only at its very tail and no trailing
        # window at all, so year one has no season.
        pollen = [0.0] * 365 + [0.0] * 365
        for d in (366, 367, 368, 369):
            pollen[d - 1] = 200.0
        data = dataset_from_pollen(pollen, dt.date(2001, 1, 1))
        lab1 = label_season(data, season_def, 2001)
        assert not lab1.present
        assert label_brute_force(data, season_def, 2001) == lab1


# ---------------------------------------------------------------------------
# Labeling: property campaigns against the brute-force oracle
# ---------------------------------------------------------------------------


def random_year_pollen(rng, delta_c, n_days):
    """Noisy baseline plus clustered spikes; rich in near-threshold windows."""
    pollen = rng.uniform(0.0, 0.8 * delta_c, size=n_days)
    for _ in range(rng.integers(0, 6)):
        center = int(rng.integers(0, n_days))
        width = int(rng.integers(1, 25))
        lo = max(0, center - width)
        hi = min(n_days, center + width)
        pollen[lo:hi] = rng.uniform(0.0, 2.5 * delta_c, size=hi - lo)
    return pollen


class TestOracleEquivalence:
    def test_campaign(self):
        rng = np.random.default_rng(2024)
        n_days = year_length(2001)
        mismatches = []
        for case in range(300):
            delta_c = float(rng.choice([50.0, 120.0, 200.0]))
            delta_n = int(rng.integers(1, 8))
            sd = SeasonDefinition(delta_c=delta_c, delta_n=delta_n)
            data = year_dataset(random_year_pollen(rng, delta_c, n_days), year=2001)
            fast = label_season(data, sd, 2001)
            slow = label_brute_force(data, sd, 2001)
            if fast != slow:
                mismatches.append((case, delta_c, delta_n, fast, slow))
        assert mismatches == []

    def test_exact_count_at_year_edges(self):
        # Exactly delta_n typical days packed against each year boundary.
        rng = np.random.default_rng(7)
        n_days = year_length(2001)
        for delta_n in range(1, 8):
            sd = SeasonDefinition(delta_c=120.0, delta_n=delta_n)
            for at_end in (False, True):
                for trial in range(20):
                    pollen = [0.0] * n_days
                    positions = rng.choice(7, size=delta_n, replace=False)
                    for p in positions:
                        idx = n_days - 1 - int(p) if at_end else int(p)
                        pollen[idx] = 150.0
                    data = year_dataset(pollen, year=2001)
                    assert label_season(data, sd, 2001) == label_brute_force(
                        data, sd, 2001
                    )

    def test_multi_year_context(self, season_def):
        # Windows may reach into neighboring years when data is available.
        rng = np.random.default_rng(99)
        for _ in range(20):
            pollen = random_year_pollen(rng, 120.0, 3 * 365)
            data = dataset_from_pollen(pollen, dt.date(2001, 1, 1))
            for year in (2001, 2002, 2003):
                assert label_season(data, season_def, year) == label_brute_force(
                    data, season_def, year
                )


@st.composite
def labeling_cases(draw):
    """A dataset of 300-1,100 days made from its matrix, with clustered
    pollen spikes and values at the threshold, a season rule and a year in
    the data or next to it."""
    delta_c = draw(st.sampled_from([50.0, 120.0, 200.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_days = draw(st.integers(300, 1100))
    values = np.tile(NEUTRAL_ROW, (n_days, 1))
    values[:, 0] = random_year_pollen(rng, delta_c, n_days)
    values[rng.random(n_days) < 0.05, 0] = delta_c  # not typical: > is strict
    data = Dataset.from_matrix(draw(st.dates(dt.date(1999, 6, 1), dt.date(2002, 6, 1))),
                               values)
    first, last = data.span
    year = draw(st.integers(first.year - 1, last.year + 1))
    return data, SeasonDefinition(delta_c=delta_c, delta_n=draw(st.integers(1, 7))), year


class TestLabelOracleProperty:
    @given(case=labeling_cases())
    @settings(max_examples=150, deadline=None)
    def test_label_equals_brute_force(self, case):
        data, sd, year = case

        def outcome(label):
            try:
                return label(data, sd, year)
            except InsufficientDataError as exc:  # the year is not covered
                return str(exc)

        assert outcome(label_season) == outcome(label_brute_force)


class TestLabelProperties:
    def test_threshold_monotonicity_in_delta_c(self):
        rng = np.random.default_rng(11)
        n_days = year_length(2001)
        for _ in range(40):
            pollen = random_year_pollen(rng, 120.0, n_days)
            data = year_dataset(pollen, year=2001)
            prev = None
            for delta_c in (50.0, 120.0, 200.0):
                lab = label_season(data, SeasonDefinition(delta_c, 4), 2001)
                if prev is not None:
                    if lab.present:
                        assert prev.present
                        assert lab.start_day >= prev.start_day
                prev = lab

    def test_threshold_monotonicity_in_delta_n(self):
        rng = np.random.default_rng(12)
        n_days = year_length(2001)
        for _ in range(40):
            pollen = random_year_pollen(rng, 120.0, n_days)
            data = year_dataset(pollen, year=2001)
            prev = None
            for delta_n in range(1, 8):
                lab = label_season(data, SeasonDefinition(120.0, delta_n), 2001)
                if prev is not None:
                    if lab.present:
                        assert prev.present
                        assert lab.start_day >= prev.start_day
                prev = lab

    def test_reversal_symmetry(self, season_def):
        rng = np.random.default_rng(13)
        n_days = year_length(2001)
        checked = 0
        for _ in range(40):
            pollen = random_year_pollen(rng, 120.0, n_days)
            fwd = label_season(year_dataset(pollen, year=2001), season_def, 2001)
            rev = label_season(
                year_dataset(pollen[::-1].copy(), year=2001), season_def, 2001
            )
            assert fwd.present == rev.present
            if fwd.present:
                assert rev.start_day == n_days - fwd.end_day + 1
                assert rev.end_day == n_days - fwd.start_day + 1
                checked += 1
        assert checked >= 10  # the campaign must actually exercise seasons


def test_label_years_covers_all_years(seed42_dataset, season_def):
    labels = label_years(seed42_dataset, season_def)
    assert sorted(labels) == list(range(2003, 2020))
