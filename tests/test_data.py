import datetime as dt
import math

import numpy as np
import pytest

from pollencast.data import (
    CSV_COLUMNS,
    DailyRecord,
    Dataset,
    SeasonDefinition,
    SeasonLabel,
    emit_csv,
    ingest_csv,
    label_season,
    label_years,
    season_stats,
)
from pollencast.errors import (
    GapTooLargeError,
    InsufficientDataError,
    InvalidRecordError,
    MissingColumnError,
    NonFiniteError,
    NonMonotoneDatesError,
    TooFewSeasonsError,
)

from helpers import (
    dataset_from_pollen,
    label_brute_force,
    make_record,
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

    def test_round_trip_after_fill(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [full_row("2020-03-01", 9.0), full_row("2020-03-04", 2.0)])
        data = ingest_csv(str(path))
        out = tmp_path / "out.csv"
        emit_csv(data, str(out))
        assert ingest_csv(str(out)) == data


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


# ---------------------------------------------------------------------------
# Season statistics
# ---------------------------------------------------------------------------


class TestSeasonStats:
    def test_identical_labels(self):
        labels = [SeasonLabel(year=2000 + i, start_day=90, end_day=150) for i in range(5)]
        stats = season_stats(labels)
        assert (stats.std_start, stats.std_end, stats.std_length) == (0.0, 0.0, 0.0)

    def test_two_point_sample_std(self):
        labels = [
            SeasonLabel(year=2000, start_day=50, end_day=100),
            SeasonLabel(year=2001, start_day=54, end_day=100),
        ]
        stats = season_stats(labels)
        assert stats.std_start == pytest.approx(2.0 * math.sqrt(2.0))

    def test_absent_labels_excluded(self):
        labels = [
            SeasonLabel(year=2000, start_day=50, end_day=100),
            SeasonLabel(year=2001, start_day=None, end_day=None),
            SeasonLabel(year=2002, start_day=54, end_day=100),
        ]
        assert season_stats(labels).n_seasons == 2

    def test_too_few(self):
        with pytest.raises(TooFewSeasonsError):
            season_stats([SeasonLabel(year=2000, start_day=50, end_day=100)])

    def test_seed42_stats_logged(self, seed42_labels):
        stats = season_stats(list(seed42_labels.values()))
        assert stats.n_seasons >= 10
        assert 0.0 < stats.std_start < 60.0


def test_label_years_covers_all_years(seed42_dataset, season_def):
    labels = label_years(seed42_dataset, season_def)
    assert sorted(labels) == list(range(2003, 2020))
