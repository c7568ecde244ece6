import datetime as dt
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pollencast.data import SERIES_NAMES, DailyRecord, Dataset
from pollencast.errors import (
    DatasetTooShortError,
    NonFiniteError,
    WrongWindowLengthError,
)
from pollencast.features import (
    CATALOG_VERSION,
    COUNT_COLUMNS,
    FEATURE_NAMES,
    N_FEATURES,
    WINDOW_LEN,
    _BLOCK_DAYS,
    _window_stats,
    build_feature_matrix,
    count_above,
    flat_feature_names,
)

from pollencast.pipeline import STAGE1_COLUMNS
from pollencast.synth import generate_synthetic

from helpers import dataset_from_pollen, window_features

NEUTRAL_REFS = (120.0,) + (10.0,) * 11


def oracle_window_features(window, reference):
    """Independent per-statistic implementation, plain Python throughout."""
    x = [float(v) for v in window]
    n = len(x)
    mean = statistics.fmean(x)
    centered = [v - mean for v in x]
    m2 = statistics.fmean([c**2 for c in centered])
    m3 = statistics.fmean([c**3 for c in centered])
    m4 = statistics.fmean([c**4 for c in centered])
    q25, _, q75 = statistics.quantiles(x, n=4, method="inclusive")
    t_mean = (n - 1) / 2.0
    s_tt = sum((i - t_mean) ** 2 for i in range(n))
    slope = sum((i - t_mean) * c for i, c in enumerate(centered)) / s_tt
    diffs = [x[i + 1] - x[i] for i in range(n - 1)]
    den = sum(c**2 for c in centered)
    autocorr = (
        sum(centered[i] * centered[i + 1] for i in range(n - 1)) / den if den else 0.0
    )
    ewma = x[0]
    for v in x[1:]:
        ewma = 0.3 * v + 0.7 * ewma
    return [
        mean,
        math.sqrt(m2),
        min(x),
        max(x),
        statistics.median(x),
        q25,
        q75,
        q75 - q25,
        max(x) - min(x),
        x[0],
        x[-1],
        x[-1] - x[0],
        slope,
        mean - slope * t_mean,
        statistics.fmean([abs(d) for d in diffs]),
        max(diffs),
        statistics.pstdev(diffs),
        autocorr,
        m3 / m2**1.5 if m2 else 0.0,
        m4 / m2**2 - 3.0 if m2 else 0.0,
        math.sqrt(statistics.fmean([v**2 for v in x])),
        sum(1 for v in x if v > mean),
        x.index(max(x)),
        x.index(min(x)),
        ewma,
        statistics.fmean(x[-3:]),
        statistics.fmean(x[:3]),
        sum(1 for v in x if v > reference),
        sum(1 for i in range(len(diffs) - 1) if diffs[i] * diffs[i + 1] < 0),
    ]


class TestWindowFeatures:
    def test_catalog_size(self):
        assert N_FEATURES == 29
        assert len(FEATURE_NAMES) == 29
        assert len(set(FEATURE_NAMES)) == 29

    def test_constant_window(self):
        out = window_features([5.0] * 14)
        by_name = dict(zip(FEATURE_NAMES, out))
        assert by_name["mean"] == 5.0
        assert by_name["std"] == 0.0
        assert by_name["slope"] == 0.0
        assert by_name["autocorr1"] == 0.0
        assert by_name["skewness"] == 0.0
        assert by_name["kurtosis"] == 0.0
        assert by_name["range"] == 0.0
        assert by_name["n_above_mean"] == 0.0

    def test_ramp_window(self):
        out = window_features(list(range(14)))
        by_name = dict(zip(FEATURE_NAMES, out))
        assert by_name["slope"] == pytest.approx(1.0)
        assert by_name["intercept"] == pytest.approx(0.0)
        assert by_name["mean"] == pytest.approx(6.5)
        assert by_name["delta"] == 13.0
        assert by_name["argmax"] == 13.0
        assert by_name["argmin"] == 0.0
        assert by_name["diff_sign_flips"] == 0.0

    def test_random_windows_match_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            window = rng.normal(50.0, 30.0, size=14)
            reference = float(rng.uniform(0.0, 100.0))
            got = window_features(window, reference)
            want = oracle_window_features(window, reference)
            assert got.shape == (N_FEATURES,)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_integer_heavy_windows_match_oracle(self):
        # Repeated values provoke ties in quantiles, argmax, and diffs.
        rng = np.random.default_rng(18)
        for _ in range(100):
            window = rng.integers(0, 4, size=14).astype(float)
            got = window_features(window, 1.0)
            want = oracle_window_features(window, 1.0)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_all_finite(self):
        rng = np.random.default_rng(19)
        for scale in (1e-8, 1.0, 1e8):
            out = window_features(rng.normal(0.0, scale, size=14))
            assert np.isfinite(out).all()

    def test_wrong_length(self):
        with pytest.raises(WrongWindowLengthError):
            window_features([1.0] * 13)

    def test_non_finite_input(self):
        window = [1.0] * 14
        window[3] = float("nan")
        with pytest.raises(NonFiniteError):
            window_features(window)

    def test_scale_behavior(self):
        rng = np.random.default_rng(20)
        window = rng.normal(20.0, 10.0, size=14)
        ref = 18.0
        c = 2.5
        base = dict(zip(FEATURE_NAMES, window_features(window, ref)))
        scaled = dict(zip(FEATURE_NAMES, window_features(c * window, c * ref)))
        linear = (
            "mean std min max median q25 q75 iqr range first last delta "
            "slope intercept mean_abs_diff max_diff std_diff rms ewma "
            "mean_last3 mean_first3"
        ).split()
        invariant = (
            "autocorr1 skewness kurtosis n_above_mean argmax argmin "
            "n_above_ref diff_sign_flips"
        ).split()
        assert sorted(linear + invariant) == sorted(FEATURE_NAMES)
        for name in linear:
            assert scaled[name] == pytest.approx(c * base[name], rel=1e-12)
        for name in invariant:
            assert scaled[name] == pytest.approx(base[name], rel=1e-12)


#: A window value as a dataset matrix holds it: finite and never -0.0,
#: with ties, from subnormal to about 1e300 in magnitude.
_window_values = (
    st.builds(lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(-300, 300))
    | st.integers(-3, 3).map(float)
    | st.sampled_from([5e-324, -5e-324, 1.7e308, -1.7e308])
).map(lambda v: v + 0.0)


class TestOrderStatistics:
    """q25, q75 and the median come from one sort per block; their bits
    must equal ``np.quantile``'s and ``np.median``'s."""

    @staticmethod
    def columns(windows):
        with np.errstate(all="ignore"):  # the moments overflow at 1e300
            stats = _window_stats(windows)
        return [stats[:, FEATURE_NAMES.index(n)] for n in ("q25", "q75", "median")]

    @staticmethod
    def assert_numpy_bits(windows, got):
        want = [np.quantile(windows, 0.25, axis=1), np.quantile(windows, 0.75, axis=1),
                np.median(windows, axis=1)]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))

    @given(rows=st.lists(st.lists(_window_values, min_size=WINDOW_LEN,
                                  max_size=WINDOW_LEN), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_bits_equal_numpy(self, rows):
        windows = np.array(rows)
        self.assert_numpy_bits(windows, self.columns(windows))

    def test_real_windows(self):
        matrix = generate_synthetic(seed=42, years=3).series_matrix()
        windows = np.lib.stride_tricks.sliding_window_view(
            matrix, WINDOW_LEN, axis=0).reshape(-1, WINDOW_LEN)
        self.assert_numpy_bits(windows, self.columns(windows))


class TestBuildFeatureMatrix:
    def test_minimum_length(self):
        data = dataset_from_pollen([1.0] * 14, dt.date(2020, 3, 1))
        m = build_feature_matrix(data, NEUTRAL_REFS)
        assert len(m) == 1
        assert m.rows.shape == (1, STAGE1_COLUMNS)
        assert m.values.shape == (1, N_FEATURES, 12)
        assert m.start == dt.date(2020, 3, 14)

    def test_too_short(self):
        data = dataset_from_pollen([1.0] * 13, dt.date(2020, 3, 1))
        with pytest.raises(DatasetTooShortError):
            build_feature_matrix(data, NEUTRAL_REFS)

    def test_row_count_and_dates(self):
        data = dataset_from_pollen([1.0] * 20, dt.date(2020, 3, 1))
        m = build_feature_matrix(data, NEUTRAL_REFS)
        assert len(m) == 7
        assert m.start == dt.date(2020, 3, 14)
        # 14 March 2020 is day 74 of a leap year; the last row is 20 March
        assert m.rows[:, -1].tolist() == [74.0, 75.0, 76.0, 77.0, 78.0, 79.0, 80.0]

    def test_constant_dataset_rows_match_scalar_path(self):
        data = dataset_from_pollen([7.0] * 20, dt.date(2020, 3, 1))
        m = build_feature_matrix(data, NEUTRAL_REFS)
        pollen_expected = window_features([7.0] * 14, NEUTRAL_REFS[0])
        for r in range(len(m)):
            np.testing.assert_array_equal(m.rows[r, :N_FEATURES], pollen_expected)

    def test_rows_match_scalar_path_on_random_data(self):
        rng = np.random.default_rng(23)
        pollen = rng.uniform(0.0, 300.0, size=40)
        data = dataset_from_pollen(pollen, dt.date(2020, 3, 1))
        m = build_feature_matrix(data, NEUTRAL_REFS)
        raw = data.series_matrix()
        for r in (0, 11, len(m) - 1):
            for s in range(12):
                window = raw[r : r + 14, s]
                np.testing.assert_allclose(
                    m.rows[r, s * N_FEATURES : (s + 1) * N_FEATURES],
                    window_features(window, NEUTRAL_REFS[s]),
                    rtol=1e-12,
                )

    def test_causality(self):
        rng = np.random.default_rng(24)
        pollen = rng.uniform(0.0, 300.0, size=40)
        base = build_feature_matrix(
            dataset_from_pollen(pollen, dt.date(2020, 3, 1)), NEUTRAL_REFS
        )
        changed = pollen.copy()
        changed[20:] = rng.uniform(0.0, 300.0, size=20)
        other = build_feature_matrix(
            dataset_from_pollen(changed, dt.date(2020, 3, 1)), NEUTRAL_REFS
        )
        # Rows ending before the first changed day are untouched.
        np.testing.assert_array_equal(base.rows[:7], other.rows[:7])
        assert not np.array_equal(base.rows[7:], other.rows[7:])

    def test_shift_equivariance(self):
        rng = np.random.default_rng(25)
        pollen = rng.uniform(0.0, 300.0, size=30)
        prefix = rng.uniform(0.0, 300.0, size=5)
        base = build_feature_matrix(
            dataset_from_pollen(pollen, dt.date(2020, 3, 6)), NEUTRAL_REFS
        )
        shifted = build_feature_matrix(
            dataset_from_pollen(
                np.concatenate([prefix, pollen]), dt.date(2020, 3, 1)
            ),
            NEUTRAL_REFS,
        )
        np.testing.assert_array_equal(shifted.rows[5:], base.rows)
        assert shifted.start + dt.timedelta(days=5) == base.start

    def test_reference_count_wrong(self):
        data = dataset_from_pollen([1.0] * 14, dt.date(2020, 3, 1))
        with pytest.raises(WrongWindowLengthError):
            build_feature_matrix(data, (120.0,) * 5)


@st.composite
def random_datasets(draw):
    """A dataset of 14-40 days with every series random, and references
    drawn from its values."""
    n = draw(st.integers(WINDOW_LEN, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e3])), size=(n, 12))
    if draw(st.booleans()):
        m = np.round(m)  # ties and constant windows
    m[:, 0] = np.abs(m[:, 0])  # pollen >= 0
    low, mid, high = np.sort(m[:, 1:4], axis=1).T
    m[:, 1], m[:, 2], m[:, 3] = high, low, mid  # tmin <= tavg <= tmax
    for s in (5, 10):  # humidity and cloud cover are percentages
        m[:, s] = np.minimum(np.abs(m[:, s]), 100.0)
    first = dt.date(2020, 1, 1)
    records = tuple(
        DailyRecord(date=first + dt.timedelta(days=i), **dict(zip(SERIES_NAMES, row)))
        for i, row in enumerate(m.tolist())
    )
    refs = tuple(float(m[rng.integers(n), s]) for s in range(12))
    return Dataset(records=records), refs


class TestStackedRows:
    """All series' windows go through one stacked statistics pass; each row
    must keep the bits of its window computed alone, series after series,
    then the day-of-year."""

    @given(case=random_datasets())
    @settings(max_examples=40, deadline=None)
    def test_each_row_equals_its_lone_window(self, case):
        data, refs = case
        m = build_feature_matrix(data, refs)
        raw = data.series_matrix()
        first, _ = data.span
        want = np.array([
            [*(v for s in range(12)
               for v in window_features(raw[r : r + WINDOW_LEN, s], refs[s])),
             (first + dt.timedelta(days=r + WINDOW_LEN - 1)).timetuple().tm_yday]
            for r in range(len(m))
        ])
        np.testing.assert_array_equal(m.rows.view(np.uint64), want.view(np.uint64))


class TestCountAbove:
    def test_count_columns_equal_a_literal_count(self):
        # more days than one statistics pass reads, and a reference of its
        # own per series: the feature rows' counts, count_above's and a
        # count window by window agree bit for bit
        data = generate_synthetic(seed=3, years=2)
        raw = data.series_matrix()
        refs = tuple(float(np.median(raw[:, s])) + s for s in range(12))
        n_rows = len(raw) - WINDOW_LEN + 1
        assert n_rows > _BLOCK_DAYS and len(set(refs)) == 12
        want = np.array([[float(sum(v > refs[s] for v in raw[r:r + WINDOW_LEN, s]))
                          for s in range(12)] for r in range(n_rows)])
        assert 0 < want.mean() < WINDOW_LEN
        names = flat_feature_names()
        assert [names[c] for c in COUNT_COLUMNS] == [
            f"{s}__n_above_ref" for s in SERIES_NAMES]
        for got in (build_feature_matrix(data, refs).rows[:, COUNT_COLUMNS],
                    count_above(data, refs)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestFlatten:
    """The flat row layout: series-major statistics, then day-of-year."""

    @pytest.fixture()
    def data(self):
        rng = np.random.default_rng(26)
        return dataset_from_pollen(rng.uniform(0, 300, size=25), dt.date(2020, 3, 1))

    @pytest.fixture()
    def matrix(self, data):
        return build_feature_matrix(data, NEUTRAL_REFS)

    def test_lengths(self, matrix):
        assert matrix.rows.shape == (len(matrix), STAGE1_COLUMNS)
        assert matrix.rows.dtype == np.float64

    def test_doy_appended(self):
        # across year ends and leap days, from the first to the last year
        for first in (dt.date(1, 1, 1), dt.date(1900, 2, 20), dt.date(2000, 2, 20),
                      dt.date(2019, 12, 20), dt.date(9999, 12, 1)):
            m = build_feature_matrix(dataset_from_pollen([1.0] * 31, first), NEUTRAL_REFS)
            want = [(m.start + dt.timedelta(days=r)).timetuple().tm_yday
                    for r in range(len(m))]
            assert m.rows[:, -1].tolist() == want

    def test_series_major_order(self, data, matrix):
        raw = data.series_matrix()
        row = matrix.rows[2]
        for s in range(12):
            np.testing.assert_array_equal(
                row[s * N_FEATURES : (s + 1) * N_FEATURES],
                window_features(raw[2 : 2 + WINDOW_LEN, s], NEUTRAL_REFS[s]),
            )

    def test_constant_dataset_rows_identical_but_doy(self):
        data = dataset_from_pollen([7.0] * 20, dt.date(2020, 3, 1))
        m = build_feature_matrix(data, NEUTRAL_REFS)
        a, b = m.rows[0], m.rows[3]
        np.testing.assert_array_equal(a[:-1], b[:-1])
        assert b[-1] - a[-1] == 3.0

    def test_values_is_a_read_only_view_of_rows(self, matrix):
        values = matrix.values
        assert values.shape == (len(matrix), N_FEATURES, 12)
        assert np.shares_memory(values, matrix.rows)
        assert not values.flags.writeable and not matrix.rows.flags.writeable
        for s in range(12):
            np.testing.assert_array_equal(
                values[:, :, s], matrix.rows[:, s * N_FEATURES : (s + 1) * N_FEATURES])

    def test_names(self):
        names = flat_feature_names()
        assert len(names) == STAGE1_COLUMNS
        assert names[0] == "pollen__mean"
        assert names[N_FEATURES] == f"{SERIES_NAMES[1]}__mean"
        assert names[-1] == "day_of_year"


class TestCsvExport:
    def test_catalog_version_recorded(self):
        data = dataset_from_pollen([1.0] * 14, dt.date(2020, 3, 1))
        m = build_feature_matrix(data, NEUTRAL_REFS)
        assert m.catalog_version == CATALOG_VERSION == "w14s29-v1"
