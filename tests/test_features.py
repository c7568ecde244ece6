import datetime as dt
import math
import statistics

import numpy as np
import pytest

from pollencast.data import SERIES_NAMES
from pollencast.errors import (
    DatasetTooShortError,
    IndexOutOfRangeError,
    NonFiniteError,
    WrongWindowLengthError,
)
from pollencast.features import (
    CATALOG_VERSION,
    FEATURE_NAMES,
    N_FEATURES,
    WINDOW_LEN,
    build_feature_matrix,
    emit_feature_csv,
    flat_feature_names,
    flatten_all,
    flatten_row,
    window_features,
)

from helpers import dataset_from_pollen

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
        sum(x),
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
        assert N_FEATURES == 30
        assert len(FEATURE_NAMES) == 30
        assert len(set(FEATURE_NAMES)) == 30

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
            assert got.shape == (30,)
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
            "mean std min max median q25 q75 iqr range sum first last delta "
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


class TestBuildFeatureMatrix:
    def test_minimum_length(self):
        data = dataset_from_pollen([1.0] * 14, dt.date(2020, 3, 1))
        m = build_feature_matrix(data, NEUTRAL_REFS)
        assert len(m) == 1
        assert m.values.shape == (1, 30, 12)
        assert m.dates == (dt.date(2020, 3, 14),)

    def test_too_short(self):
        data = dataset_from_pollen([1.0] * 13, dt.date(2020, 3, 1))
        with pytest.raises(DatasetTooShortError):
            build_feature_matrix(data, NEUTRAL_REFS)

    def test_row_count_and_dates(self):
        data = dataset_from_pollen([1.0] * 20, dt.date(2020, 3, 1))
        m = build_feature_matrix(data, NEUTRAL_REFS)
        assert len(m) == 7
        assert m.dates[0] == dt.date(2020, 3, 14)
        assert m.dates[-1] == dt.date(2020, 3, 20)
        assert m.row_for_date(dt.date(2020, 3, 15)) == 1
        with pytest.raises(IndexOutOfRangeError):
            m.row_for_date(dt.date(2020, 3, 13))

    def test_constant_dataset_rows_match_scalar_path(self):
        data = dataset_from_pollen([7.0] * 20, dt.date(2020, 3, 1))
        m = build_feature_matrix(data, NEUTRAL_REFS)
        pollen_expected = window_features([7.0] * 14, NEUTRAL_REFS[0])
        for r in range(len(m)):
            np.testing.assert_array_equal(m.values[r, :, 0], pollen_expected)

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
                    m.values[r, :, s],
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
        np.testing.assert_array_equal(base.values[:7], other.values[:7])
        assert not np.array_equal(base.values[7:], other.values[7:])

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
        np.testing.assert_array_equal(shifted.values[5:], base.values)
        assert shifted.dates[5:] == base.dates

    def test_reference_count_wrong(self):
        data = dataset_from_pollen([1.0] * 14, dt.date(2020, 3, 1))
        with pytest.raises(WrongWindowLengthError):
            build_feature_matrix(data, (120.0,) * 5)

    def test_window_len_fixed(self):
        data = dataset_from_pollen([1.0] * 14, dt.date(2020, 3, 1))
        with pytest.raises(WrongWindowLengthError):
            build_feature_matrix(data, NEUTRAL_REFS, window_len=10)


class TestFlatten:
    @pytest.fixture()
    def matrix(self):
        rng = np.random.default_rng(26)
        data = dataset_from_pollen(rng.uniform(0, 300, size=25), dt.date(2020, 3, 1))
        return build_feature_matrix(data, NEUTRAL_REFS)

    def test_lengths(self, matrix):
        assert flatten_row(matrix, 0).shape == (361,)

    def test_doy_appended(self, matrix):
        row = flatten_row(matrix, 0)
        assert row[-1] == float(matrix.dates[0].timetuple().tm_yday)

    def test_series_major_order(self, matrix):
        row = flatten_row(matrix, 2)
        for s in range(12):
            np.testing.assert_array_equal(
                row[s * 30 : (s + 1) * 30], matrix.values[2, :, s]
            )

    def test_constant_dataset_rows_identical_but_doy(self):
        data = dataset_from_pollen([7.0] * 20, dt.date(2020, 3, 1))
        m = build_feature_matrix(data, NEUTRAL_REFS)
        a = flatten_row(m, 0)
        b = flatten_row(m, 3)
        np.testing.assert_array_equal(a[:-1], b[:-1])
        assert b[-1] - a[-1] == 3.0

    def test_flatten_all_matches_rows(self, matrix):
        flat = flatten_all(matrix)
        assert flat.shape == (len(matrix), 361)
        for r in range(len(matrix)):
            np.testing.assert_array_equal(flat[r], flatten_row(matrix, r))

    def test_out_of_range(self, matrix):
        with pytest.raises(IndexOutOfRangeError):
            flatten_row(matrix, len(matrix))

    def test_names(self):
        names = flat_feature_names()
        assert len(names) == 361
        assert names[0] == "pollen__mean"
        assert names[30] == f"{SERIES_NAMES[1]}__mean"
        assert names[-1] == "day_of_year"


class TestCsvExport:
    def test_header_and_shape(self, tmp_path):
        rng = np.random.default_rng(27)
        data = dataset_from_pollen(rng.uniform(0, 300, size=20), dt.date(2020, 3, 1))
        m = build_feature_matrix(data, NEUTRAL_REFS)
        path = tmp_path / "features.csv"
        emit_feature_csv(m, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0].split(",") == list(flat_feature_names())
        assert len(lines) == 1 + len(m)
        first_row = np.array([float(v) for v in lines[1].split(",")])
        np.testing.assert_array_equal(first_row, flatten_row(m, 0))

    def test_catalog_version_recorded(self):
        data = dataset_from_pollen([1.0] * 14, dt.date(2020, 3, 1))
        m = build_feature_matrix(data, NEUTRAL_REFS)
        assert m.catalog_version == CATALOG_VERSION == "w14s30-v1"
