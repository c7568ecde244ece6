import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pollencast.errors import (
    DegenerateDesignError,
    DegenerateSlopeError,
    InvalidRecordError,
    NonFiniteError,
    NonPositiveWeightError,
    TooFewPointsError,
    ZeroSlopeError,
)
from pollencast.wls import (
    FinalForecast,
    ForecastSeries,
    MonteCarloResult,
    ThresholdAnalysis,
    WLSFit,
    emit_forecast_json,
    emit_series_csv,
    emit_threshold_csv,
    final_forecast,
    fit_wls,
    min_days,
    monte_carlo_variance,
    propagation_identity_check,
    threshold_function,
)


def make_series(first_z, y, u, year=2010, boundary="start"):
    return ForecastSeries(first_z=first_z, y_hat=y, u_hat=u, boundary=boundary,
                          year=year)


def line_series(n=20, z_start=1.0, boundary_day=60.0, noise=None, u=None):
    z = np.arange(z_start, z_start + n)
    y = boundary_day - z
    if noise is not None:
        y = y + noise
    if u is None:
        u = np.ones(n)
    return make_series(z_start, y, u)


class TestTypes:
    def test_series_validation(self):
        with pytest.raises(NonPositiveWeightError):
            make_series(1.0, [5.0, 4.0], [1.0, 0.0])
        for first_z, y, u in ((1.0, [5.0, np.nan], [1.0, 1.0]),
                              (1.0, [5.0, 4.0], [np.inf, 1.0]),
                              (np.inf, [5.0, 4.0], [1.0, 1.0])):
            with pytest.raises(NonFiniteError):
                make_series(first_z, y, u)
        for y, u in (([5.0, 4.0], [1.0]), ([[5.0, 4.0]], [[1.0, 1.0]])):
            with pytest.raises(InvalidRecordError):
                make_series(1.0, y, u)

    def test_series_days_are_consecutive(self):
        y, u = np.array([5.0, 4.0, 3.0]), np.ones(3)
        series = make_series(7, y, u)
        z, y_hat, u_hat = series.arrays()
        assert z.tolist() == [7.0, 8.0, 9.0]
        assert np.array_equal(y_hat, y) and np.array_equal(u_hat, u)
        y[0] = 99.0  # the series holds its own read-only copy
        assert series.y_hat[0] == 5.0 and not series.y_hat.flags.writeable
        assert series == make_series(7.0, [5.0, 4.0, 3.0], [1.0, 1.0, 1.0])
        assert series != make_series(8.0, [5.0, 4.0, 3.0], [1.0, 1.0, 1.0])
        assert series != make_series(7.0, [5.0, 4.0, 3.0], [1.0, 1.0, 2.0])

    def test_series_boundary_name(self):
        with pytest.raises(InvalidRecordError):
            make_series(1, [5, 4], [1, 1], boundary="middle")

    def test_prefix(self):
        series = line_series(n=10, z_start=3.0)
        head = series.prefix(4)
        assert len(head) == 4
        assert head == make_series(3.0, series.y_hat[:4], series.u_hat[:4])
        assert [a.tolist() for a in head.arrays()] == [
            a[:4].tolist() for a in series.arrays()]

    def test_wlsfit_validation(self):
        with pytest.raises(TooFewPointsError):
            WLSFit(
                beta0=1.0, beta1=-1.0, var_beta0=0.0, var_beta1=0.0,
                sigma_prime_sq=0.0, n_points=1,
            )

    def test_final_forecast_validation(self):
        with pytest.raises(InvalidRecordError):
            FinalForecast(y_star=10.0, sigma_y_star=-0.1)

    def test_threshold_analysis_validation(self):
        with pytest.raises(InvalidRecordError):
            ThresholdAnalysis(
                beta0=0.0, beta1=1.0, table=((2, 0.5), (2, 0.4)), n_min=2
            )
        with pytest.raises(InvalidRecordError):
            ThresholdAnalysis(
                beta0=0.0, beta1=1.0, table=((2, 1.5), (3, 1.2)), n_min=3
            )


class TestFitWls:
    def test_exact_line(self):
        rng = np.random.default_rng(0)
        series = line_series(n=15, boundary_day=10.0, z_start=-5.0,
                             u=rng.uniform(0.2, 3.0, size=15))
        fit = fit_wls(series)
        assert fit.beta0 == pytest.approx(10.0, abs=1e-9)
        assert fit.beta1 == pytest.approx(-1.0, abs=1e-12)
        assert fit.sigma_prime_sq == pytest.approx(0.0, abs=1e-18)

    def test_uniform_weights_match_covariance_closed_form(self):
        rng = np.random.default_rng(1)
        z = np.arange(10.0, 40.0)
        y = 55.0 - z + rng.normal(0, 3.0, size=z.size)
        fit = fit_wls(make_series(z[0], y, np.ones(z.size)))
        slope = np.mean((z - z.mean()) * (y - y.mean())) / np.mean(
            (z - z.mean()) ** 2
        )
        intercept = y.mean() - slope * z.mean()
        assert fit.beta1 == pytest.approx(slope, rel=1e-12)
        assert fit.beta0 == pytest.approx(intercept, rel=1e-12)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = 50
            z = np.arange(7.0, 7.0 + n)
            y = 80.0 - z + rng.normal(0, 2.0, size=n)
            u = rng.uniform(0.3, 4.0, size=n)
            fit = fit_wls(make_series(z[0], y, u))
            w = 1.0 / u**2
            design = np.stack([np.ones(n), z], axis=1) * np.sqrt(w)[:, None]
            coef, *_ = np.linalg.lstsq(design, y * np.sqrt(w), rcond=None)
            assert fit.beta0 == pytest.approx(coef[0], rel=1e-10)
            assert fit.beta1 == pytest.approx(coef[1], rel=1e-10)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(3)
        z = np.arange(1.0, 31.0)
        y = 60.0 - z + rng.normal(0, 2.0, size=30)
        u = rng.uniform(0.5, 2.0, size=30)
        a = fit_wls(make_series(z[0], y, u))
        b = fit_wls(make_series(z[0], y, 10.0 * u))
        assert b.beta0 == pytest.approx(a.beta0, rel=1e-13)
        assert b.beta1 == pytest.approx(a.beta1, rel=1e-13)
        ya = final_forecast(a).y_star
        yb = final_forecast(b).y_star
        assert yb == pytest.approx(ya, rel=1e-13)

    @given(n=st.integers(2, 80), first_z=st.integers(-400, 400),
           shift=st.integers(-10**6, 10**6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_shift_equivariance(self, n, first_z, shift, seed):
        # Moving every day by d keeps the slope and moves y* by d.  The
        # propagated sigma is not shift-invariant (no covariance term), so
        # it is not compared.
        rng = np.random.default_rng(seed)
        y = 70.0 - (first_z + np.arange(n)) + rng.normal(0, 1.5, size=n)
        u = rng.uniform(0.25, 50.0, size=n)
        base = fit_wls(make_series(first_z, y, u))
        moved = fit_wls(make_series(first_z + shift, y, u))
        assert moved.beta1 == pytest.approx(base.beta1, rel=1e-9, abs=1e-12)
        if abs(base.beta1) > 1e-3:
            y_star = final_forecast(base).y_star
            assert final_forecast(moved).y_star == pytest.approx(
                y_star + shift, rel=1e-10, abs=1e-10 * (1.0 + abs(shift)))

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            fit_wls(make_series(1.0, [5.0], [1.0]))

    @pytest.mark.parametrize("u_hat", [1e-200, 1e160])
    def test_weight_out_of_range(self, u_hat):
        # 1/u^2 overflows to inf at 1e-200 and underflows to 0 at 1e160
        with np.errstate(over="ignore", divide="ignore"):
            with pytest.raises(NonPositiveWeightError):
                fit_wls(make_series(1.0, [5.0, 4.0, 3.0], [1.0, u_hat, 1.0]))

    def test_degenerate_design(self):
        # 2**53 + 1 rounds back to 2**53, so the two days share one z
        with pytest.raises(DegenerateDesignError):
            fit_wls(make_series(2.0**53, [1.0, 2.0], [1.0, 1.0]))

    def test_heavier_weight_pulls_line(self):
        # Two clusters disagree; weighting one of them harder must move
        # the fit toward it.
        z = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([59.0, 58.0, 50.0, 49.0])
        tight_tail = fit_wls(make_series(1.0, y, [10.0, 10.0, 0.1, 0.1]))
        tight_head = fit_wls(make_series(1.0, y, [0.1, 0.1, 10.0, 10.0]))
        resid_tail = y[3] - (tight_tail.beta0 + tight_tail.beta1 * z[3])
        resid_head = y[3] - (tight_head.beta0 + tight_head.beta1 * z[3])
        assert abs(resid_tail) < abs(resid_head)


class TestFinalForecast:
    def test_intercept_extraction(self):
        fit = fit_wls(line_series(boundary_day=10.0, n=8))
        final = final_forecast(fit)
        assert final.y_star == pytest.approx(10.0, abs=1e-9)
        assert final.sigma_y_star == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_slope(self):
        flat = WLSFit(
            beta0=5.0, beta1=0.0, var_beta0=0.1, var_beta1=0.1,
            sigma_prime_sq=1.0, n_points=5,
        )
        with pytest.raises(DegenerateSlopeError):
            final_forecast(flat)

    def test_matches_relative_variance_form(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(5, 40))
            z = np.arange(1.0, 1.0 + n)
            y = 50.0 - z + rng.normal(0, 2.0, size=n)
            u = rng.uniform(0.4, 3.0, size=n)
            fit = fit_wls(make_series(z[0], y, u))
            if fit.beta0 == 0.0:
                continue
            final = final_forecast(fit)
            printed = abs(fit.beta0 / fit.beta1) * math.sqrt(
                fit.var_beta0 / fit.beta0**2 + fit.var_beta1 / fit.beta1**2
            )
            assert final.sigma_y_star == pytest.approx(printed, rel=1e-12)

    def test_finite_at_zero_intercept(self):
        fit = WLSFit(
            beta0=0.0, beta1=-1.0, var_beta0=0.04, var_beta1=0.01,
            sigma_prime_sq=1.0, n_points=5,
        )
        final = final_forecast(fit)
        assert final.y_star == 0.0
        assert final.sigma_y_star == pytest.approx(0.2)


class TestThresholdFunction:
    def test_hand_evaluated_base_case(self):
        assert threshold_function(0.0, 1.0, 2, 0.0) == pytest.approx(0.5)

    def test_zero_intercept_closed_form(self):
        # With beta0=0 and z starting at 0 the function collapses to
        # 1/N^2 + 3(N-1)/(N^2 (N+1)).
        for n in range(2, 21):
            closed = 1.0 / n**2 + 3.0 * (n - 1) / (n**2 * (n + 1))
            assert threshold_function(0.0, 1.0, n, 0.0) == pytest.approx(
                closed, rel=1e-12
            )

    def test_increasing_in_intercept_magnitude(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            z_start = float(rng.uniform(-20, 20))
            beta1 = float(rng.choice([-1, 1]) * rng.uniform(0.2, 3.0))
            values = [
                threshold_function(b0, beta1, n, z_start)
                for b0 in (0.0, 5.0, 10.0, 25.0)
            ]
            assert values == sorted(values)
            assert values[0] < values[-1]

    def test_slope_scale(self):
        # Doubling |beta1| divides the leading 1/N term by 4 and the
        # intercept term by 16; the function must strictly decrease.
        assert threshold_function(10.0, 2.0, 10, 0.0) < threshold_function(
            10.0, 1.0, 10, 0.0
        )

    def test_zero_slope(self):
        with pytest.raises(ZeroSlopeError):
            threshold_function(1.0, 0.0, 5, 0.0)

    def test_n_too_small(self):
        with pytest.raises(TooFewPointsError):
            threshold_function(1.0, 1.0, 1, 0.0)


class TestMinDays:
    def test_zero_intercept_needs_two_days(self):
        analysis = min_days(0.0, 1.0, 0.0)
        assert analysis.n_min == 2

    def test_intercept_ten_needs_seven_days(self):
        analysis = min_days(10.0, 1.0, 0.0)
        assert analysis.n_min == 7

    def test_absent_when_never_below_one(self):
        analysis = min_days(1e6, 1.0, 0.0, n_max=10)
        assert analysis.n_min is None
        assert all(f >= 1.0 for _, f in analysis.table)

    def test_n_max_at_most_366(self):
        assert len(min_days(10.0, 1.0, 0.0, n_max=366).table) == 365
        with pytest.raises(InvalidRecordError, match="n_max must be <= 366"):
            min_days(10.0, 1.0, 0.0, n_max=367)

    def test_table_contents(self):
        analysis = min_days(10.0, 1.0, 0.0, n_max=30)
        ns = [n for n, _ in analysis.table]
        assert ns == list(range(2, 31))
        for n, f in analysis.table:
            assert f == pytest.approx(threshold_function(10.0, 1.0, n, 0.0))

    @pytest.mark.parametrize("z_start", [1e308, -1e308])
    def test_day_moments_past_the_float_range(self, z_start):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(NonFiniteError, match="day moments"):
                min_days(10.0, -1.0, z_start=z_start, n_max=4)

    def test_threshold_semantics_when_monotone(self):
        analysis = min_days(10.0, 1.0, 0.0, n_max=60)
        fs = [f for _, f in analysis.table]
        assert all(b < a for a, b in zip(fs, fs[1:]))  # monotone decreasing
        for n, f in analysis.table:
            assert (n >= analysis.n_min) == (f < 1.0)


class TestPropagationIdentity:
    def test_pinned_case(self):
        lhs, rhs = propagation_identity_check(10.0, 1.0, 7, 0.0, 5.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert lhs < 1.0 and rhs < 1.0

    def test_randomized_campaign(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            beta0 = float(rng.uniform(-50, 50))
            beta1 = float(rng.choice([-1, 1]) * rng.uniform(0.2, 3.0))
            n = int(rng.integers(2, 80))
            z_start = float(rng.uniform(-20, 20))
            sigma0 = float(rng.uniform(0.1, 10.0))
            lhs, rhs = propagation_identity_check(beta0, beta1, n, z_start, sigma0)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_zero_intercept(self):
        lhs, rhs = propagation_identity_check(0.0, -1.0, 12, 3.0, 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_sigma0_cancels(self):
        a = propagation_identity_check(10.0, 1.0, 7, 0.0, 1.0)[1]
        b = propagation_identity_check(10.0, 1.0, 7, 0.0, 9.0)[1]
        assert a == pytest.approx(b, rel=1e-12)


class TestMonteCarlo:
    def test_noiseless(self):
        result = monte_carlo_variance(60.0, 0.0, 10, 1.0, trials=100, seed=0)
        assert result.empirical_std == pytest.approx(0.0, abs=1e-9)
        assert result.mean_y_star == pytest.approx(60.0, abs=1e-9)

    def test_forty_days_beat_single_prediction(self):
        result = monte_carlo_variance(60.0, 5.0, 40, 1.0, trials=2000, seed=7)
        assert result.empirical_std < 5.0

    def test_spread_shrinks_with_more_days(self):
        stds = [
            monte_carlo_variance(60.0, 5.0, n, 1.0, trials=800, seed=11).empirical_std
            for n in (10, 20, 40, 80)
        ]
        assert all(b < a for a, b in zip(stds, stds[1:]))

    def test_deterministic(self):
        a = monte_carlo_variance(60.0, 5.0, 15, 1.0, trials=150, seed=3)
        b = monte_carlo_variance(60.0, 5.0, 15, 1.0, trials=150, seed=3)
        assert a == b

    def test_trials_floor(self):
        with pytest.raises(InvalidRecordError):
            monte_carlo_variance(60.0, 5.0, 15, 1.0, trials=50, seed=3)


class TestExports:
    def test_threshold_csv(self, tmp_path):
        analysis = min_days(0.0, 1.0, 0.0, n_max=4)
        path = tmp_path / "threshold.csv"
        emit_threshold_csv(analysis, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "N,f_th"
        assert lines[1].startswith("2,")
        assert float(lines[1].split(",")[1]) == 0.5
        emit_threshold_csv(analysis, str(tmp_path / "again.csv"))
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_forecast_json(self, tmp_path):
        fit = fit_wls(line_series(boundary_day=42.0, n=10))
        final = final_forecast(fit)
        path = tmp_path / "forecast.json"
        emit_forecast_json(final, fit, str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"y_star", "sigma_y_star", "beta0", "beta1", "n_points"}
        assert doc["y_star"] == pytest.approx(42.0)
        assert doc["n_points"] == 10

    def test_series_csv(self, tmp_path):
        series = line_series(n=5)
        path = tmp_path / "series.csv"
        emit_series_csv(series, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "z,y_hat,u_hat"
        assert len(lines) == 6

    def test_series_csv_bytes_pinned(self, tmp_path):
        # sha256 of the file as written when wls had its own csv.writer
        series = make_series(40.0, [60.0 - k + (k % 3) / 7 for k in range(20)],
                             [0.5 + k / 13 for k in range(20)])
        path = tmp_path / "series.csv"
        emit_series_csv(series, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "52a8025f23fed3004def38813751fd6d10cb644b4eff1606ab587c8dd3d36a6a"
        )

    def test_threshold_csv_bytes_pinned(self, tmp_path):
        path = tmp_path / "threshold.csv"
        emit_threshold_csv(min_days(10.0, -1.0, z_start=1.0, n_max=40), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "e7c941fa1d4d0f91cca2834b81aab9771da7c6cd8d3691c4ceebc062e88f6536"
        )
