"""Stage-3 fusion: weighted linear regression over a prediction series.

Predictions made on consecutive days z for the same season boundary must
fall on a line of slope -1 (one day closer per day), so a weighted linear
fit of prediction against day turns the whole series into one estimate:
the z-intercept -beta0/beta1 is the forecast boundary day.  Weights come
from per-day uncertainty (w = 1/u^2).  A series is held as arrays: its
first day, then one predicted countdown and one uncertainty per day.

The theory half quantifies when fusing N consecutive predictions beats a
single prediction: a threshold function f_th(N) compares the propagated
variance of the fused forecast against the single-day variance, and the
minimum day count N_n is the first N where f_th drops below 1.  A Monte
Carlo routine provides the empirical check of those closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import write_csv, write_json
from .errors import (
    DegenerateDesignError,
    DegenerateSlopeError,
    InvalidRecordError,
    NonFiniteError,
    NonPositiveWeightError,
    TooFewPointsError,
    ZeroSlopeError,
)

#: Smallest |slope| from which a boundary date may still be extracted.
SLOPE_FLOOR = 1e-6

#: The season boundaries a countdown can run to.
BOUNDARIES = ("start", "end")


@dataclass(frozen=True, eq=False)
class ForecastSeries:
    """Predictions for one year's season boundary at consecutive days.

    Day i of the series is z = first_z + i; ``y_hat[i]`` is its predicted
    countdown and ``u_hat[i]`` (> 0) its uncertainty, a standard deviation.
    Both are read-only float64 arrays of one length.  Series compare equal
    when every field is equal, the arrays element by element.
    """

    first_z: float
    y_hat: np.ndarray
    u_hat: np.ndarray
    boundary: str
    year: int

    def __post_init__(self) -> None:
        if self.boundary not in BOUNDARIES:
            raise InvalidRecordError(
                f"boundary must be 'start' or 'end', got {self.boundary!r}"
            )
        first_z = float(self.first_z)
        y, u = np.array(self.y_hat, np.float64), np.array(self.u_hat, np.float64)
        if y.ndim != 1 or y.shape != u.shape:
            raise InvalidRecordError(f"y_hat and u_hat must be 1-D of one "
                                     f"length, got {y.shape} and {u.shape}")
        if not (math.isfinite(first_z) and np.isfinite(y).all()
                and np.isfinite(u).all()):
            raise NonFiniteError("forecast series has non-finite values")
        if (u <= 0).any():
            raise NonPositiveWeightError(f"u_hat must be > 0, got {u.min()}")
        y.flags.writeable = u.flags.writeable = False
        object.__setattr__(self, "first_z", first_z)
        object.__setattr__(self, "y_hat", y)
        object.__setattr__(self, "u_hat", u)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ForecastSeries)
                and (self.first_z, self.boundary, self.year)
                == (other.first_z, other.boundary, other.year)
                and np.array_equal(self.y_hat, other.y_hat)
                and np.array_equal(self.u_hat, other.u_hat))

    def __len__(self) -> int:
        return self.y_hat.size

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(z, y_hat, u_hat), with z = first_z + 0, 1, 2, ..."""
        z = self.first_z + np.arange(len(self), dtype=np.float64)
        return z, self.y_hat, self.u_hat

    def prefix(self, k: int) -> "ForecastSeries":
        """The series truncated to its first k days."""
        return ForecastSeries(first_z=self.first_z, y_hat=self.y_hat[:k],
                              u_hat=self.u_hat[:k], boundary=self.boundary,
                              year=self.year)


@dataclass(frozen=True)
class WLSFit:
    """Weighted least-squares line with coefficient-variance estimates.

    var_beta0 and var_beta1 follow the closed-form approximation
    var(b0) = s'^2 (1/N + zbar^2/S), var(b1) = s'^2 / S with S the
    (weighted) sum of squared day deviations and s'^2 = sigma0^2 / N,
    sigma0^2 being the weighted mean squared residual.
    """

    beta0: float
    beta1: float
    var_beta0: float
    var_beta1: float
    sigma_prime_sq: float
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise TooFewPointsError("a line fit needs at least 2 points")
        if self.var_beta0 < 0 or self.var_beta1 < 0 or self.sigma_prime_sq < 0:
            raise InvalidRecordError("variances must be non-negative")


@dataclass(frozen=True)
class FinalForecast:
    """The fused boundary estimate and its propagated standard deviation."""

    y_star: float
    sigma_y_star: float

    def __post_init__(self) -> None:
        if self.sigma_y_star < 0:
            raise InvalidRecordError("sigma_y_star must be >= 0")


@dataclass(frozen=True)
class ThresholdAnalysis:
    """f_th(N) table for assumed coefficients, and the minimum day count."""

    beta0: float
    beta1: float
    table: tuple[tuple[int, float], ...]
    n_min: int | None

    def __post_init__(self) -> None:
        ns = [n for n, _ in self.table]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise InvalidRecordError("table N values must be strictly increasing")
        if self.n_min is not None:
            by_n = dict(self.table)
            if not by_n[self.n_min] < 1.0:
                raise InvalidRecordError("f_th(n_min) must be < 1")
            if self.n_min - 1 in by_n and not by_n[self.n_min - 1] >= 1.0:
                raise InvalidRecordError("f_th(n_min - 1) must be >= 1")


def fit_wls(series: ForecastSeries) -> WLSFit:
    """Fit y_hat = beta0 + beta1 z by weighted least squares, w = 1/u_hat^2.

    Also returns the coefficient-variance approximations; with uniform
    weights these reduce to the textbook simple-regression formulas.
    """
    n = len(series)
    if n < 2:
        raise TooFewPointsError(f"need at least 2 points, got {n}")
    z, y, u = series.arrays()
    w = 1.0 / u**2
    if not np.isfinite(w).all():
        raise NonPositiveWeightError("weights overflow: u_hat too small")
    if not (w > 0).all():
        raise NonPositiveWeightError("weights underflow to 0: u_hat too large")

    w_sum = w.sum()
    z_bar = float((w * z).sum() / w_sum)
    y_bar = float((w * y).sum() / w_sum)
    s_zz = float((w * (z - z_bar) ** 2).sum())
    if s_zz == 0.0:
        # consecutive days round to one value from z = 2**53 on
        raise DegenerateDesignError("all z identical; slope undefined")
    beta1 = float((w * (z - z_bar) * (y - y_bar)).sum() / s_zz)
    beta0 = y_bar - beta1 * z_bar

    residuals = y - (beta0 + beta1 * z)
    sigma0_sq = float((w * residuals**2).sum() / w_sum)
    sigma_prime_sq = sigma0_sq / n
    # Weighted day moments, normalized so uniform weights recover the
    # plain sum of squared deviations.
    s_weighted = n * (s_zz / w_sum)
    var_beta0 = sigma_prime_sq * (1.0 / n + z_bar**2 / s_weighted)
    var_beta1 = sigma_prime_sq / s_weighted

    return WLSFit(
        beta0=float(beta0),
        beta1=float(beta1),
        var_beta0=float(var_beta0),
        var_beta1=float(var_beta1),
        sigma_prime_sq=float(sigma_prime_sq),
        n_points=n,
    )


def final_forecast(fit: WLSFit) -> FinalForecast:
    """Extract the boundary day as the z-intercept -beta0/beta1.

    The standard deviation propagates the two coefficient variances with
    no covariance term, computed in the factored form
    sqrt(var_b0 + y*^2 var_b1)/|b1|, which equals the relative-variance
    product form wherever both are defined and stays finite at beta0 = 0.
    """
    if abs(fit.beta1) <= SLOPE_FLOOR:
        raise DegenerateSlopeError(
            f"|beta1|={abs(fit.beta1):.2e} too close to zero for a forecast"
        )
    y_star = -fit.beta0 / fit.beta1
    sigma = math.sqrt(fit.var_beta0 + y_star**2 * fit.var_beta1) / abs(fit.beta1)
    return FinalForecast(y_star=float(y_star), sigma_y_star=float(sigma))


def _day_moments(n: int, z_start: float) -> tuple[float, float]:
    """The mean day and the sum of squared day deviations over the days
    z_start .. z_start+n-1; both must be finite."""
    z = z_start + np.arange(n, dtype=np.float64)
    with np.errstate(all="ignore"):  # a sum past the float range is refused below
        z_bar = float(z.mean())
        s = float(((z - z_bar) ** 2).sum())
    if not (math.isfinite(z_bar) and math.isfinite(s)):
        raise NonFiniteError(f"the day moments of {n} days from z = {z_start!r} "
                             f"leave the float range")
    return z_bar, s


def threshold_function(beta0: float, beta1: float, n: int, z_start: float) -> float:
    """Variance-reduction ratio of fusing n consecutive daily predictions.

    f_th(n) = (1/(n b1^2)) (1/n + zbar^2/S + (b0^2/b1^2)/S) over the days
    z_start .. z_start+n-1.  Values below 1 mean the fused forecast is less
    uncertain than a single prediction.
    """
    if n < 2:
        raise TooFewPointsError(f"threshold function needs n >= 2, got {n}")
    if beta1 == 0.0:
        raise ZeroSlopeError("beta1 must be nonzero")
    z_bar, s = _day_moments(n, z_start)
    try:
        f = (1.0 / (n * beta1**2)) * (
            1.0 / n + z_bar**2 / s + (beta0**2 / beta1**2) / s
        )
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonFiniteError(f"f_th({n}) leaves the float range: {exc}") from exc
    if not math.isfinite(f):
        raise NonFiniteError(f"f_th({n}) leaves the float range: {f!r}")
    return f


def min_days(
    beta0: float, beta1: float, z_start: float, n_max: int = 100
) -> ThresholdAnalysis:
    """Scan f_th(N) for N = 2..n_max; the first N below 1 is the minimum
    number of prediction days worth collecting."""
    if n_max < 2:
        raise TooFewPointsError(f"n_max must be >= 2, got {n_max}")
    if n_max > 366:  # a forecast window holds at most horizon + 1 <= 366 days
        raise InvalidRecordError(f"n_max must be <= 366, got {n_max}")
    table = []
    n_min = None
    for n in range(2, n_max + 1):
        f = threshold_function(beta0, beta1, n, z_start)
        table.append((n, f))
        if n_min is None and f < 1.0:
            n_min = n
    return ThresholdAnalysis(
        beta0=float(beta0), beta1=float(beta1), table=tuple(table), n_min=n_min
    )


def propagation_identity_check(
    beta0: float, beta1: float, n: int, z_start: float, sigma0: float
) -> tuple[float, float]:
    """Cross-check the threshold function against assembled propagation.

    lhs: f_th(n) directly.  rhs: sigma^2(y*)/sigma0^2 built from the
    component formulas: coefficient variances from the day moments,
    s'^2 = sigma0^2/n, variance of the intercept ratio with no covariance
    term.  The two must agree to floating-point accuracy; rhs uses the
    factored variance form when beta0 = 0, which is algebraically the
    same expression.
    """
    lhs = threshold_function(beta0, beta1, n, z_start)
    if sigma0 <= 0:
        raise InvalidRecordError("sigma0 must be positive")
    z_bar, s = _day_moments(n, z_start)
    sigma_prime_sq = sigma0**2 / n
    var_beta0 = sigma_prime_sq * (1.0 / n + z_bar**2 / s)
    var_beta1 = sigma_prime_sq / s
    if beta0 != 0.0:
        y_star = -beta0 / beta1
        var_y_star = y_star**2 * (var_beta0 / beta0**2 + var_beta1 / beta1**2)
    else:
        var_y_star = var_beta0 / beta1**2
    rhs = var_y_star / sigma0**2
    return lhs, rhs


@dataclass(frozen=True)
class MonteCarloResult:
    empirical_std: float
    mean_reported_sigma: float
    mean_y_star: float
    trials: int


def monte_carlo_variance(
    boundary: float,
    sigma0: float,
    n: int,
    z_start: float,
    trials: int = 2000,
    seed: int = 0,
) -> MonteCarloResult:
    """Empirical spread of the fused forecast under the idealized model.

    Each trial draws y_i = boundary - z_i + eps_i with independent Gaussian
    noise of std sigma0, fits the line with uniform weights, and extracts
    y*.  Per-trial generators are spawned from the master seed, so results
    do not depend on scheduling order.
    """
    if trials < 100:
        raise InvalidRecordError(f"trials must be >= 100, got {trials}")
    if n < 2:
        raise TooFewPointsError(f"need n >= 2 prediction days, got {n}")
    if sigma0 < 0:
        raise InvalidRecordError("sigma0 must be >= 0")
    z = z_start + np.arange(n, dtype=np.float64)
    streams = np.random.SeedSequence(seed).spawn(trials)
    y_stars = np.empty(trials)
    sigmas = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng(streams[t])
        y = boundary - z + rng.normal(0.0, sigma0, size=n) if sigma0 > 0 else boundary - z
        # the fit reads neither the boundary nor the year of a series
        fc = final_forecast(fit_wls(ForecastSeries(
            first_z=z_start, y_hat=y, u_hat=np.ones(n), boundary="start", year=0)))
        y_stars[t] = fc.y_star
        sigmas[t] = fc.sigma_y_star
    return MonteCarloResult(
        empirical_std=float(np.std(y_stars, ddof=1)),
        mean_reported_sigma=float(sigmas.mean()),
        mean_y_star=float(y_stars.mean()),
        trials=trials,
    )


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def emit_threshold_csv(analysis: ThresholdAnalysis, path: str) -> None:
    """The (N, f_th) table as CSV, the data behind a threshold plot."""
    write_csv(path, ("N", "f_th"), analysis.table)


def emit_forecast_json(final: FinalForecast, fit: WLSFit, path: str) -> None:
    write_json(path, {
        "y_star": final.y_star,
        "sigma_y_star": final.sigma_y_star,
        "beta0": fit.beta0,
        "beta1": fit.beta1,
        "n_points": fit.n_points,
    })


def emit_series_csv(series: ForecastSeries, path: str) -> None:
    """Per-day predictions as CSV `z,y_hat,u_hat` (convergence plot data)."""
    write_csv(path, ("z", "y_hat", "u_hat"), zip(*(a.tolist() for a in series.arrays())))
