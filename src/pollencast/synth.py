"""Seeded synthetic daily weather and pollen generator.

Pollen release is tied to accumulated warmth: each spring, once the running
sum of degree-days above a base temperature crosses a per-year requirement,
a pollen bump begins.  Because the covariates (temperature, its slow soil
echo, rain) drive the bump, a learner that reads them has a real signal for
where the season boundary lies, which is the whole point of the exercise.
"""

from __future__ import annotations

import datetime as dt
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, read_json
from .errors import InvalidRecordError


@dataclass(frozen=True)
class GeneratorProfile:
    """Tunable parameters of the synthetic climate.

    Temperature follows a sinusoidal annual cycle with AR(1) weather noise
    and a per-year warmth offset; the pollen bump starts when growing
    degree-days cross ``gdd_requirement`` and decays over ``decay_width``
    days.  Defaults are tuned so the 17-year seed-42 dataset yields
    realistic start-day spread under a (120 grains/m3, 4 days) season rule.
    """

    start_year: int = 2003
    # Annual temperature cycle (degC)
    tavg_mean: float = 10.0
    tavg_amplitude: float = 11.0
    coldest_doy: int = 20
    # AR(1) weather noise around the cycle
    noise_sigma: float = 2.4
    noise_rho: float = 0.72
    # Per-year climate offset (degC, i.i.d. normal)
    year_offset_sigma: float = 1.1
    # Daily spread between tavg and tmin/tmax (degC)
    diurnal_spread_mean: float = 4.5
    diurnal_spread_sigma: float = 1.2
    # Growing degree-days: accumulation above gdd_base starting Jan 1
    gdd_base: float = 4.0
    gdd_requirement_mean: float = 280.0
    gdd_requirement_sigma: float = 45.0
    # Pollen bump shape (grains/m3 and days)
    peak_mean: float = 620.0
    peak_sigma: float = 110.0
    rise_width: float = 12.0
    decay_width_mean: float = 28.0
    decay_width_sigma: float = 5.0
    pollen_noise_sigma: float = 18.0
    baseline_pollen: float = 3.0
    # Rain suppresses airborne pollen by this fraction per mm
    rain_washout: float = 0.055
    # Chance of rain and its size (mm, exponential)
    rain_prob: float = 0.34
    rain_scale: float = 4.0
    # Soil temperature: exponential moving average of tavg
    soil_alpha: float = 0.06

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = (int,) if f.type == "int" else (int, float)
            # the float range also bounds an int, which numpy turns to a float
            if (isinstance(value, bool) or not isinstance(value, kinds)
                    or not abs(value) <= sys.float_info.max):
                kind = "integer" if f.type == "int" else "number"
                raise InvalidRecordError(f"{f.name} must be a finite {kind}, got {value!r}")
            if f.name.endswith(("_sigma", "_scale")) and value < 0:
                raise InvalidRecordError(f"{f.name} must be >= 0, got {value!r}")
        if self.start_year < 1:
            raise InvalidRecordError(f"start_year must be >= 1, got {self.start_year}")
        if not -1 <= self.noise_rho <= 1:
            raise InvalidRecordError(f"noise_rho must be in [-1, 1], got {self.noise_rho}")
        if self.rise_width <= 0 or self.decay_width_mean <= 0:
            raise InvalidRecordError("bump widths must be positive")
        if not 0 < self.soil_alpha <= 1:
            raise InvalidRecordError("soil_alpha must be in (0, 1]")
        if self.gdd_requirement_mean <= 0:
            raise InvalidRecordError("gdd_requirement_mean must be positive")

    @classmethod
    def from_json(cls, path: str) -> "GeneratorProfile":
        """Load a profile from a JSON object in a file; unknown keys are rejected."""
        raw = read_json(path, f"generator profile {path}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise InvalidRecordError(
                f"unknown generator profile keys: {', '.join(sorted(unknown))}"
            )
        return cls(**raw)


@np.errstate(all="ignore")  # extreme profiles overflow; from_matrix refuses the result
def generate_synthetic(
    seed: int, years: int, profile: GeneratorProfile | None = None
) -> Dataset:
    """Generate ``years`` consecutive calendar years of daily records.

    Deterministic in ``seed``: two calls with equal arguments return equal
    datasets.  Covariates are generated first, then pollen is derived from
    them, so the weather genuinely precedes the pollen signal.
    """
    if years < 1:
        raise InvalidRecordError(f"years must be >= 1, got {years}")
    p = profile or GeneratorProfile()
    last_year = p.start_year + years - 1
    if last_year > 9999:  # the last year a date can have
        raise InvalidRecordError(f"years {p.start_year}..{last_year} go past 9999")
    rng = np.random.default_rng(seed)

    # datetime64 years count from 1970 and reach past 9999
    days = np.arange(np.datetime64(p.start_year - 1970, "Y"),
                     np.datetime64(last_year + 1 - 1970, "Y"), dtype="datetime64[D]")
    n_days = days.size
    doy = (days - days.astype("datetime64[Y]")).astype(np.float64) + 1.0
    year_index = days.astype("datetime64[Y]").astype(np.int64) - (p.start_year - 1970)

    # Per-year draws, one batch per quantity to keep the stream layout simple
    year_offset = rng.normal(0.0, p.year_offset_sigma, size=years)
    gdd_req = np.maximum(
        rng.normal(p.gdd_requirement_mean, p.gdd_requirement_sigma, size=years), 60.0
    )
    peak = np.maximum(rng.normal(p.peak_mean, p.peak_sigma, size=years), 150.0)
    decay_width = np.maximum(
        rng.normal(p.decay_width_mean, p.decay_width_sigma, size=years), 8.0
    )

    # Temperature: annual cycle + per-year offset + AR(1) noise
    cycle = p.tavg_mean - p.tavg_amplitude * np.cos(
        2.0 * math.pi * (doy - p.coldest_doy) / 365.25
    )
    offset_by_day = year_offset[year_index]
    eps = rng.normal(0.0, p.noise_sigma, size=n_days)
    noise = np.empty(n_days)
    acc = 0.0
    innov_scale = math.sqrt(1.0 - p.noise_rho**2)
    for i in range(n_days):
        acc = p.noise_rho * acc + innov_scale * eps[i]
        noise[i] = acc
    tavg = cycle + offset_by_day + noise

    spread = np.maximum(
        rng.normal(p.diurnal_spread_mean, p.diurnal_spread_sigma, size=n_days), 0.5
    )
    tmin = tavg - spread
    tmax = tavg + spread

    # Rain, humidity, and the remaining covariates
    rain_mask = rng.random(n_days) < p.rain_prob
    precip = np.where(rain_mask, rng.exponential(p.rain_scale, size=n_days), 0.0)
    humidity = np.clip(
        62.0 + 22.0 * rain_mask + rng.normal(0.0, 7.0, size=n_days) - 0.55 * noise,
        5.0,
        100.0,
    )
    cloud_cover = np.clip(
        38.0 + 40.0 * rain_mask + rng.normal(0.0, 14.0, size=n_days), 0.0, 100.0
    )
    sunshine_hours = np.clip(
        (8.0 + 4.2 * np.sin(2.0 * math.pi * (doy - 81.0) / 365.25))
        * (1.0 - cloud_cover / 130.0)
        + rng.normal(0.0, 0.6, size=n_days),
        0.0,
        16.0,
    )
    wind_speed = np.maximum(rng.gamma(2.4, 1.5, size=n_days), 0.0)
    pressure = 1013.0 + rng.normal(0.0, 6.5, size=n_days) - 2.2 * rain_mask
    # Dew point sits below tavg, closer when humid
    dew_point = tavg - (100.0 - humidity) / 5.0
    soil_temp = np.empty(n_days)
    s = tavg[0]
    for i in range(n_days):
        s = (1.0 - p.soil_alpha) * s + p.soil_alpha * tavg[i]
        soil_temp[i] = s

    # Growing degree-days per year drive the pollen onset
    pollen = np.full(n_days, p.baseline_pollen)
    pos = 0
    for yi, nd in enumerate(np.bincount(year_index).tolist()):
        t_year = tavg[pos : pos + nd]
        gdd = np.cumsum(np.maximum(t_year - p.gdd_base, 0.0))
        crossed = np.nonzero(gdd >= gdd_req[yi])[0]
        # Very cold years may never accumulate enough warmth: no season
        if crossed.size:
            onset = int(crossed[0])
            t = np.arange(nd, dtype=np.float64) - onset
            bump = np.where(
                t < 0,
                np.exp(-0.5 * (t / p.rise_width) ** 2),
                np.exp(-0.5 * (t / decay_width[yi]) ** 2),
            )
            pollen[pos : pos + nd] = pollen[pos : pos + nd] + peak[yi] * bump
        pos += nd

    washout = np.exp(-p.rain_washout * precip)
    pollen = pollen * washout + rng.normal(0.0, p.pollen_noise_sigma, size=n_days)
    pollen = np.maximum(pollen, 0.0)

    values = np.stack([pollen, tmax, tmin, tavg, precip, humidity, wind_speed, pressure,
                       sunshine_hours, dew_point, cloud_cover, soil_temp], axis=1)
    return Dataset.from_matrix(dt.date(p.start_year, 1, 1), values)
