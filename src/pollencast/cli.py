"""Command-line interface: synth, label, train, predict, backtest, threshold.

Every flag has a config-file equivalent (``--config settings.json``); flags
given on the command line override file values.  Exit codes are stable for
scripting: 0 success, 2 runtime or data error, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from collections.abc import Sequence

from . import backtest as bt
from .data import SeasonDefinition, ingest_csv, label_years
from .errors import PollencastError
from .gbm import GBMConfig
from .pipeline import DEFAULT_HORIZON, load_forecaster, save_forecaster, train_forecaster
from .synth import GeneratorProfile, generate_synthetic
from .wls import (
    emit_forecast_json,
    emit_series_csv,
    emit_threshold_csv,
    final_forecast,
    fit_wls,
    min_days,
)

__all__ = ["main"]

log = logging.getLogger("pollencast")

EXIT_OK = 0
EXIT_RUNTIME = 2
EXIT_USAGE = 64


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    """argparse with the 64 usage-error convention instead of 2."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _global_flags(parser: argparse.ArgumentParser, top_level: bool = False) -> None:
    # Subparsers suppress defaults so an unset repeat of a global flag does
    # not clobber the value parsed at the top level.
    default = None if top_level else argparse.SUPPRESS
    parser.add_argument("--config", metavar="JSON", default=default,
                        help="JSON file supplying defaults for any flag")
    parser.add_argument("--seed", type=int, default=default,
                        help="random seed (default 0)")
    parser.add_argument("--verbose", action="store_true", default=default,
                        help="log progress to stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pollencast",
                     description="Pollen allergy-season forecasting toolkit")
    _global_flags(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth",
                       help="generate a synthetic daily dataset CSV")
    _global_flags(p)
    p.add_argument("--years", type=int, help="number of calendar years")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--profile", help="generator profile JSON")

    p = sub.add_parser("label",
                       help="print per-year season labels as CSV")
    _global_flags(p)
    p.add_argument("--input", help="daily dataset CSV")
    p.add_argument("--delta-c", type=float, help="concentration threshold")
    p.add_argument("--delta-n", type=int, help="typical-day count threshold")

    p = sub.add_parser("train",
                       help="train the two-stage forecaster and save it")
    _global_flags(p)
    p.add_argument("--input", help="daily dataset CSV")
    p.add_argument("--years", help="training years, e.g. 2003-2012 or a list")
    p.add_argument("--boundary", choices=("start", "end"))
    p.add_argument("--horizon", type=int)
    p.add_argument("--protocol", choices=("loyo", "holdout"))
    p.add_argument("--delta-c", type=float)
    p.add_argument("--delta-n", type=int)
    p.add_argument("--out", help="forecaster JSON path")

    p = sub.add_parser("predict",
                       help="forecast one year with a saved forecaster")
    _global_flags(p)
    p.add_argument("--input", help="daily dataset CSV")
    p.add_argument("--model", help="forecaster JSON from `train`")
    p.add_argument("--year", type=int)
    p.add_argument("--anchor", type=int,
                   help="last prediction day; window is (anchor-H, anchor)")
    p.add_argument("--z-start", type=int)
    p.add_argument("--z-end", type=int)
    p.add_argument("--out-series", help="per-day predictions CSV")
    p.add_argument("--out-forecast", help="final forecast JSON")

    p = sub.add_parser("backtest",
                       help="rolling-origin evaluation with report files")
    _global_flags(p)
    p.add_argument("--input", help="daily dataset CSV")
    p.add_argument("--test-years", type=int,
                   help="number of trailing years to test")
    p.add_argument("--boundary", choices=("start", "end"))
    p.add_argument("--horizon", type=int)
    p.add_argument("--policy", choices=("train_mean", "truth"))
    p.add_argument("--protocol", choices=("loyo", "holdout"))
    p.add_argument("--delta-c", type=float)
    p.add_argument("--delta-n", type=int)
    p.add_argument("--out-dir", help="report directory")

    p = sub.add_parser("threshold",
                       help="minimum-day-count table for assumed coefficients")
    _global_flags(p)
    p.add_argument("--beta0", type=float)
    p.add_argument("--beta1", type=float)
    p.add_argument("--z-start", type=float)
    p.add_argument("--n-max", type=int)
    p.add_argument("--out", help="optional CSV path for the table")

    return parser


# ---------------------------------------------------------------------------
# Config merging
# ---------------------------------------------------------------------------

#: Config keys every command accepts on top of its own options.
GLOBAL_KEYS = ("seed", "verbose", "stage1", "stage2")

OPTION_KEYS = {
    "synth": ("years", "out", "profile"),
    "label": ("input", "delta_c", "delta_n"),
    "train": ("input", "years", "boundary", "horizon", "protocol",
              "delta_c", "delta_n", "out"),
    "predict": ("input", "model", "year", "anchor", "z_start", "z_end",
                "out_series", "out_forecast"),
    "backtest": ("input", "test_years", "boundary", "horizon", "policy",
                 "protocol", "delta_c", "delta_n", "out_dir"),
    "threshold": ("beta0", "beta1", "z_start", "n_max", "out"),
}

# one config file can serve every subcommand, so a key only has to be
# meaningful somewhere in the toolkit; commands ignore keys they don't read
CONFIG_KEYS = set(GLOBAL_KEYS).union(*OPTION_KEYS.values())


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return raw


class Options:
    """Effective option values: flag if given, else config value, else default."""

    def __init__(self, args: argparse.Namespace, config: dict) -> None:
        self._args = args
        self._config = config

    def get(self, key: str, default=None):
        flag = getattr(self._args, key, None)
        if flag is not None:
            return flag
        if key in self._config:
            return self._config[key]
        return default

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            raise UsageError(f"--{key.replace('_', '-')} is required")
        return value


def _parse_years(value) -> tuple[int, ...]:
    if isinstance(value, str):
        text = value.strip()
        if "-" in text:
            lo, _sep, hi = text.partition("-")
            try:
                return tuple(range(int(lo), int(hi) + 1))
            except ValueError as exc:
                raise UsageError(f"bad year range {value!r}") from exc
        try:
            return tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise UsageError(f"bad year list {value!r}") from exc
    if isinstance(value, list):
        return tuple(_int(v, "years") for v in value)
    return (_int(value, "years"),)


def _gbm_config(raw, label: str) -> GBMConfig:
    if raw is None:
        return GBMConfig()
    if not isinstance(raw, dict):
        raise UsageError(f"config key {label} must be an object")
    try:
        return GBMConfig(**raw)
    except (TypeError, PollencastError) as exc:
        raise UsageError(f"bad {label} settings: {exc}") from exc


def _season(opts: Options) -> SeasonDefinition:
    try:
        return SeasonDefinition(
            delta_c=_finite(opts.get("delta_c", 120.0), "delta_c"),
            delta_n=_int(opts.get("delta_n", 4), "delta_n"),
        )
    except PollencastError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(opts: Options) -> int:
    years = _int(opts.require("years"), "years", minimum=1)
    out = opts.require("out")
    seed = _int(opts.get("seed", 0), "seed", minimum=0)
    profile_path = opts.get("profile")
    profile = GeneratorProfile.from_json(profile_path) if profile_path else None
    log.info("generating %d years with seed %d", years, seed)
    data = generate_synthetic(seed=seed, years=years, profile=profile)
    from .data import emit_csv

    emit_csv(data, out)
    print(f"wrote {out}: {len(data)} daily records, {years} years, seed {seed}")
    return EXIT_OK


def cmd_label(opts: Options) -> int:
    data = ingest_csv(opts.require("input"))
    labels = label_years(data, _season(opts))
    print("year,start_day,end_day,length")
    for year in sorted(labels):
        lab = labels[year]
        if lab.present:
            print(f"{year},{lab.start_day},{lab.end_day},{lab.length_days}")
        else:
            print(f"{year},,,")
    return EXIT_OK


def cmd_train(opts: Options) -> int:
    data = ingest_csv(opts.require("input"))
    out = opts.require("out")
    raw_years = opts.get("years")
    years = _parse_years(raw_years) if raw_years is not None else data.years()
    fc = train_forecaster(
        data,
        _season(opts),
        years,
        boundary=opts.get("boundary", "start"),
        horizon=_int(opts.get("horizon", DEFAULT_HORIZON), "horizon"),
        stage1_cfg=_gbm_config(opts.get("stage1"), "stage1"),
        stage2_cfg=_gbm_config(opts.get("stage2"), "stage2"),
        protocol=opts.get("protocol", "loyo"),
    )
    save_forecaster(fc, out)
    print(f"wrote {out}: trained on years "
          f"{years[0]}..{years[-1]} ({len(years)} years)")
    return EXIT_OK


def cmd_predict(opts: Options) -> int:
    data = ingest_csv(opts.require("input"))
    fc = load_forecaster(opts.require("model"))
    year = _int(opts.require("year"), "year")
    z_start = _int(opts.get("z_start"), "z_start")
    z_end = _int(opts.get("z_end"), "z_end")
    anchor = _int(opts.get("anchor"), "anchor")
    if z_start is not None and z_end is not None:
        z_range = (z_start, z_end)
    elif anchor is not None:
        z_range = (anchor - fc.stage1.horizon, anchor)
    else:
        raise UsageError("need --anchor or both --z-start and --z-end")
    series = fc.predict_series(data, year, z_range)
    out_series = opts.get("out_series")
    if out_series:
        emit_series_csv(series, out_series)
        log.info("wrote %s", out_series)
    fit = fit_wls(series)
    final = final_forecast(fit)
    out_forecast = opts.get("out_forecast")
    if out_forecast:
        emit_forecast_json(final, fit, out_forecast)
        log.info("wrote %s", out_forecast)
    print(f"year={year} y_star={final.y_star!r} "
          f"sigma_y_star={final.sigma_y_star!r} n_points={fit.n_points}")
    return EXIT_OK


def cmd_backtest(opts: Options) -> int:
    data = ingest_csv(opts.require("input"))
    out_dir = opts.require("out_dir")
    n_test = _int(opts.get("test_years", 5), "test_years", minimum=1)
    cfg = bt.BacktestConfig(
        folds=bt.expanding_folds(data.years(), n_test),
        definition=_season(opts),
        boundary=opts.get("boundary", "start"),
        horizon=_int(opts.get("horizon", DEFAULT_HORIZON), "horizon"),
        z_range_policy=opts.get("policy", "train_mean"),
        stage1_cfg=_gbm_config(opts.get("stage1"), "stage1"),
        stage2_cfg=_gbm_config(opts.get("stage2"), "stage2"),
        stage2_protocol=opts.get("protocol", "loyo"),
    )
    log.info("running %d folds", len(cfg.folds))
    report = bt.rolling_backtest(data, cfg)
    written = bt.emit_report(report, out_dir)
    log.info("wrote %d files to %s", len(written), out_dir)
    print(f"mae={report.mae!r} stage1_mae={report.stage1_mae!r} "
          f"folds={len(report.folds)}")
    return EXIT_OK


def _finite(value, key: str) -> float:
    """``value`` as a finite float, else a usage error naming ``--key``."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise UsageError(
            f"--{key.replace('_', '-')} must be a finite number, got {value!r}"
        )
    return number


def _int(value, key: str, minimum: int | None = None) -> int | None:
    """``value`` as an integer of at least ``minimum``, else a usage error
    naming ``--key``.  Integral floats and digit strings are accepted; an
    unset option (None) stays None."""
    if value is None:
        return None
    number = None
    if isinstance(value, float) and value.is_integer():
        number = int(value)
    elif isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            number = int(value)
        except ValueError:
            pass
    if number is None or (minimum is not None and number < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise UsageError(
            f"--{key.replace('_', '-')} must be an integer{bound}, got {value!r}"
        )
    return number


def cmd_threshold(opts: Options) -> int:
    analysis = min_days(
        _finite(opts.require("beta0"), "beta0"),
        _finite(opts.require("beta1"), "beta1"),
        z_start=_finite(opts.get("z_start", 0.0), "z_start"),
        n_max=_int(opts.get("n_max", 100), "n_max"),
    )
    out = opts.get("out")
    if out:
        emit_threshold_csv(analysis, out)
        log.info("wrote %s", out)
    print("N,f_th")
    for n, f in analysis.table:
        print(f"{n},{repr(float(f))}")
    print(f"n_min={'' if analysis.n_min is None else analysis.n_min}")
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "label": cmd_label,
    "train": cmd_train,
    "predict": cmd_predict,
    "backtest": cmd_backtest,
    "threshold": cmd_threshold,
}


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split())


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; parse errors exit 64
        return int(exc.code or 0)
    try:
        config = _load_config_file(args.config)
        opts = Options(args, config)
        if opts.get("verbose"):
            logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                                format="%(levelname)s %(message)s")
        return COMMANDS[args.command](opts)
    except UsageError as exc:
        print(f"error: usage: {_one_line(exc)}", file=sys.stderr)
        return EXIT_USAGE
    except (PollencastError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {_one_line(exc)}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
