"""Command-line interface: synth, label, train, predict, backtest, threshold.

Each subcommand's handler, help line and flags are declared once, in
``COMMANDS``.  Every flag has a config-file equivalent (``--config
settings.json``); flags given on the command line override file values.
Exit codes are stable for scripting: 0 success, 2 runtime or data error, 64
usage error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import logging
import math
import sys
from collections.abc import Callable, Sequence
from typing import NamedTuple

from . import backtest as bt
from .data import SeasonDefinition, emit_csv, ingest_csv, label_years, read_json, write_table
from .errors import PollencastError
from .gbm import GBMConfig
from .pipeline import (
    BOUNDARIES,
    DEFAULT_HORIZON,
    PROTOCOLS,
    load_forecaster,
    save_forecaster,
    train_forecaster,
)
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


def _flag(key: str) -> str:
    return f"--{key.replace('_', '-')}"


def _key(flag: str) -> str:
    return flag[2:].replace("-", "_")


# ---------------------------------------------------------------------------
# Config merging
# ---------------------------------------------------------------------------


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = read_json(path, f"config {path}")
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except PollencastError as exc:
        raise UsageError(str(exc)) from exc
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return raw


def _check_config(flags: Sequence[Flag], args: argparse.Namespace,
                  config: dict) -> None:
    """Hold each config value the command reads to its flag's declaration:
    a string option takes a JSON string, a choice one of its choices, a
    switch a JSON boolean."""
    for name, spec in flags:
        key = _key(name)
        value = config.get(key)
        if value is None or getattr(args, key, None) is not None:
            continue  # unset in the config, or its flag was given
        if spec.get("type") is str and not isinstance(value, str):
            raise UsageError(f"{name} must be a string, got {value!r}")
        if "choices" in spec and value not in spec["choices"]:
            raise UsageError(f"{name} must be one of "
                             f"{', '.join(spec['choices'])}, got {value!r}")
        if spec.get("action") == "store_true" and not isinstance(value, bool):
            raise UsageError(f"{name} must be true or false, got {value!r}")


class Options:
    """Effective option values: flag if given, else config value, else
    default.  A config value of null leaves the option unset."""

    def __init__(self, args: argparse.Namespace, config: dict) -> None:
        self._args = args
        self._config = config

    def get(self, key: str, default=None):
        flag = getattr(self._args, key, None)
        if flag is not None:
            return flag
        value = self._config.get(key)
        return default if value is None else value

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            raise UsageError(f"{_flag(key)} is required")
        return value


def _parse_years(value) -> tuple[int, ...]:
    if isinstance(value, str):
        text = value.strip()
        if "-" in text:
            lo, _sep, hi = text.partition("-")
            try:
                first, last = int(lo), int(hi)
            except ValueError as exc:
                raise UsageError(f"bad year range {value!r}") from exc
            return tuple(range(_year(first, "years"), _year(last, "years") + 1))
        try:
            years = [int(part) for part in text.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad year list {value!r}") from exc
    elif isinstance(value, list):
        years = [_int(v, "years") for v in value]
    else:
        years = [_int(value, "years")]
    return tuple(_year(y, "years") for y in years)


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
    emit_csv(data, out)
    print(f"wrote {out}: {len(data)} daily records, {years} years, seed {seed}")
    return EXIT_OK


def cmd_label(opts: Options) -> int:
    data = ingest_csv(opts.require("input"))
    labels = label_years(data, _season(opts))
    write_table(sys.stdout, ("year", "start_day", "end_day", "length"),
                ((year, lab.start_day, lab.end_day, lab.length_days)
                 for year, lab in sorted(labels.items())))
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
    trained = fc.stage1.train_years
    print(f"wrote {out}: trained on years "
          f"{trained[0]}..{trained[-1]} ({len(trained)} years)")
    return EXIT_OK


def cmd_predict(opts: Options) -> int:
    year = _year(opts.require("year"), "year")
    data = ingest_csv(opts.require("input"))
    fc = load_forecaster(opts.require("model"))
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
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise UsageError(f"{_flag(key)} must be a finite number, got {value!r}")
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
        raise UsageError(f"{_flag(key)} must be an integer{bound}, got {value!r}")
    return number


def _year(value, key: str) -> int:
    """``value`` as a year that ``datetime.date`` can hold, else a usage
    error naming ``--key``."""
    year = _int(value, key)
    if not dt.MINYEAR <= year <= dt.MAXYEAR:
        raise UsageError(f"{_flag(key)} must be a year in "
                         f"{dt.MINYEAR}..{dt.MAXYEAR}, got {value!r}")
    return year


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
    write_table(sys.stdout, ("N", "f_th"), analysis.table)
    print(f"n_min={'' if analysis.n_min is None else analysis.n_min}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------

#: A flag: its name and its argparse keywords.  A string option (a path or a
#: choice) is declared with ``type=str``, so that a config value can be held
#: to the same declaration as its flag.
Flag = tuple[str, dict]

_CONFIG: Flag = ("--config", dict(metavar="JSON",
                                  help="JSON file supplying defaults for any flag"))
#: Flags every command takes, before or after its name, as config keys too.
_GLOBAL: tuple[Flag, ...] = (
    ("--seed", dict(type=int, help="random seed (default 0)")),
    ("--verbose", dict(action="store_true", help="log progress to stderr")),
)
_INPUT: Flag = ("--input", dict(type=str, help="daily dataset CSV"))
_SEASON: tuple[Flag, ...] = (
    ("--delta-c", dict(type=float, help="concentration threshold")),
    ("--delta-n", dict(type=int, help="typical-day count threshold")),
)
_MODEL: tuple[Flag, ...] = (
    ("--boundary", dict(type=str, choices=BOUNDARIES)),
    ("--horizon", dict(type=int)),
    ("--protocol", dict(type=str, choices=PROTOCOLS)),
)


class Command(NamedTuple):
    run: Callable[[Options], int]
    help: str
    flags: tuple[Flag, ...]


#: Every subcommand with its handler, help line and own flags; the parser,
#: ``CONFIG_KEYS`` and the config checks are all built from this table.
COMMANDS: dict[str, Command] = {
    "synth": Command(cmd_synth, "generate a synthetic daily dataset CSV", (
        ("--years", dict(type=int, help="number of calendar years")),
        ("--out", dict(type=str, help="output CSV path")),
        ("--profile", dict(type=str, help="generator profile JSON")),
    )),
    "label": Command(cmd_label, "print per-year season labels as CSV",
                     (_INPUT, *_SEASON)),
    "train": Command(cmd_train, "train the two-stage forecaster and save it", (
        _INPUT,
        ("--years", dict(help="training years, e.g. 2003-2012 or a list")),
        *_MODEL,
        *_SEASON,
        ("--out", dict(type=str, help="forecaster JSON path")),
    )),
    "predict": Command(cmd_predict, "forecast one year with a saved forecaster", (
        _INPUT,
        ("--model", dict(type=str, help="forecaster JSON from `train`")),
        ("--year", dict(type=int)),
        ("--anchor", dict(type=int,
                          help="last prediction day; window is (anchor-H, anchor)")),
        ("--z-start", dict(type=int)),
        ("--z-end", dict(type=int)),
        ("--out-series", dict(type=str, help="per-day predictions CSV")),
        ("--out-forecast", dict(type=str, help="final forecast JSON")),
    )),
    "backtest": Command(cmd_backtest, "rolling-origin evaluation with report files", (
        _INPUT,
        ("--test-years", dict(type=int, help="number of trailing years to test")),
        *_MODEL,
        ("--policy", dict(type=str, choices=bt.Z_RANGE_POLICIES)),
        *_SEASON,
        ("--out-dir", dict(type=str, help="report directory")),
    )),
    "threshold": Command(cmd_threshold,
                         "minimum-day-count table for assumed coefficients", (
        ("--beta0", dict(type=float)),
        ("--beta1", dict(type=float)),
        ("--z-start", dict(type=float)),
        ("--n-max", dict(type=int)),
        ("--out", dict(type=str, help="optional CSV path for the table")),
    )),
}

# one config file can serve every subcommand, so a key only has to be
# meaningful somewhere in the toolkit; commands ignore keys they don't read
CONFIG_KEYS = {"stage1", "stage2"}.union(
    *({_key(name) for name, _ in (*_GLOBAL, *c.flags)} for c in COMMANDS.values()))


@functools.cache
def _parser() -> _Parser:
    """The parser of every command, built from ``COMMANDS`` once per process."""
    parser = _Parser(prog="pollencast",
                     description="Pollen allergy-season forecasting toolkit")
    for name, spec in (_CONFIG, *_GLOBAL):
        parser.add_argument(name, default=None, **spec)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for command, (_run, help_line, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        # a command suppresses the global flags' defaults, so leaving one out
        # after the command keeps the value given before it
        for name, spec in (_CONFIG, *_GLOBAL):
            p.add_argument(name, default=argparse.SUPPRESS, **spec)
        for name, spec in flags:
            p.add_argument(name, **spec)
    return parser


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split())


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; parse errors exit 64
        return int(exc.code or 0)
    command = COMMANDS[args.command]
    try:
        config = _load_config_file(args.config)
        _check_config((*_GLOBAL, *command.flags), args, config)
        opts = Options(args, config)
        if opts.get("verbose"):
            logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                                format="%(levelname)s %(message)s")
        return command.run(opts)
    except UsageError as exc:
        print(f"error: usage: {_one_line(exc)}", file=sys.stderr)
        return EXIT_USAGE
    except (PollencastError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {_one_line(exc)}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
