"""CLI tests: argument handling, exit codes, file outputs, reproducibility."""

import argparse
import base64
import contextlib
import dataclasses
import datetime as dt
import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from helpers import (
    PACKED_FIELDS,
    cores,
    damaged_text,
    model_from_trees,
    pack,
    unpack,
    year_dataset,
)
import pollencast
from pollencast import cli, gbm
from pollencast import pipeline as pl
from pollencast.cli import CONFIG_KEYS, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from pollencast.data import MAX_INPUT_BYTES, Dataset, emit_csv, ingest_csv
from pollencast.features import CATALOG_VERSION
from pollencast.synth import GeneratorProfile, generate_synthetic

LIGHT_CONFIG = {
    "stage1": {"n_trees": 30, "max_depth": 2, "learning_rate": 0.25},
    "stage2": {"n_trees": 30, "max_depth": 2, "learning_rate": 0.25},
}


def write_config(tmp_path, extra=None):
    cfg = dict(LIGHT_CONFIG)
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    """Six-year synthetic dataset written once for the module."""
    path = tmp_path_factory.mktemp("data") / "six.csv"
    assert main(["synth", "--seed", "11", "--years", "6",
                 "--out", str(path)]) == EXIT_OK
    return str(path)


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, synth_csv):
    tmp = tmp_path_factory.mktemp("model")
    cfg = write_config(tmp)
    model = tmp / "model.json"
    code = main(["--config", cfg, "train", "--input", synth_csv,
                 "--years", "2003-2007", "--out", str(model)])
    assert code == EXIT_OK
    return str(model)


class TestParsing:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("command", ["synth", "label", "train", "predict",
                                         "backtest", "threshold"])
    def test_subcommand_help_exits_zero(self, command, capsys):
        assert main([command, "--help"]) == 0
        listed = capsys.readouterr().out
        for name, _ in (*cli._GLOBAL, *cli.COMMANDS[command].flags):
            assert name in listed

    @pytest.mark.parametrize("command,keys", [
        ("synth", {"years", "out", "profile"}),
        ("label", {"input", "delta_c", "delta_n"}),
        ("train", {"input", "years", "boundary", "horizon", "protocol",
                   "delta_c", "delta_n", "out"}),
        ("predict", {"input", "model", "year", "anchor", "z_start", "z_end",
                     "out_series", "out_forecast"}),
        ("backtest", {"input", "test_years", "boundary", "horizon", "policy",
                      "protocol", "delta_c", "delta_n", "out_dir"}),
        ("threshold", {"beta0", "beta1", "z_start", "n_max", "out"}),
    ])
    def test_command_flags_are_pinned(self, command, keys):
        flags = cli.COMMANDS[command].flags
        assert {name[2:].replace("-", "_") for name, _ in flags} == keys

    def test_config_keys_are_pinned(self):
        assert CONFIG_KEYS == {
            "seed", "verbose", "stage1", "stage2", "input", "delta_c",
            "delta_n", "years", "out", "profile", "boundary", "horizon",
            "protocol", "model", "year", "anchor", "z_start", "z_end",
            "out_series", "out_forecast", "test_years", "policy", "out_dir",
            "beta0", "beta1", "n_max"}

    def test_parser_is_built_once(self, monkeypatch):
        calls = []
        add_argument = argparse._ActionsContainer.add_argument

        def counted(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
        cli._parser.cache_clear()
        argv = ["threshold", "--beta0", "1", "--beta1", "-1", "--n-max", "3"]
        assert main(argv) == EXIT_OK
        assert calls
        built = len(calls)
        assert main(argv) == EXIT_OK
        assert len(calls) == built

    def test_calls_share_no_values(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        argv = ["threshold", "--beta0", "1", "--beta1", "-1"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        first = capsys.readouterr().out
        out.unlink()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first
        assert not out.exists()

    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        assert main(["synth", "--bogus", "1"]) == EXIT_USAGE

    def test_bad_int_is_usage_error(self):
        assert main(["synth", "--years", "three", "--out", "x.csv"]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert main(["simulate"]) == EXIT_USAGE


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", "--seed", "42", "--years", "2",
                     "--out", str(a)]) == EXIT_OK
        assert main(["synth", "--seed", "42", "--years", "2",
                     "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_zero_years_is_usage_error(self, tmp_path, capsys):
        code = main(["synth", "--years", "0", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_missing_out_is_usage_error(self):
        assert main(["synth", "--years", "2"]) == EXIT_USAGE

    def test_unwritable_path_is_runtime_error(self, tmp_path):
        code = main(["synth", "--years", "1",
                     "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert code == EXIT_RUNTIME

    def test_output_reingested_by_label(self, synth_csv, capsys):
        assert main(["label", "--input", synth_csv]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("year,start_day,end_day,length\n")

    def test_profile_override(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"baseline_pollen": 5.0}))
        code = main(["synth", "--years", "1", "--out", str(tmp_path / "p.csv"),
                     "--profile", str(profile)])
        assert code == EXIT_OK

    def test_bad_profile_key_is_runtime_error(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"bogus_knob": 1.0}))
        code = main(["synth", "--years", "1", "--out", str(tmp_path / "p.csv"),
                     "--profile", str(profile)])
        assert code == EXIT_RUNTIME


class TestLabel:
    def test_constant_input_starts_every_year_at_day_one(self, tmp_path,
                                                         capsys):
        records = (
            year_dataset([200.0] * 365, 2001).records
            + year_dataset([200.0] * 365, 2002).records
        )
        path = tmp_path / "flat.csv"
        emit_csv(Dataset(records=records), str(path))
        assert main(["label", "--input", str(path), "--delta-c", "120",
                     "--delta-n", "4"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "2001,1,365,365"
        assert lines[2] == "2002,1,365,365"

    def test_all_zero_input_prints_absent_markers(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        emit_csv(year_dataset([0.0] * 365, 2001), str(path))
        assert main(["label", "--input", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "2001,,,"

    def test_stdout_bytes_pinned(self, tmp_path, capsys):
        # three synthetic years, the middle one with no pollen: a season, no
        # season, a season; sha256 of stdout as printed row by row
        data = generate_synthetic(seed=11, years=3)
        m = data.series_matrix().copy()
        m[data.index_of(dt.date(2004, 1, 1)):data.index_of(dt.date(2004, 12, 31)) + 1, 0] = 0.0
        path = tmp_path / "three.csv"
        emit_csv(Dataset.from_matrix(data.start, m), str(path))
        assert main(["label", "--input", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[2] == "2004,,,"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c28dab1a2c09d8bb78e9342cef97002415e2b0b00614a24daae0f47f707bceb6"
        )

    def test_labels_stable_across_runs(self, synth_csv, capsys):
        assert main(["label", "--input", synth_csv]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["label", "--input", synth_csv]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = main(["label", "--input", str(tmp_path / "absent.csv")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "\n" not in err.strip("\n")

    def test_bad_delta_is_usage_error(self, synth_csv):
        assert main(["label", "--input", synth_csv,
                     "--delta-c", "-5"]) == EXIT_USAGE


class TestTrainPredict:
    def test_train_writes_loadable_model(self, trained_model):
        fc = pl.load_forecaster(trained_model)
        assert fc.stage1.train_years == tuple(range(2003, 2008))

    @pytest.mark.parametrize("years", ["2005,2003,2004", "2003,2003,2004,2005"])
    def test_train_summary_names_the_years_trained_on(self, synth_csv, tmp_path,
                                                      capsys, years):
        out = tmp_path / "m.json"
        assert main(["--config", write_config(tmp_path), "train", "--input",
                     synth_csv, "--years", years, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == (
            f"wrote {out}: trained on years 2003..2005 (3 years)\n")

    def test_deep_stage1_trains(self, synth_csv, tmp_path, capsys):
        # a depth no tree can reach allocates nothing for the levels beyond
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"stage1": {"max_depth": 100000, "n_trees": 2}}))
        out = tmp_path / "m.json"
        assert main(["--config", str(path), "train", "--input", synth_csv,
                     "--years", "2003-2005", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert pl.load_forecaster(str(out)).stage1.model.arrays.levels > 3

    def test_predict_with_anchor(self, synth_csv, trained_model, tmp_path,
                                 capsys):
        series_path = tmp_path / "series.csv"
        forecast_path = tmp_path / "final.json"
        code = main(["predict", "--input", synth_csv, "--model", trained_model,
                     "--year", "2008", "--anchor", "110",
                     "--out-series", str(series_path),
                     "--out-forecast", str(forecast_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "y_star=" in out
        lines = series_path.read_text().splitlines()
        assert lines[0] == "z,y_hat,u_hat"
        assert len(lines) == 1 + 60
        doc = json.loads(forecast_path.read_text())
        assert f"y_star={doc['y_star']!r}" in out

    def test_predict_with_explicit_range(self, synth_csv, trained_model,
                                         capsys):
        code = main(["predict", "--input", synth_csv, "--model", trained_model,
                     "--year", "2008", "--z-start", "80", "--z-end", "100"])
        assert code == EXIT_OK
        assert "n_points=21" in capsys.readouterr().out

    def test_predict_without_window_is_usage_error(self, synth_csv,
                                                   trained_model):
        assert main(["predict", "--input", synth_csv, "--model", trained_model,
                     "--year", "2008"]) == EXIT_USAGE

    def test_predict_missing_model_is_runtime_error(self, synth_csv, tmp_path):
        assert main(["predict", "--input", synth_csv,
                     "--model", str(tmp_path / "none.json"),
                     "--year", "2008", "--anchor", "110"]) == EXIT_RUNTIME

    def test_degenerate_slope_is_runtime_error(self, synth_csv, tmp_path,
                                               capsys):
        flat = model_from_trees((), feature_count=pl.STAGE1_COLUMNS,
                                base_prediction=30.0,
                                catalog_version=CATALOG_VERSION)
        fc = pl.Forecaster(
            stage1=pl.Stage1Model(model=flat, boundary="start", horizon=59,
                                  references=(120.0,) + (10.0,) * 11,
                                  train_years=(2003,)),
            stage2=pl.Stage2Model(model=model_from_trees(
                (), feature_count=pl.STAGE1_COLUMNS + 1, base_prediction=1.0),
                u_floor=0.25, protocol="loyo", train_years=(2003,)),
        )
        model_path = tmp_path / "flat.json"
        pl.save_forecaster(fc, str(model_path))
        code = main(["predict", "--input", synth_csv,
                     "--model", str(model_path),
                     "--year", "2008", "--anchor", "110"])
        assert code == EXIT_RUNTIME
        assert "DegenerateSlope" in capsys.readouterr().err


class TestBacktest:
    def test_reported_mae_matches_report_json(self, synth_csv, tmp_path,
                                              capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "report"
        code = main(["--config", cfg, "backtest", "--input", synth_csv,
                     "--test-years", "2", "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        mae_text = out.split("mae=")[1].split()[0]
        doc = json.loads((out_dir / "report.json").read_text())
        assert float(mae_text) == doc["mae"]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "convergence_2007.csv", "convergence_2008.csv",
            "folds.csv", "report.json",
        ]

    def test_zero_test_years_is_usage_error(self, synth_csv, tmp_path):
        assert main(["backtest", "--input", synth_csv, "--test-years", "0",
                     "--out-dir", str(tmp_path / "r")]) == EXIT_USAGE


class TestThreshold:
    def test_pinned_table(self, capsys):
        assert main(["threshold", "--beta0", "0", "--beta1", "1",
                     "--n-max", "100"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "N,f_th"
        assert lines[1] == "2,0.5"
        assert lines[-1] == "n_min=2"

    @pytest.mark.parametrize("argv,digest", [
        (["--beta0", "10", "--beta1=-1", "--z-start", "1", "--n-max", "40"],
         "2d74d5f4fec0124b624350c94ecd66c9d895b039b8125538b1a479f665325486"),
        (["--beta0", "1e6", "--beta1", "1", "--n-max", "10"],
         "cb60cbce0b879739debbc5f0b1509e35ec67586d6015d9999ab9901ba52b036e"),
    ], ids=["n_min_7", "no_n_min"])
    def test_stdout_bytes_pinned(self, capsys, argv, digest):
        # sha256 of stdout as printed row by row
        assert main(["threshold", *argv]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_out_file_matches_stdout_table(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        assert main(["threshold", "--beta0", "10", "--beta1", "1",
                     "--n-max", "12", "--out", str(path)]) == EXIT_OK
        stdout_table = capsys.readouterr().out.splitlines()[:-1]
        assert path.read_text().splitlines() == stdout_table
        assert stdout_table[0] == "N,f_th"

    def test_zero_slope_is_runtime_error(self):
        assert main(["threshold", "--beta0", "0", "--beta1", "0"]) == EXIT_RUNTIME

    def test_missing_beta_is_usage_error(self):
        assert main(["threshold", "--beta1", "1"]) == EXIT_USAGE


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        out = tmp_path / "from_config.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"years": 1, "out": str(out), "seed": 5}))
        assert main(["--config", str(cfg), "synth"]) == EXIT_OK
        assert out.exists()

    def test_flag_overrides_config(self, tmp_path):
        squashed = tmp_path / "squashed.csv"
        chosen = tmp_path / "chosen.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"years": 1, "out": str(squashed)}))
        assert main(["--config", str(cfg), "synth",
                     "--out", str(chosen)]) == EXIT_OK
        assert chosen.exists()
        assert not squashed.exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"years": 1, "out": "x.csv", "bogus": 2}))
        assert main(["--config", str(cfg), "synth"]) == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err

    def test_one_config_serves_every_command(self, synth_csv, trained_model,
                                             tmp_path):
        # delta_c/delta_n are not read by predict but must not be rejected
        cfg = write_config(tmp_path, {"delta_c": 120.0, "delta_n": 4})
        code = main(["--config", cfg, "predict", "--input", synth_csv,
                     "--model", trained_model, "--year", "2008",
                     "--anchor", "110"])
        assert code == EXIT_OK

    @pytest.mark.parametrize("text,message", [
        (b"\xff{}", "is not readable JSON"),
        (b"{not json", "is not readable JSON"),
        (b"[" * 200_000 + b"]" * 200_000, "is not readable JSON"),
        (b'{"delta_c": NaN}', "non-finite number NaN"),
        (b"[1, 2]", "must hold a JSON object"),
        (b'{"seed": 1' + b"0" * 5000 + b"}", "is not readable JSON"),
    ], ids=["not_utf8", "not_json", "deep", "nan", "list", "int_past_str_limit"])
    def test_unreadable_config(self, tmp_path, capsys, text, message):
        path = tmp_path / "c.json"
        path.write_bytes(text)
        out = tmp_path / "s.csv"
        code = main(["--config", str(path), "synth", "--years", "1",
                     "--out", str(out)])
        line = assert_one_error_line(capsys, code, EXIT_USAGE)
        assert line.startswith(f"error: usage: config {path}") and message in line
        assert not out.exists()

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "none.json"), "synth",
                     "--years", "1", "--out", "x.csv"]) == EXIT_USAGE

    def test_bad_stage_settings_are_usage_error(self, synth_csv, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"stage1": {"n_trees": 0}}))
        assert main(["--config", str(cfg), "train", "--input", synth_csv,
                     "--out", str(tmp_path / "m.json")]) == EXIT_USAGE

    def test_non_integer_stage_setting_is_usage_error(self, synth_csv, tmp_path,
                                                      capsys):
        # the fit would fail in a pool worker; the config check stops it first
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"stage1": {"n_trees": 2.5}}))
        code = main(["--config", str(cfg), "train", "--input", synth_csv,
                     "--out", str(tmp_path / "m.json")])
        line = assert_one_error_line(capsys, code, EXIT_USAGE)
        assert line == ("error: usage: bad stage1 settings: "
                        "n_trees must be an integer >= 1, got 2.5")


def run_module(*args):
    """``python -m pollencast`` on the package these tests import."""
    src = os.path.dirname(os.path.dirname(pollencast.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pollencast", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("threshold", "--beta0", "0", "--beta1", "1",
                          "--n-max", "4")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "n_min=2"

    def test_module_usage_error_code(self):
        proc = run_module("synth", "--years", "0", "--out", "x.csv")
        assert proc.returncode == EXIT_USAGE


class TestWalkthrough:
    def test_synth_train_predict_backtest(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        model = tmp_path / "model.json"
        report_dir = tmp_path / "report"
        cfg = write_config(tmp_path)

        assert main(["synth", "--seed", "42", "--years", "6",
                     "--out", str(data)]) == EXIT_OK
        assert main(["--config", cfg, "train", "--input", str(data),
                     "--years", "2003-2006", "--out", str(model)]) == EXIT_OK
        assert main(["predict", "--input", str(data), "--model", str(model),
                     "--year", "2008", "--anchor", "105"]) == EXIT_OK
        assert main(["--config", cfg, "backtest", "--input", str(data),
                     "--test-years", "2",
                     "--out-dir", str(report_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        mae_line = [ln for ln in out.splitlines() if ln.startswith("mae=")][-1]
        doc = json.loads((report_dir / "report.json").read_text())
        assert float(mae_line.split("mae=")[1].split()[0]) == doc["mae"]


def _stage1(bundle):
    return bundle["stage1_model"]


def _splits(bundle):
    """Indices of the split nodes of the Stage-1 model of a bundle object."""
    return [i for i, left in enumerate(unpack(_stage1(bundle), "left")) if left != i]


def _first_split(bundle):
    return _splits(bundle)[0]


def _first_leaf(bundle):
    return next(i for i, left in enumerate(unpack(_stage1(bundle), "left")) if left == i)


def _edit(bundle, key, change=None, model="stage1_model", item=None):
    """Unpack the node array ``key`` of a model of the bundle, let
    ``change`` edit the list of its items, and pack them again, as
    ``item`` if given (a struct format such as ``"<d"``)."""
    doc = bundle[model]
    items = unpack(doc, key)
    if change:
        change(items)
    doc[key] = pack(items, item or dict(PACKED_FIELDS)[key])


def _put(bundle, key, at, value):
    """Store ``value`` at node ``at`` of the Stage-1 node array ``key``."""
    _edit(bundle, key, lambda items: items.__setitem__(at, value))


def _share_child(bundle):
    """Point a split's right side at its left child's right child."""
    i = next(i for i in _splits(bundle) if i + 1 in _splits(bundle))
    _put(bundle, "right", i, unpack(_stage1(bundle), "right")[i + 1])


def _swap_roots(bundle):
    def swap(roots):
        roots[1], roots[2] = roots[2], roots[1]

    _edit(bundle, "roots", swap)


def _retext(bundle, key, change):
    """Replace the packed text of the Stage-1 node array ``key`` by
    ``change(text)``."""
    _stage1(bundle)[key] = change(_stage1(bundle)[key])


def _cut(text: str, n: int) -> str:
    """Packed text whose bytes lose their last ``n``."""
    return base64.b64encode(base64.b64decode(text)[:-n]).decode()


#: A number that a mutation stores where the bundle's text must hold a
#: literal that ``json.dumps`` cannot write, such as 1e999.
_MARK = 1.2345678901234567e-300


class _Literal:
    """A mutation that stores ``_MARK`` with ``put(bundle, _MARK)``; the
    test writes ``text`` in its place."""

    def __init__(self, put, text: str) -> None:
        self.put, self.text = put, text

    def __call__(self, bundle) -> None:
        self.put(bundle, _MARK)


#: Ways to break a valid bundle object; each must give exit 2 and one line.
#: The node arrays are damaged by unpacking, editing and packing them again
#: (:func:`_edit`), or in their packed text.
BROKEN_BUNDLES = {
    "missing_key": lambda b: b.pop("u_floor"),
    "missing_model_key": lambda b: b["stage2_model"].pop("right"),
    "wrong_type": lambda b: b.update(horizon="59"),
    "bool_for_int": lambda b: b.update(horizon=True),
    "eleven_references": lambda b: b["references"].pop(),
    "nan_reference": lambda b: b["references"].__setitem__(3, float("nan")),
    "inf_reference": lambda b: b["references"].__setitem__(0, float("inf")),
    "split_feature_past_end": lambda b: _put(
        b, "feature", _first_split(b), _stage1(b)["feature_count"]),
    "negative_split_feature": lambda b: _put(b, "feature", _first_split(b), -1),
    "other_catalog_version": lambda b: _stage1(b).update(
        catalog_version="w14s29-v0"),
    "bad_model_config": lambda b: b["stage2_model"].update(config={"bogus": 1}),
    "float_for_int_model_config": lambda b: _stage1(b)["config"].update(max_depth=1.5),
    "n_trees_past_int32": lambda b: _stage1(b)["config"].update(n_trees=2**31),
    "learning_rate_true": lambda b: b["stage2_model"]["config"].update(
        learning_rate=True),
    "zero_u_floor": lambda b: b.update(u_floor=0),
    # a split whose left side points to itself, as a leaf's does
    "split_without_left": lambda b: _put(b, "left", _first_split(b), _first_split(b)),
    # a node array that is not a packed string
    "child_is_list": lambda b: _stage1(b).update(right=unpack(_stage1(b), "right")),
    "leaf_value_null": lambda b: _stage1(b).update(value=None),
    "leaf_value_true": lambda b: _stage1(b).update(value=True),
    "threshold_bool": lambda b: _stage1(b).update(threshold=True),
    "tree_is_number": lambda b: b["stage2_model"].update(roots=0.5),
    "index_bool": lambda b: _stage1(b).update(roots=False),
    # packed text that is not base64
    "leaf_value_string": lambda b: _stage1(b).update(value="1.5"),
    "not_base64": lambda b: _retext(b, "left", lambda t: "!" + t[1:]),
    "non_ascii_base64": lambda b: _retext(b, "left", lambda t: "\u00e9" + t[1:]),
    "base64_character_dropped": lambda b: _retext(b, "right", lambda t: t[:9] + t[10:]),
    # bytes that end inside an item
    "partial_index": lambda b: _retext(b, "feature", lambda t: _cut(t, 2)),
    "partial_number": lambda b: _retext(b, "threshold", lambda t: _cut(t, 5)),
    # index arrays packed as float64: twice the items, or roots 0, 0, ...
    "feature_float": lambda b: _edit(b, "feature", item="<d"),
    "index_float": lambda b: _edit(b, "roots", item="<d"),
    # a node with no threshold: the node arrays differ in length
    "empty_node": lambda b: _edit(b, "threshold", lambda t: t.pop(_first_split(b))),
    "child_out_of_range": lambda b: _put(
        b, "right", _first_split(b), len(unpack(_stage1(b), "value"))),
    "child_points_backwards": lambda b: _put(b, "right", _splits(b)[1], 0),
    "shared_child": _share_child,
    "unequal_lengths": lambda b: _edit(b, "value", list.pop, model="stage2_model"),
    "roots_not_increasing": _swap_roots,
    # int32 indices at either end of their range
    "index_huge_int": lambda b: _put(b, "left", _first_leaf(b), 2**31 - 1),
    "index_int32_min": lambda b: _put(b, "right", _first_split(b), -(2**31)),
    # layouts that load as gbm models but do not fit the feature rows
    "stage1_feature_count_400": lambda b: _stage1(b).update(feature_count=400),
    "stage2_feature_count_363": lambda b: b["stage2_model"].update(
        feature_count=363),
    "horizon_zero": lambda b: b.update(horizon=0),
    "boundary_unknown": lambda b: b.update(boundary="middle"),
    "protocol_bogus": lambda b: b.update(stage2_protocol="bogus"),
    # NaN or infinity bits in a packed number array
    "leaf_value_overflow": lambda b: _put(b, "value", _first_leaf(b), math.inf),
    "threshold_overflow": lambda b: _put(b, "threshold", _first_split(b), -math.inf),
    "leaf_value_nan": lambda b: _put(b, "value", _first_leaf(b), math.nan),
    # only the number checks see these: JSON reads them as inf or a huge int
    "base_prediction_overflow": _Literal(
        lambda b, v: _stage1(b).update(base_prediction=v), "1e999"),
    "leaf_value_huge_int": _Literal(
        lambda b, v: _stage1(b).update(value=v), "1" + "0" * 400),
    "u_floor_huge_int": _Literal(lambda b, v: b.update(u_floor=v), "1" + "0" * 400),
    "config_overflow": _Literal(
        lambda b, v: _stage1(b)["config"].update(max_depth=v), "1e999"),
}


def assert_one_error_line(capsys, code, want):
    err = capsys.readouterr().err
    assert code == want
    assert "Traceback" not in err
    lines = err.strip("\n").splitlines()
    assert lines[-1].startswith("error: ")
    assert [ln for ln in lines if ln.startswith("error:")] == [lines[-1]]
    return lines[-1]


class TestBadInputs:
    """Bad bundles, numbers and CSVs end with exit 2 or 64 and one
    ``error:`` line, never a traceback."""

    def predict(self, synth_csv, model):
        return main(["predict", "--input", synth_csv, "--model", str(model),
                     "--year", "2008", "--anchor", "110"])

    @pytest.mark.parametrize("case", sorted(BROKEN_BUNDLES))
    def test_broken_bundle(self, synth_csv, trained_model, tmp_path, capsys,
                           case):
        bundle = json.loads(open(trained_model).read())
        mutate = BROKEN_BUNDLES[case]
        mutate(bundle)
        text = json.dumps(bundle)
        if isinstance(mutate, _Literal):
            assert text.count(repr(_MARK)) == 1
            text = text.replace(repr(_MARK), mutate.text)
        path = tmp_path / "broken.json"
        path.write_text(text)
        line = assert_one_error_line(
            capsys, self.predict(synth_csv, path), EXIT_RUNTIME)
        assert "InvalidRecordError" in line

    def test_v1_bundle_asks_for_retraining(self, synth_csv, trained_model,
                                          tmp_path, capsys):
        bundle = json.loads(open(trained_model).read())
        bundle["format"] = "forecaster-json-v1"
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(bundle))
        line = assert_one_error_line(
            capsys, self.predict(synth_csv, path), EXIT_RUNTIME)
        assert "InvalidRecordError" in line and "retrain" in line

    def test_v2_bundle_asks_for_retraining(self, synth_csv, trained_model,
                                          tmp_path, capsys):
        # the node arrays as JSON number lists, as that format stored them
        bundle = json.loads(open(trained_model).read())
        bundle["format"] = "forecaster-json-v2"
        for key in ("stage1_model", "stage2_model"):
            model = bundle[key]
            model.update(format="gbm-json-v2",
                         **{name: unpack(model, name) for name, _ in PACKED_FIELDS})
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(bundle))
        line = assert_one_error_line(
            capsys, self.predict(synth_csv, path), EXIT_RUNTIME)
        assert line == ("error: InvalidRecordError: expected format "
                        "'forecaster-json-v3', got 'forecaster-json-v2'; "
                        "retrain the model")

    def test_w14s30_bundle_asks_for_retraining(self, synth_csv, trained_model,
                                              tmp_path, capsys):
        # the layout of the catalog with the window sum: 361 and 362 columns
        bundle = json.loads(open(trained_model).read())
        bundle["include_doy"] = True
        for key, columns in (("stage1_model", 361), ("stage2_model", 362)):
            bundle[key].update(catalog_version="w14s30-v1", feature_count=columns)
        path = tmp_path / "w14s30.json"
        path.write_text(json.dumps(bundle))
        line = assert_one_error_line(
            capsys, self.predict(synth_csv, path), EXIT_RUNTIME)
        assert line == ("error: InvalidRecordError: stage1_model: catalog_version "
                        f"'w14s30-v1', expected {CATALOG_VERSION!r}; retrain the model")

    @pytest.mark.parametrize("text", [b"{not json", b"", b"\xff\xfe\x00garbage",
                                      b"[1, 2]", b"[" * 200_000 + b"]" * 200_000,
                                      b'{"u_floor": NaN}'],
                             ids=["not_json", "empty", "not_utf8",
                                  "not_an_object", "deep", "nan"])
    def test_unreadable_bundle(self, synth_csv, tmp_path, capsys, text):
        path = tmp_path / "broken.json"
        path.write_bytes(text)
        outs = [str(tmp_path / "series.csv"), str(tmp_path / "forecast.json")]
        code = main(["predict", "--input", synth_csv, "--model", str(path),
                     "--year", "2008", "--anchor", "110",
                     "--out-series", outs[0], "--out-forecast", outs[1]])
        line = assert_one_error_line(capsys, code, EXIT_RUNTIME)
        assert "InvalidRecordError" in line
        assert not any(map(os.path.exists, outs))

    def test_valid_bundle_loads(self, synth_csv, trained_model, tmp_path):
        # the mutations above start from a bundle that predicts
        bundle = json.loads(open(trained_model).read())
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(bundle))
        assert self.predict(synth_csv, path) == EXIT_OK

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_delta_c(self, synth_csv, capsys, value):
        code = main(["label", "--input", synth_csv, "--delta-c", value])
        assert_one_error_line(capsys, code, EXIT_USAGE)

    @pytest.mark.parametrize("flag,value", [
        ("--beta0", "nan"), ("--beta0", "inf"), ("--beta1", "inf"),
        ("--beta1", "nan"), ("--z-start", "nan"), ("--z-start", "-inf"),
    ])
    def test_non_finite_threshold_number(self, capsys, flag, value):
        argv = {"--beta0": "0", "--beta1": "1"}
        argv[flag] = value
        code = main(["threshold", *(x for kv in argv.items() for x in kv)])
        line = assert_one_error_line(capsys, code, EXIT_USAGE)
        assert flag in line

    def test_non_numeric_config_number(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"beta0": "ten", "beta1": 1}))
        code = main(["--config", str(cfg), "threshold"])
        assert_one_error_line(capsys, code, EXIT_USAGE)

    def test_csv_with_byte_order_mark(self, synth_csv, tmp_path, capsys):
        assert main(["label", "--input", synth_csv]) == EXIT_OK
        plain = capsys.readouterr().out
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + open(synth_csv, "rb").read())
        assert main(["label", "--input", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == plain

    def test_csv_not_utf8(self, synth_csv, tmp_path, capsys):
        lines = open(synth_csv, "rb").read().split(b"\n")
        path = tmp_path / "latin.csv"
        path.write_bytes(b"\n".join([lines[0], b"\xff\xfe", *lines[1:]]))
        line = assert_one_error_line(
            capsys, main(["label", "--input", str(path)]), EXIT_RUNTIME)
        assert "InvalidRecordError" in line and "latin.csv" in line

    @pytest.mark.parametrize("command", ["label", "predict"])
    def test_csv_field_over_csv_limit(self, synth_csv, trained_model, tmp_path,
                                      capsys, command):
        lines = open(synth_csv).read().split("\n")
        cells = lines[3].split(",")
        cells[1] = "1" * 200_000  # a pollen field over csv.field_size_limit()
        path = tmp_path / "huge.csv"
        path.write_text("\n".join([*lines[:3], ",".join(cells), *lines[4:]]))
        argv = {"label": ["label", "--input", str(path)],
                "predict": ["predict", "--input", str(path), "--model",
                            trained_model, "--year", "2008", "--anchor", "110"]}
        line = assert_one_error_line(capsys, main(argv[command]), EXIT_RUNTIME)
        assert "InvalidRecordError" in line and "line 4:" in line

    @pytest.mark.parametrize("command", ["label", "predict"])
    def test_csv_finite_field_over_csv_limit(self, synth_csv, trained_model,
                                             tmp_path, capsys, command):
        # float reads the field as a finite number; the CSV reader refuses it
        lines = open(synth_csv).read().split("\n")
        cells = lines[3].split(",")
        cells[1] = "0." + "0" * 200_000 + "1"
        path = tmp_path / "huge.csv"
        path.write_text("\n".join([*lines[:3], ",".join(cells), *lines[4:]]))
        argv = {"label": ["label", "--input", str(path)],
                "predict": ["predict", "--input", str(path), "--model",
                            trained_model, "--year", "2008", "--anchor", "110"]}
        line = assert_one_error_line(capsys, main(argv[command]), EXIT_RUNTIME)
        assert "InvalidRecordError" in line and "line 4:" in line

    @pytest.mark.parametrize("command,config,key", [
        ("label", {"delta_c": "abc"}, "--delta-c"),
        ("label", {"delta_n": 2.5}, "--delta-n"),
        ("label", {"delta_c": True}, "--delta-c"),
        ("train", {"horizon": "x"}, "--horizon"),
        ("train", {"years": ["a"]}, "--years"),
        ("train", {"years": [2003, True]}, "--years"),
        ("backtest", {"test_years": [1]}, "--test-years"),
        ("backtest", {"test_years": 0}, "--test-years"),
        ("predict", {"year": "next"}, "--year"),
        ("predict", {"year": 2008, "anchor": {}}, "--anchor"),
        ("predict", {"year": 2008, "z_start": 50, "z_end": "x"}, "--z-end"),
        ("threshold", {"beta0": 0, "beta1": 1, "n_max": "many"}, "--n-max"),
        ("synth", {"seed": "x", "years": 1}, "--seed"),
        ("synth", {"seed": -1, "years": 1}, "--seed"),
        ("synth", {"years": 1.5}, "--years"),
        ("label", {"delta_c": 10**400}, "--delta-c"),
        ("threshold", {"beta0": -(10**400), "beta1": 1}, "--beta0"),
    ])
    def test_config_number_of_wrong_type(self, synth_csv, trained_model,
                                         tmp_path, capsys, command, config,
                                         key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        argv = {
            "synth": ["--out", str(tmp_path / "s.csv")],
            "label": ["--input", synth_csv],
            "train": ["--input", synth_csv, "--out", str(tmp_path / "m.json")],
            "predict": ["--input", synth_csv, "--model", trained_model],
            "backtest": ["--input", synth_csv, "--out-dir", str(tmp_path)],
            "threshold": [],
        }[command]
        code = main(["--config", str(path), command, *argv])
        line = assert_one_error_line(capsys, code, EXIT_USAGE)
        assert key in line

    @pytest.mark.parametrize("command,config", [
        ("backtest", {"out_dir": 3}),
        ("label", {"input": 0}),
        ("synth", {"out": 1}),
        ("threshold", {"out": 1}),
        ("synth", {"profile": 2.5}),
        ("predict", {"model": ["m.json"]}),
        ("predict", {"out_forecast": {}}),
        ("train", {"boundary": "middle"}),
        ("backtest", {"boundary": True}),
        ("train", {"protocol": "kfold"}),
        ("backtest", {"policy": "x"}),
        ("synth", {"verbose": "false"}),
    ])
    def test_config_string_of_wrong_type(self, tmp_path, capsys, command,
                                         config):
        # every path names a missing file in an empty directory, so a read
        # would exit 2 and a write would leave a file behind
        work = tmp_path / "work"
        work.mkdir()
        flags = {
            "synth": {"years": "1", "out": "s.csv"},
            "label": {"input": "in.csv"},
            "train": {"input": "in.csv", "out": "m.json"},
            "predict": {"input": "in.csv", "model": "m.json", "year": "2008",
                        "anchor": "110", "out_series": "s.csv"},
            "backtest": {"input": "in.csv", "out_dir": "report"},
            "threshold": {"beta0": "0", "beta1": "1"},
        }[command]
        argv = [x for key, value in flags.items() if key not in config
                for x in (f"--{key.replace('_', '-')}",
                          value if value[0].isdigit() else str(work / value))]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        code = main(["--config", str(path), command, *argv])
        line = assert_one_error_line(capsys, code, EXIT_USAGE)
        (key,) = config
        assert line.startswith(f"error: usage: --{key.replace('_', '-')} must be")
        assert list(work.iterdir()) == []

    def test_config_null_leaves_an_option_unset(self, synth_csv, tmp_path,
                                                capsys):
        assert main(["label", "--input", synth_csv]) == EXIT_OK
        plain = capsys.readouterr().out
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"delta_c": None, "delta_n": None,
                                    "input": None}))
        assert main(["--config", str(path), "label", "--input", synth_csv]) == EXIT_OK
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("command", ["train", "backtest"])
    @pytest.mark.parametrize("horizon", ["366", "100000000000000000000"])
    def test_horizon_past_a_year(self, synth_csv, tmp_path, capsys, command,
                                 horizon):
        # the first row's day, boundary - horizon, would come before day 1
        out = {"train": ["--out", str(tmp_path / "m.json")],
               "backtest": ["--test-years", "1",
                            "--out-dir", str(tmp_path / "report")]}[command]
        code = main([command, "--input", synth_csv, "--horizon", horizon, *out])
        line = assert_one_error_line(capsys, code, EXIT_RUNTIME)
        assert line == ("error: HorizonOutOfRangeError: horizon must be in "
                        f"1..365, got {horizon}")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    @pytest.mark.parametrize("flag", ["--config", "--profile", "--model", "--input"])
    def test_endless_file(self, synth_csv, trained_model, tmp_path, capsys, flag):
        # a reader takes at most MAX_INPUT_BYTES + 1 bytes, so a file that
        # never ends cannot use up the memory
        out = str(tmp_path / "out")
        argv, want = {
            "--config": (["--config", "/dev/zero", "synth", "--years", "1",
                          "--out", out], EXIT_USAGE),
            "--profile": (["synth", "--years", "1", "--profile", "/dev/zero",
                           "--out", out], EXIT_RUNTIME),
            "--model": (["predict", "--input", synth_csv, "--model", "/dev/zero",
                         "--year", "2008", "--anchor", "110",
                         "--out-series", out], EXIT_RUNTIME),
            "--input": (["train", "--input", "/dev/zero", "--out", out],
                        EXIT_RUNTIME),
        }[flag]
        line = assert_one_error_line(capsys, main(argv), want)
        assert line.endswith(f"/dev/zero is longer than {MAX_INPUT_BYTES} bytes")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("n_max", ["367", "1" + "0" * 400])
    def test_n_max_past_a_year(self, tmp_path, capsys, n_max):
        # the scan's work grows with n_max squared
        out = tmp_path / "f_th.csv"
        code = main(["threshold", "--beta0", "10", "--beta1=-1",
                     "--n-max", n_max, "--out", str(out)])
        line = assert_one_error_line(capsys, code, EXIT_RUNTIME)
        assert line == f"error: InvalidRecordError: n_max must be <= 366, got {n_max}"
        assert not out.exists()

    @pytest.mark.parametrize("years,profile,message", [
        (8000, None, "years 2003..10002 go past 9999"),
        (1, b"not json", "is not readable JSON"),
        (1, b"\xff{}", "is not readable JSON"),
        (1, b"[1, 2]", "must hold a JSON object"),
        (1, b"[" * 200_000 + b"]" * 200_000, "is not readable JSON"),
        (1, b'{"rise_width": "a"}', "rise_width must be a finite number"),
        (1, b'{"coldest_doy": 20.5}', "coldest_doy must be a finite integer"),
        (1, b'{"peak_mean": true}', "peak_mean must be a finite number"),
        (1, b'{"peak_mean": NaN}', "non-finite number NaN"),
        (1, b'{"tavg_mean": 1e999}', "tavg_mean must be a finite number"),
        (1, b'{"gdd_base": -1' + b"0" * 400 + b"}", "gdd_base must be a finite"),
        (1, b'{"start_year": 0}', "start_year must be >= 1"),
        (2, b'{"start_year": 9999}', "years 9999..10000 go past 9999"),
        (1, b'{"noise_rho": 2.0}', "noise_rho must be in [-1, 1]"),
        (1, b'{"noise_sigma": -1}', "noise_sigma must be >= 0"),
        (1, b'{"rain_scale": -0.5}', "rain_scale must be >= 0"),
    ], ids=["years_past_9999", "not_json", "not_utf8", "list", "deep", "string",
            "float_for_int", "bool", "nan", "inf", "int_past_float",
            "year_zero", "start_past_9999", "rho_past_one", "negative_sigma",
            "negative_scale"])
    def test_bad_synth_input(self, tmp_path, capsys, years, profile, message):
        argv = ["synth", "--years", str(years), "--out", str(tmp_path / "s.csv")]
        if profile is not None:
            (tmp_path / "p.json").write_bytes(profile)
            argv += ["--profile", str(tmp_path / "p.json")]
        line = assert_one_error_line(capsys, main(argv), EXIT_RUNTIME)
        assert line.startswith("error: InvalidRecordError: ") and message in line
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["--beta0", "1e200", "--beta1", "1"],
        ["--beta0", "1", "--beta1", "1e-200"],
        ["--beta0", "0", "--beta1", "1", "--z-start", "1e200"],
        ["--beta0", "0", "--beta1", "1", "--z-start", "1e17"],
        ["--beta0", "10", "--beta1=-1", "--z-start", "1e308"],
        ["--beta0", "10", "--beta1=-1", "--z-start=-1e308"],
        ["--beta0", "1e150", "--beta1", "1e-150"],
    ], ids=["beta0_squared_overflows", "beta1_squared_underflows",
            "z_squared_overflows", "days_round_to_one_z", "day_sum_overflows",
            "negative_day_sum_overflows", "intercept_ratio_overflows"])
    def test_threshold_outside_float_range(self, capsys, argv):
        # the last three used to print rows of nan (after a numpy warning) or inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["threshold", *argv, "--n-max", "5"])
        out, err = capsys.readouterr()
        assert (code, out, caught) == (EXIT_RUNTIME, "", [])
        assert err.startswith("error: NonFiniteError: ") and err.count("\n") == 1

    @pytest.mark.parametrize("config", [
        {"stage1": {"n_trees": 10**21}},
        {"stage2": {"n_trees": 2**31}},
        {"stage2": {"learning_rate": True}},
        {"stage1": {"subsample_fraction": True}},
    ], ids=["n_trees_huge", "n_trees_past_int32", "learning_rate_true",
            "subsample_fraction_true"])
    def test_stage_setting_out_of_range(self, synth_csv, tmp_path, capsys,
                                        config):
        # a huge n_trees used to fail in a pool worker, and true trained as 1.0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        code = main(["--config", str(path), "train", "--input", synth_csv,
                     "--out", str(tmp_path / "m.json")])
        line = assert_one_error_line(capsys, code, EXIT_USAGE)
        (stage,) = config
        assert line.startswith(f"error: usage: bad {stage} settings: ")
        assert not (tmp_path / "m.json").exists()

    def test_fit_error_in_worker_exits_2(self, synth_csv, tmp_path, capsys):
        cfg = write_config(tmp_path, {"stage1": {"min_samples_leaf": 100}})
        with cores(2):
            code = main(["--config", cfg, "train", "--input", synth_csv,
                         "--years", "2003-2004",
                         "--out", str(tmp_path / "m.json")])
        line = assert_one_error_line(capsys, code, EXIT_RUNTIME)
        assert "TooFewRowsError" in line

    def test_dead_worker_exits_2(self, synth_csv, tmp_path, capsys,
                                 monkeypatch):
        parent, fit = os.getpid(), gbm.fit

        def dying_fit(X, y, cfg=None):
            if os.getpid() != parent:
                os._exit(1)
            return fit(X, y, cfg)

        monkeypatch.setattr(gbm, "fit", dying_fit)
        with cores(2):
            code = main(["train", "--input", synth_csv, "--years", "2003-2004",
                         "--out", str(tmp_path / "m.json")])
        line = assert_one_error_line(capsys, code, EXIT_RUNTIME)
        assert "WorkerLostError" in line


class TestYearRange:
    """A year that ``datetime.date`` cannot hold is a usage error, found
    before any data is read."""

    @pytest.mark.parametrize("year", ["0", "-5", "10000", "12345678901234567890"])
    def test_predict_year(self, synth_csv, trained_model, capsys, year):
        code = main(["predict", "--input", synth_csv, "--model", trained_model,
                     f"--year={year}", "--anchor", "110"])
        line = assert_one_error_line(capsys, code, EXIT_USAGE)
        assert line.startswith("error: usage: --year must be a year in 1..9999")

    @pytest.mark.parametrize("years", ["0-2003", "1-999999999", "2003,0",
                                       "10000", "99999999999999999999-2"])
    def test_train_years(self, synth_csv, tmp_path, capsys, years):
        code = main(["train", "--input", synth_csv, f"--years={years}",
                     "--out", str(tmp_path / "m.json")])
        line = assert_one_error_line(capsys, code, EXIT_USAGE)
        assert line.startswith("error: usage: --years must be a year in 1..9999")

    def test_train_years_from_config(self, synth_csv, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"years": [2003, 0]}))
        code = main(["--config", str(path), "train", "--input", synth_csv,
                     "--out", str(tmp_path / "m.json")])
        line = assert_one_error_line(capsys, code, EXIT_USAGE)
        assert line.startswith("error: usage: --years must be a year in 1..9999")

    def test_year_outside_the_data_is_a_runtime_error(self, synth_csv,
                                                      trained_model, capsys):
        code = main(["predict", "--input", synth_csv, "--model", trained_model,
                     "--year", "9999", "--anchor", "110"])
        line = assert_one_error_line(capsys, code, EXIT_RUNTIME)
        assert "WindowUnavailableError" in line


#: JSON values a bundle mutation stores: every JSON type, numbers near
#: the node counts and feature counts and past every limit, and floats
#: that ``json.dumps`` writes as NaN or Infinity.
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 400),
    st.sampled_from([pl.STAGE1_COLUMNS, pl.STAGE1_COLUMNS + 1, 2**63, 10**400]),
    st.floats(),
    st.text(max_size=3),
    st.sampled_from(["[]", "{}", "[0]", '{"value": 1.0}']).map(json.loads))


def _containers(obj) -> list:
    """``obj`` and every object and list inside it."""
    found = [obj]
    for v in obj.values() if isinstance(obj, dict) else obj:
        if isinstance(v, (dict, list)):
            found += _containers(v)
    return found


@st.composite
def bundle_mutations(draw, text: str) -> str:
    """A valid bundle's text with one to three of its keys or list
    elements deleted, added or replaced by any JSON value, or its packed
    node arrays damaged (``helpers.damaged_text``)."""
    bundle = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        model = bundle.get(draw(st.sampled_from(["stage1_model", "stage2_model"])))
        key, _ = draw(st.sampled_from(PACKED_FIELDS))
        if (draw(st.booleans()) and isinstance(model, dict)
                and isinstance(model.get(key), str)):
            model[key] = damaged_text(draw, model[key])
            continue
        found = _containers(bundle)
        holder = found[draw(st.integers(0, len(found) - 1))]
        keys = sorted(holder) + ["extra"] if isinstance(holder, dict) else None
        at = draw(st.integers(0, len(keys or holder) - (keys is not None)))
        if at < len(holder) and draw(st.booleans()):
            del holder[keys[at] if keys else at]
        elif keys:
            holder[keys[at]] = draw(_JSON_VALUES)
        elif at < len(holder):
            holder[at] = draw(_JSON_VALUES)
        else:
            holder.append(draw(_JSON_VALUES))
    return json.dumps(bundle)


@pytest.fixture(scope="module")
def spring_2008(tmp_path_factory, synth_csv):
    """The synthetic data of 2008 up to 30 April: enough for an anchor at
    day 110, and quick to read."""
    records = [r for r in ingest_csv(synth_csv).records
               if dt.date(2008, 1, 1) <= r.date <= dt.date(2008, 4, 30)]
    path = tmp_path_factory.mktemp("spring") / "spring.csv"
    emit_csv(Dataset(records=tuple(records)), str(path))
    return str(path)


class TestBundleFuzz:
    """Random damage to a valid bundle: ``predict`` exits 0, or 2 with one
    ``error:`` line, never with a traceback."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_damaged_bundle_exits_cleanly(self, trained_model, spring_2008, data):
        with open(trained_model, encoding="utf-8") as fh:
            text = data.draw(bundle_mutations(fh.read()), label="bundle")
        path = os.path.join(os.path.dirname(spring_2008), "bundle.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["predict", "--input", spring_2008, "--model", path,
                         "--year", "2008", "--anchor", "110"])
        event(f"exit {code}")
        assert code in (EXIT_OK, EXIT_RUNTIME)
        assert "Traceback" not in err.getvalue()
        lines = err.getvalue().splitlines()
        errors = [ln for ln in lines if ln.startswith("error:")]
        assert len(errors) == (code == EXIT_RUNTIME)
        assert code == EXIT_OK or lines[-1] == errors[0]


#: Bytes a CSV mutation puts in: ones that ``csv.reader`` treats specially,
#: ones that end the fast parse's plain text, and one that is not UTF-8.
_CSV_BYTES = (b"\x00", b'"', b"\r", b"\n", b",", b"_", b"#", b" ", b"\x1f", b"\xff",
              "１".encode())


@st.composite
def csv_mutations(draw, data: bytes) -> bytes:
    """A valid CSV's bytes with one to three mutations: truncated, a byte
    put in, a line duplicated or two lines swapped, or a field blown up
    (over ``csv.field_size_limit()``, or long but under it)."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "insert", "duplicate", "swap", "blow_up"]))
        if kind == "truncate":
            data = data[:draw(st.integers(0, len(data)))]
        elif kind == "insert":
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.sampled_from(_CSV_BYTES)) + data[at:]
        else:
            lines = data.split(b"\n")
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in "ij")
            if kind == "duplicate":
                lines.insert(j, lines[i])
            elif kind == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            else:
                cells = lines[i].split(b",")
                cells[j % len(cells)] = draw(st.sampled_from([
                    b"9" * 200_000, b"0." + b"0" * 200_000 + b"1", b"1" * 400]))
                lines[i] = b",".join(cells)
            data = b"\n".join(lines)
    return data


class TestCsvFuzz:
    """Random damage to a valid CSV: ``label`` and ``predict`` exit 0, or 2
    or 64 with one ``error:`` line, never with a traceback."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_damaged_csv_exits_cleanly(self, trained_model, spring_2008, data):
        with open(spring_2008, "rb") as fh:
            damaged = data.draw(csv_mutations(fh.read()), label="csv")
        path = os.path.join(os.path.dirname(spring_2008), "damaged.csv")
        with open(path, "wb") as fh:
            fh.write(damaged)
        for argv in (["label", "--input", path],
                     ["predict", "--input", path, "--model", trained_model,
                      "--year", "2008", "--anchor", "110"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (EXIT_OK, EXIT_RUNTIME, EXIT_USAGE)
            assert "Traceback" not in err.getvalue()
            lines = err.getvalue().splitlines()
            errors = [ln for ln in lines if ln.startswith("error:")]
            assert len(errors) == (code != EXIT_OK)
            assert code == EXIT_OK or lines[-1] == errors[0]


#: JSON values a config mutation stores: every JSON type, integers past
#: every range, floats where an integer goes, and strings that are no path.
_CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 400), st.floats(),
    st.sampled_from([2**63, 10**400, -(10**400)]), st.text(max_size=3),
    st.sampled_from(["[]", "{}", "[2008]", '{"n_trees": 1}', '"start"',
                     '"loyo"']).map(json.loads))

#: ``years`` is the number of years ``synth`` generates.  It sets how long
#: the command runs, so it takes no number that would make it run long: 1-2
#: or one that ``synth`` refuses for every profile.
_SIZE_VALUES = {
    "years": _CONFIG_VALUES.filter(
        lambda v: isinstance(v, bool) or not isinstance(v, (int, float))
        or not 2 < v <= 9999),
}


@st.composite
def config_mutations(draw, config: dict) -> dict:
    """A valid config with one to three of its keys dropped, or set (an
    existing key, any config key or an unknown one) to any JSON value."""
    config = dict(config)
    for _ in range(draw(st.integers(1, 3))):
        keys = sorted(config)
        if keys and draw(st.booleans()):
            del config[draw(st.sampled_from(keys))]
        else:
            key = draw(st.sampled_from(keys + sorted(CONFIG_KEYS) + ["bogus"]))
            config[key] = draw(_SIZE_VALUES.get(key, _CONFIG_VALUES))
    return config


#: A generator profile's keys.
_PROFILE_KEYS = sorted(f.name for f in dataclasses.fields(GeneratorProfile))

#: Values a profile key takes: any JSON value, plain numbers, and floats at
#: the ends of the float range, which the generator may overflow.
_PROFILE_VALUES = st.one_of(
    _CONFIG_VALUES, st.floats(-1e3, 1e3), st.integers(-3, 3000),
    st.sampled_from([1e308, -1e308, 5e-324]))


@st.composite
def profile_files(draw) -> bytes:
    """A generator profile file: an object with up to three keys (a known or
    an unknown one) set to any value, another JSON value, or random bytes."""
    kind = draw(st.sampled_from(["object", "value", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=8))
    if kind == "value":
        return json.dumps(draw(_CONFIG_VALUES)).encode()
    keys = st.sampled_from(_PROFILE_KEYS + ["bogus"])
    profile = draw(st.dictionaries(keys, _PROFILE_VALUES, max_size=3))
    return json.dumps(profile).encode()


class TestConfigFuzz:
    """Random damage to a valid config: ``synth``, ``label``, ``predict``
    and ``threshold`` exit 0, or 2 or 64 with one ``error:`` line, never
    with a traceback.  ``synth`` also reads a damaged generator profile."""

    @given(data=st.data())
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_damaged_config_exits_cleanly(self, trained_model, spring_2008, data):
        work = os.path.join(os.path.dirname(spring_2008), "config-fuzz")
        os.makedirs(work, exist_ok=True)
        profile = os.path.join(work, "profile.json")
        valid = {
            "synth": {"years": 2, "seed": 3, "out": "synth.csv",
                      "profile": profile},
            "label": {"input": spring_2008, "delta_c": 120.0, "delta_n": 4},
            "predict": {"input": spring_2008, "model": trained_model,
                        "year": 2008, "anchor": 110,
                        "out_series": os.path.join(work, "series.csv"),
                        "out_forecast": os.path.join(work, "forecast.json")},
            "threshold": {"beta0": 10.0, "beta1": -1.0, "z_start": 1.0,
                          "n_max": 40, "out": os.path.join(work, "f_th.csv")},
        }
        command = data.draw(st.sampled_from(sorted(valid)), label="command")
        config = data.draw(config_mutations(valid[command]), label="config")
        if command == "synth":
            with open(profile, "wb") as fh:
                fh.write(data.draw(profile_files(), label="profile"))
        path = os.path.join(work, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        root = logging.getLogger()
        handlers, level = root.handlers[:], root.level  # "verbose" sets them
        err = io.StringIO()
        try:
            # a relative output path lands in the work directory
            with contextlib.chdir(work), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["--config", path, command])
        finally:
            root.handlers[:] = handlers
            root.setLevel(level)
        event(f"{command} exit {code}")
        assert code in (EXIT_OK, EXIT_RUNTIME, EXIT_USAGE)
        assert "Traceback" not in err.getvalue()
        lines = err.getvalue().splitlines()
        errors = [ln for ln in lines if ln.startswith("error:")]
        assert len(errors) == (code != EXIT_OK)
        assert code == EXIT_OK or lines[-1] == errors[0]
