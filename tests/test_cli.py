"""CLI tests: argument handling, exit codes, file outputs, reproducibility."""

import datetime as dt
import json
import os
import subprocess
import sys

import pytest

from helpers import cores, year_dataset
import pollencast
from pollencast import gbm
from pollencast import pipeline as pl
from pollencast.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from pollencast.data import Dataset, emit_csv
from pollencast.features import CATALOG_VERSION

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
    def test_subcommand_help_exits_zero(self, command):
        assert main([command, "--help"]) == 0

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
        flat = gbm.GBMModel(base_prediction=30.0, trees=(), learning_rate=1.0,
                            feature_count=361, config=gbm.GBMConfig(),
                            catalog_version=CATALOG_VERSION)
        fc = pl.Forecaster(
            stage1=pl.Stage1Model(model=flat, boundary="start", horizon=59,
                                  references=(120.0,) + (10.0,) * 11,
                                  train_years=(2003,)),
            stage2=pl.Stage2Model(model=gbm.GBMModel(
                base_prediction=1.0, trees=(), learning_rate=1.0,
                feature_count=362, config=gbm.GBMConfig()),
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

    def test_invalid_json_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert main(["--config", str(cfg), "synth", "--years", "1",
                     "--out", "x.csv"]) == EXIT_USAGE

    def test_non_object_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2]")
        assert main(["--config", str(cfg), "synth", "--years", "1",
                     "--out", "x.csv"]) == EXIT_USAGE

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "none.json"), "synth",
                     "--years", "1", "--out", "x.csv"]) == EXIT_USAGE

    def test_bad_stage_settings_are_usage_error(self, synth_csv, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"stage1": {"n_trees": 0}}))
        assert main(["--config", str(cfg), "train", "--input", synth_csv,
                     "--out", str(tmp_path / "m.json")]) == EXIT_USAGE


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


def _first_split(bundle):
    """The first split node of the Stage-1 trees of a bundle object."""
    return next(t for t in bundle["stage1_model"]["trees"] if "feature" in t)


#: Ways to break a valid bundle object; each must give exit 2 and one line.
BROKEN_BUNDLES = {
    "missing_key": lambda b: b.pop("u_floor"),
    "missing_model_key": lambda b: b["stage2_model"].pop("trees"),
    "wrong_type": lambda b: b.update(horizon="59"),
    "bool_for_int": lambda b: b.update(horizon=True),
    "include_doy_false": lambda b: b.update(include_doy=False),
    "eleven_references": lambda b: b["references"].pop(),
    "nan_reference": lambda b: b["references"].__setitem__(3, float("nan")),
    "inf_reference": lambda b: b["references"].__setitem__(0, float("inf")),
    "split_feature_past_end": lambda b: _first_split(b).update(
        feature=b["stage1_model"]["feature_count"]),
    "negative_split_feature": lambda b: _first_split(b).update(feature=-1),
    "other_catalog_version": lambda b: b["stage1_model"].update(
        catalog_version="w14s29-v0"),
    "bad_model_config": lambda b: b["stage2_model"].update(config={"bogus": 1}),
    "zero_u_floor": lambda b: b.update(u_floor=0),
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
        BROKEN_BUNDLES[case](bundle)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(bundle))
        line = assert_one_error_line(
            capsys, self.predict(synth_csv, path), EXIT_RUNTIME)
        assert "InvalidRecordError" in line

    @pytest.mark.parametrize("text", [b"{not json", b"", b"\xff\xfe\x00garbage",
                                      b"[1, 2]"],
                             ids=["not_json", "empty", "not_utf8",
                                  "not_an_object"])
    def test_unreadable_bundle(self, synth_csv, tmp_path, capsys, text):
        path = tmp_path / "broken.json"
        path.write_bytes(text)
        line = assert_one_error_line(
            capsys, self.predict(synth_csv, path), EXIT_RUNTIME)
        assert "InvalidRecordError" in line

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

