"""CLI tests: subcommand behavior, exit codes, config parsing, and the
emitted CSV/SVG artifacts."""

import ctypes
import dataclasses
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from helpers import edit_checkpoint_header
from tstransformer import cli
from tstransformer.cli import DEFAULTS, _write_series_csv, load_run_config, main
from tstransformer.data import CsvSchema, DegradationSpec, TimeSeries, ingest_csv, make_windows, synth_degradation
from tstransformer.errors import ConfigError
from tstransformer.metrics import FaultThresholds, RulCoverageWarning, lag_error
from tstransformer.model import ModelConfig, TSTransformerModel
from tstransformer.training import TrainConfig, load_checkpoint, save_checkpoint, train


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small raw fixture plus a fast-training config file."""
    root = tmp_path_factory.mktemp("cli")
    spec = DegradationSpec(noise_std_volts=0.001, sample_interval_hours=0.025)
    raw = synth_degradation(seed=77, duration_hours=60.0, n_channels=3, spec=spec)
    _write_series_csv(root / "raw.csv", raw, "time_h", None)
    (root / "run.cfg").write_text(
        "# fast settings for tests\n"
        "split_hours=40\n"
        "lookback=16\n"
        "horizon=4\n"
        "epochs=3\n"
        "batch_size=32\n"
        "seed=9\n",
        encoding="utf-8",
    )
    return root


def run(*argv) -> int:
    return main([str(a) for a in argv])


# On the workdir fixture both the measured and the forecast voltage cross
# these thresholds, so lag tables hold numbers rather than empty cells.
CROSSING = ("--set", "split_hours=20", "--set", "thresholds=0.0011,0.0013,0.0015")


# ---------------------------------------------------------------------------
# config parsing


def test_defaults_cover_documented_keys():
    cfg = load_run_config(None, ())
    assert cfg.raw == DEFAULTS
    assert cfg.thresholds().loss_fractions == (0.035, 0.04, 0.045, 0.05, 0.055)
    assert cfg.rul_origin() == 500.0


def test_default_config_builds_library_defaults():
    cfg = load_run_config(None, ())
    assert len(DEFAULTS) == 28
    assert cfg.model_config(5) == ModelConfig(5, 32, 1)
    assert cfg.train_config() == TrainConfig()
    assert cfg.thresholds() == FaultThresholds()
    assert cfg.schema() == CsvSchema()


def test_config_file_and_set_entries_share_one_check(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("  epochs = 7  \r\n\n# note\nseed=3\n")
    cfg = load_run_config(p, ("learning_rate=0.5",))
    assert (cfg.raw["epochs"], cfg.raw["seed"], cfg.raw["learning_rate"]) == ("7", "3", "0.5")
    for item, message in ((" epochs=3", "unknown config key ' epochs'"), ("epochs", "expected key=value")):
        with pytest.raises(ConfigError, match=f"--set: {message}"):
            load_run_config(None, (item,))


def test_unknown_key_reports_line_number(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("split_hours=10\nnot_a_knob=1\n")
    with pytest.raises(ConfigError, match=":2"):
        load_run_config(p, ())


def test_malformed_line_reports_line_number(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("split_hours\n")
    with pytest.raises(ConfigError, match=":1"):
        load_run_config(p, ())


def test_overrides_win_over_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("epochs=10\n")
    cfg = load_run_config(p, ("epochs=3",))
    assert cfg.train_config().epochs == 3


def test_bad_override_key():
    with pytest.raises(ConfigError):
        load_run_config(None, ("mystery=1",))


def test_every_key_is_one_dataclass_field():
    # the CLI's own keys are RunSettings fields; the others belong to library config classes
    keys = [key for class_keys in cli._FIELD_KEYS.values() for key in class_keys]
    assert sorted(keys) == sorted(DEFAULTS)
    assert load_run_config(None, ()).settings() == cli.RunSettings()
    assert not hasattr(cli.RunConfig, "get_float") and not hasattr(cli.RunConfig, "get_int")


def test_stages_is_not_a_config_key(tmp_path, capsys):
    # ratios sets the stage count, so a stages key could only contradict it
    p = tmp_path / "run.cfg"
    p.write_text("stages=4\n")
    assert run("train", "--data", tmp_path / "pre.csv", "--config", p, "--out-checkpoint", tmp_path / "x.ckpt") == 2
    assert "run.cfg:1: unknown config key 'stages'" in capsys.readouterr().err
    assert run("train", "--data", tmp_path / "pre.csv", "--set", "stages=4",
               "--out-checkpoint", tmp_path / "x.ckpt") == 2
    assert "--set: unknown config key 'stages'" in capsys.readouterr().err


def test_readme_defaults_block_matches_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Defaults:\n\n```\n", 1)[1].split("```", 1)[0]
    documented = dict(entry.split("=", 1) for entry in block.split())
    assert documented == DEFAULTS


# ---------------------------------------------------------------------------
# preprocess


def test_preprocess_spacing_and_marker(workdir, capsys):
    assert run("preprocess", "--in", workdir / "raw.csv", "--out", workdir / "pre.csv",
               "--config", workdir / "run.cfg") == 0
    first = (workdir / "pre.csv").read_text().splitlines()[0]
    assert first == "#preprocessed interval=0.1h ma=15"
    ts = ingest_csv(workdir / "pre.csv")
    assert np.allclose(np.diff(ts.time), 0.1, atol=1e-9)
    assert "rows out" in capsys.readouterr().out


def test_preprocess_idempotent(workdir):
    assert run("preprocess", "--in", workdir / "pre.csv", "--out", workdir / "pre2.csv",
               "--config", workdir / "run.cfg") == 0
    assert (workdir / "pre.csv").read_bytes() == (workdir / "pre2.csv").read_bytes()


def test_preprocess_bad_schema_exit_2(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time_h,I_A\n0.0,70\n")
    assert run("preprocess", "--in", bad, "--out", tmp_path / "out.csv") == 2
    assert "Utot_V" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_and_losses(workdir):
    assert run("train", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               "--out-checkpoint", workdir / "model.ckpt") == 0
    assert (workdir / "model.ckpt").exists()
    loss_lines = (workdir / "model.ckpt.loss.csv").read_text().splitlines()
    assert loss_lines[0] == "epoch,mean_loss" and len(loss_lines) == 4


def test_train_rerun_byte_identical(workdir, tmp_path):
    for out in (tmp_path / "a.ckpt", tmp_path / "b.ckpt"):
        assert run("train", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
                   "--out-checkpoint", out) == 0
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    assert (tmp_path / "a.ckpt.loss.csv").read_bytes() == (tmp_path / "b.ckpt.loss.csv").read_bytes()


def test_train_split_outside_range_exit_2(workdir, tmp_path):
    assert run("train", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               "--set", "split_hours=10000", "--out-checkpoint", tmp_path / "x.ckpt") == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_numerical_failure_exit_4(workdir, tmp_path):
    assert run("train", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               "--set", "learning_rate=1e200", "--set", "clip_norm=0",
               "--out-checkpoint", tmp_path / "x.ckpt") == 4


def test_train_ratios_alone_set_the_stage_count(workdir, tmp_path):
    ckpt = tmp_path / "x.ckpt"
    assert run("train", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               "--set", "ratios=1,0.25", "--out-checkpoint", ckpt) == 0
    config = load_checkpoint(ckpt).config
    assert (config.stages, config.ratios) == (2, (1.0, 0.25))


# ---------------------------------------------------------------------------
# predict


def test_predict_covers_test_rows(workdir):
    assert run("predict", "--data", workdir / "pre.csv", "--checkpoint", workdir / "model.ckpt",
               "--out", workdir / "forecast.csv") == 0
    lines = (workdir / "forecast.csv").read_text().splitlines()
    assert lines[0] == "time_h,true_V,pred_V"
    ts = ingest_csv(workdir / "pre.csv")
    assert len(lines) - 1 == int(np.sum(ts.time >= 40.0))


def test_predict_unknown_override_exit_2(workdir, tmp_path, capsys):
    assert run("predict", "--data", workdir / "pre.csv", "--checkpoint", workdir / "model.ckpt",
               "--out", tmp_path / "f.csv", "--set", "bogus_key=1") == 2
    assert "bogus_key" in capsys.readouterr().err


def test_predict_rejects_keys_it_does_not_read(workdir, tmp_path, capsys):
    for key in ("lookback=64", "epochs=5", "width=8"):
        assert run("predict", "--data", workdir / "pre.csv", "--checkpoint", workdir / "model.ckpt",
                   "--out", tmp_path / "f.csv", "--set", key) == 2
        assert repr(key.split("=")[0]) in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_predict_honours_its_overrides(workdir, tmp_path):
    sets = ("split_hours=30", "covariate_mode=hold_last", "forecast_step=2", "time_column=time_h")
    assert run("predict", "--data", workdir / "pre.csv", "--checkpoint", workdir / "model.ckpt",
               "--out", tmp_path / "f.csv", *[a for s in sets for a in ("--set", s)]) == 0
    ts = ingest_csv(workdir / "pre.csv")
    assert len((tmp_path / "f.csv").read_text().splitlines()) - 1 == int(np.sum(ts.time >= 30.0))


@pytest.mark.parametrize("key, edit", [
    ("stats.mean", lambda v: v.rsplit(",", 1)[0]),
    ("stats.std", lambda v: ",".join("0.0" for _ in v.split(","))),
    ("stats.mean", lambda v: "nan," + v.split(",", 1)[1]),
    ("model.n_variates", lambda v: str(int(v) + 1)),
    ("stats.target", lambda v: "missing"),
    ("stats.target", lambda v: None),
    ("model.stages", lambda v: str(int(v) - 1)),
    ("stats.channels", lambda v: ",".join(v.split(",")[:1] * 2 + v.split(",")[2:])),
], ids=["short-mean", "zero-std", "nan-mean", "n-variates", "target", "no-target", "stages", "duplicate-channel"])
def test_predict_checkpoint_with_bad_stats_exit_3(workdir, tmp_path, capsys, key, edit):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes((workdir / "model.ckpt").read_bytes())
    edit_checkpoint_header(bad, key, edit)
    assert run("predict", "--data", workdir / "pre.csv", "--checkpoint", bad,
               "--out", tmp_path / "f.csv") == 3
    assert "checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_predict_checkpoint_with_a_subnormal_ratio_exit_3(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes((workdir / "model.ckpt").read_bytes())
    edit_checkpoint_header(bad, "model.ratios", lambda v: v.rsplit(",", 1)[0] + ",5e-324")
    assert run("predict", "--data", workdir / "pre.csv", "--checkpoint", bad,
               "--out", tmp_path / "f.csv") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "5e-324" in err
    assert "Traceback" not in err and not (tmp_path / "f.csv").exists()


def test_predict_missing_checkpoint_exit_3(workdir, tmp_path):
    assert run("predict", "--data", workdir / "pre.csv", "--checkpoint", tmp_path / "none.ckpt",
               "--out", tmp_path / "f.csv") == 3


def test_predict_corrupt_checkpoint_exit_3(workdir, tmp_path):
    bad = tmp_path / "corrupt.ckpt"
    bad.write_bytes(b"TSTC" + b"\x01\x00\x00\x00" + b"\xff\xff\xff\xff")
    assert run("predict", "--data", workdir / "pre.csv", "--checkpoint", bad,
               "--out", tmp_path / "f.csv") == 3


# ---------------------------------------------------------------------------
# evaluate


@pytest.fixture(scope="module")
def perfect_forecast(tmp_path_factory):
    # clean descending series crossing all five thresholds after origin 0
    root = tmp_path_factory.mktemp("eval")
    t = np.linspace(0.0, 600.0, 3001)
    v = 3.31 - 4.0e-4 * t
    lines = ["time_h,true_V,pred_V"] + [
        f"{float(a)!r},{float(b)!r},{float(b)!r}" for a, b in zip(t, v)
    ]
    (root / "forecast.csv").write_text("\n".join(lines) + "\n")
    return root


def test_evaluate_perfect_forecast(perfect_forecast, capsys):
    out = perfect_forecast / "report.csv"
    assert run("evaluate", "--forecast", perfect_forecast / "forecast.csv",
               "--out", out, "--set", "rul_origin_hours=0") == 0
    rows = out.read_text().strip().splitlines()
    summary = rows[-1].split(",")
    assert summary[0] == "summary"
    assert float(summary[1]) == 0.0  # rmse
    assert float(summary[2]) == 1.0  # score
    assert len(rows) == 7


def test_evaluate_svg_well_formed(perfect_forecast):
    svg_path = perfect_forecast / "report.svg"
    assert svg_path.exists()
    tree = ET.parse(svg_path)
    polylines = [e for e in tree.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 2  # one per series
    lines = [e for e in tree.iter() if e.tag.endswith("line")]
    assert len(lines) >= 5  # threshold rules plus crossing markers


def test_evaluate_missing_column_exit_2(tmp_path):
    bad = tmp_path / "f.csv"
    bad.write_text("time_h,true_V\n0,3.3\n")
    assert run("evaluate", "--forecast", bad, "--out", tmp_path / "r.csv") == 2


def test_evaluate_malformed_row_exit_2(tmp_path):
    bad = tmp_path / "f.csv"
    bad.write_text("time_h,true_V,pred_V\n0,3.3\n")
    assert run("evaluate", "--forecast", bad, "--out", tmp_path / "r.csv") == 2


def test_evaluate_threshold_crossed_at_origin_is_flagged(tmp_path, capsys):
    # true_V starts at 3.2 V, below the 3.5 % threshold (3.2086 V) at origin 0.
    t = np.linspace(0.0, 600.0, 3001)
    v = 3.2 - 1.0e-4 * t
    forecast = tmp_path / "f.csv"
    forecast.write_text("time_h,true_V,pred_V\n" + "".join(
        f"{float(a)!r},{float(b)!r},{float(b)!r}\n" for a, b in zip(t, v)))
    out = tmp_path / "r.csv"
    with pytest.warns(RulCoverageWarning, match="threshold 0.035: true series is already at or below"):
        assert run("evaluate", "--forecast", forecast, "--out", out,
                   "--set", "rul_origin_hours=0") == 0
    rows = out.read_text().splitlines()
    assert rows[1] == "0.035,0.0,0.0,,"
    assert rows[-1].endswith(",1.0,,")  # the other four thresholds score 1


def test_evaluate_forecast_crossing_no_threshold_writes_report(tmp_path, capsys):
    forecast = tmp_path / "f.csv"
    forecast.write_text("time_h,true_V,pred_V\n0.0,3.3,3.3\n1.0,3.3,3.3\n2.0,3.3,3.3\n")
    out = tmp_path / "r.csv"
    with pytest.warns(RulCoverageWarning):
        assert run("evaluate", "--forecast", forecast, "--out", out,
                   "--set", "rul_origin_hours=0") == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 7 and all(row.endswith(",,,,") for row in rows[1:-1])
    assert rows[-1] == "summary,0.0,,,"
    assert "Score_RUL n/a" in capsys.readouterr().out
    assert ET.parse(tmp_path / "r.svg").getroot().tag.endswith("svg")


@pytest.mark.parametrize("defect", ["repeated time", "nan", "inf"])
def test_evaluate_forecast_breaking_series_rules_exit_2(perfect_forecast, tmp_path, defect):
    # Rows that the old private parser accepted, in a forecast that crosses
    # every threshold: only the defect stands between them and exit 0.
    lines = (perfect_forecast / "forecast.csv").read_text().splitlines()
    time, true, pred = lines[1500].split(",")
    lines[1500] = {
        "repeated time": lines[1499].split(",")[0] + f",{true},{pred}",
        "nan": f"{time},nan,{pred}",
        "inf": f"{time},{true},inf",
    }[defect]
    bad = tmp_path / "f.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run("evaluate", "--forecast", bad, "--out", tmp_path / "r.csv",
               "--set", "rul_origin_hours=0") == 2
    assert not (tmp_path / "r.csv").exists()


# ---------------------------------------------------------------------------
# lag-scan


def test_lag_scan_table_shape(workdir):
    out = workdir / "lag.csv"
    assert run("lag-scan", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               "--windows", "8,16", "--out", out) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("window,lag_h_ft_0.035")
    assert len(rows) == 3
    assert rows[1].split(",")[0] == "8" and rows[2].split(",")[0] == "16"
    assert all(len(r.split(",")) == 6 for r in rows)


def test_lag_scan_rows_match_train_then_predict(workdir, tmp_path):
    # Non-default rollout keys, so the checkpoint header must carry them to predict.
    sets = CROSSING + ("--set", "forecast_step=2", "--set", "covariate_mode=hold_last")
    out = tmp_path / "lag.csv"
    assert run("lag-scan", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               *sets, "--windows", "8,16", "--out", out) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert any(cell for row in rows for cell in row.split(",")[1:])
    cfg = load_run_config(workdir / "run.cfg", sets[1::2])
    for size, row in zip((8, 16), rows):
        ckpt, forecast = tmp_path / f"w{size}.ckpt", tmp_path / f"w{size}.csv"
        assert run("train", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
                   *sets, "--set", f"lookback={size}", "--out-checkpoint", ckpt) == 0
        assert run("predict", "--data", workdir / "pre.csv", "--checkpoint", ckpt,
                   "--out", forecast) == 0
        time, true, pred = cli._read_forecast_csv(forecast)
        lags = [lag_error(time, pred, true, thr, cfg.rul_origin())
                for thr in cfg.thresholds().voltages]
        assert row == f"{size}," + ",".join("" if v is None else repr(v) for v in lags)


def test_lag_scan_honours_forecast_step(workdir, tmp_path):
    tables = []
    for step in (1, 4):
        out = tmp_path / f"lag{step}.csv"
        assert run("lag-scan", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
                   *CROSSING, "--set", f"forecast_step={step}", "--windows", "16", "--out", out) == 0
        tables.append(out.read_text())
    assert all(any(table.splitlines()[1].split(",")[1:]) for table in tables)
    assert tables[0] != tables[1]


def test_lag_scan_all_channel_loss(workdir, tmp_path):
    assert run("lag-scan", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               "--set", "loss_channels=all", "--windows", "8", "--out", tmp_path / "lag.csv") == 0


def test_lag_scan_ingests_once(workdir, tmp_path, monkeypatch):
    calls = []

    def counting_ingest(*a, **kw):
        calls.append(a)
        return ingest_csv(*a, **kw)

    monkeypatch.setattr(cli, "ingest_csv", counting_ingest)
    assert run("lag-scan", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               "--windows", "8,16", "--out", tmp_path / "lag.csv") == 0
    assert len(calls) == 1


def test_lag_scan_failure_names_window_size(workdir, tmp_path, capsys):
    for windows, entry, code in (("100000", "100000", 3), ("8,abc", "abc", 2)):
        rc = run("lag-scan", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
                 "--windows", windows, "--out", tmp_path / "lag.csv")
        assert rc == code, windows
        assert entry in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("covariate_mode", "bogus"),
    ("forecast_step", "abc"),
    ("forecast_step", "5"),  # beyond horizon=4
    ("forecast_step", "-1"),
])
def test_bad_rollout_key_exits_2_before_any_training(workdir, tmp_path, monkeypatch, capsys, key, value):
    def no_training(*a, **kw):
        raise AssertionError("trained despite a bad rollout key")

    monkeypatch.setattr(cli, "train", no_training)
    ckpt, out = tmp_path / "x.ckpt", tmp_path / "lag.csv"
    assert run("train", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               "--set", f"{key}={value}", "--out-checkpoint", ckpt) == 2
    assert not ckpt.exists() and not ckpt.with_suffix(".ckpt.loss.csv").exists()
    assert run("lag-scan", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               "--set", f"{key}={value}", "--windows", "8,16", "--out", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count(value) == 2 and "window size" not in err


def test_lag_scan_bad_window_size_fails_before_any_training(workdir, tmp_path, monkeypatch, capsys):
    def no_training(*a, **kw):
        raise AssertionError("trained a window size before checking all of them")

    monkeypatch.setattr(cli, "train", no_training)
    out = tmp_path / "lag.csv"
    assert run("lag-scan", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               "--windows", "32,0", "--out", out) == 2
    assert "lag-scan failed for window size 0: lookback and horizon must be >= 1" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# typed config values (uses the files the tests above wrote)


@pytest.mark.parametrize("command, key, value", [
    ("train", "lookback", "abc"),
    ("preprocess", "ma_window", "x"),
    ("evaluate", "thresholds", "abc"),
    ("predict", "forecast_step", "abc"),
    ("train", "learning_rate", "nan"),
    ("train", "layer_norm_eps", "nan"),
    ("train", "adam_beta1", "nan"),
    ("train", "clip_norm", "nan"),
    ("train", "ratios", "1,0.25,inf,0.03125"),
    ("preprocess", "interval_h", "nan"),
    ("evaluate", "initial_voltage", "nan"),
    ("evaluate", "rul_origin_hours", "nan"),
    ("evaluate", "thresholds", "0.035,nan"),
    ("predict", "split_hours", "-inf"),
    ("preprocess", "lookback", "abc"),  # decoded with the other RunSettings keys
    ("evaluate", "forecast_step", "abc"),
])
def test_untyped_value_exit_2_names_key(workdir, tmp_path, capsys, command, key, value):
    inputs = {
        "train": ["--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
                  "--out-checkpoint", tmp_path / "x.ckpt"],
        "preprocess": ["--in", workdir / "raw.csv", "--out", tmp_path / "pre.csv"],
        "evaluate": ["--forecast", workdir / "forecast.csv", "--out", tmp_path / "r.csv"],
        "predict": ["--data", workdir / "pre.csv", "--checkpoint", workdir / "model.ckpt",
                    "--out", tmp_path / "f.csv"],
    }[command]
    assert run(command, *inputs, "--set", f"{key}={value}") == 2
    err = capsys.readouterr().err
    assert key in err and repr(value) in err


@pytest.mark.parametrize("key, value, field", [
    ("adam_beta1", "2", "beta1"),
    ("adam_beta2", "1", "beta2"),
    ("adam_eps", "-1", "adam_eps"),
    ("clip_norm", "-1", "clip_norm"),
    ("patience", "-1", "patience"),
    ("seed", "-1", "seed"),
])
def test_out_of_range_train_value_exit_2(workdir, tmp_path, monkeypatch, capsys, key, value, field):
    def no_training(*a, **kw):
        raise AssertionError("trained despite an out-of-range training value")

    monkeypatch.setattr(cli, "train", no_training)
    ckpt, out = tmp_path / "x.ckpt", tmp_path / "lag.csv"
    assert run("train", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               "--set", f"{key}={value}", "--out-checkpoint", ckpt) == 2
    assert field in capsys.readouterr().err
    assert not ckpt.exists()
    assert run("lag-scan", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               "--set", f"{key}={value}", "--windows", "8,16", "--out", out) == 2
    err = capsys.readouterr().err
    assert field in err and "window size" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# inputs that must end in an exit code, not a traceback


def test_subnormal_ratio_exit_2(workdir, tmp_path, capsys):
    ckpt = tmp_path / "x.ckpt"
    assert run("train", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               "--set", "ratios=1,0.25,0.0625,5e-324", "--out-checkpoint", ckpt) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "5e-324" in err
    assert "Traceback" not in err and not ckpt.exists()


def test_unallocatable_parameter_vector_exit_2(workdir, tmp_path, capsys):
    # 1e-300 is a valid ratio, but its reducer kernels would hold 1e300 rows: more than MAX_PARAMETERS
    ckpt, out = tmp_path / "x.ckpt", tmp_path / "lag.csv"
    ratios = ("--set", "ratios=1,0.25,0.0625,1e-300")
    assert run("train", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg", *ratios,
               "--out-checkpoint", ckpt) == 2
    assert run("lag-scan", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg", *ratios,
               "--windows", "8", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("parameter scalars") == 2 and "window size 8" in err
    assert not ckpt.exists() and not out.exists()


@pytest.mark.parametrize("interval", ["1e-300", "1e-320"])
def test_preprocess_interval_too_small_to_bin_exit_2(workdir, tmp_path, capsys, interval):
    out = tmp_path / "pre.csv"
    assert run("preprocess", "--in", workdir / "raw.csv", "--out", out,
               "--set", f"interval_h={interval}", "--set", "ma_window=1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "too small" in err
    assert not out.exists()


def test_set_value_with_line_break_exit_2(workdir, tmp_path, capsys):
    ckpt = tmp_path / "x.ckpt"
    assert run("train", "--data", workdir / "pre.csv", "--config", workdir / "run.cfg",
               "--set", "covariate_mode=oracle\nmodel.width=8", "--out-checkpoint", ckpt) == 2
    assert "'covariate_mode'" in capsys.readouterr().err
    assert not ckpt.exists()
    with pytest.raises(ConfigError, match="'time_column'"):
        load_run_config(None, ("time_column=t\rx",))


@pytest.mark.parametrize("command, code", [("preprocess", 3), ("train", 3), ("evaluate", 2)])
def test_non_utf8_csv_exit_code_names_file(workdir, tmp_path, capsys, command, code):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"time_h,Utot_V,true_V,pred_V\n0.0,3.3,3.3,3.3\n# \xb0C\n")
    inputs = {
        "preprocess": ["--in", bad, "--out", tmp_path / "pre.csv"],
        "train": ["--data", bad, "--config", workdir / "run.cfg", "--out-checkpoint", tmp_path / "x.ckpt"],
        "evaluate": ["--forecast", bad, "--out", tmp_path / "r.csv"],
    }[command]
    assert run(command, *inputs) == code
    assert "latin1.csv: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command, code", [("preprocess", 3), ("train", 3), ("evaluate", 2)])
def test_csv_field_over_the_size_limit_exit_code_names_file_and_line(workdir, tmp_path, capsys, command, code):
    # A stray quote opens a field that runs over csv.field_size_limit (128 KiB):
    # the csv module's error once ended the call in a traceback.
    bad = tmp_path / "quote.csv"
    rows = "".join(f"{i}.5,3.3,3.3,3.3\n" for i in range(12000))
    bad.write_text(f'time_h,Utot_V,true_V,pred_V\n0.0,3.3,3.3,3.3\n"{rows}', encoding="utf-8")
    inputs = {
        "preprocess": ["--in", bad, "--out", tmp_path / "pre.csv"],
        "train": ["--data", bad, "--config", workdir / "run.cfg", "--out-checkpoint", tmp_path / "x.ckpt"],
        "evaluate": ["--forecast", bad, "--out", tmp_path / "r.csv"],
    }[command]
    assert run(command, *inputs) == code
    err = capsys.readouterr().err
    assert re.search(r"quote\.csv: line (\d+): field larger than field limit", err), err
    assert int(re.search(r"line (\d+)", err).group(1)) > 3  # where the field outgrew the limit


def test_non_utf8_config_exit_2(workdir, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# \xb0C\nepochs=1\n")
    assert run("train", "--data", workdir / "pre.csv", "--config", cfg,
               "--out-checkpoint", tmp_path / "x.ckpt") == 2
    assert "latin1.cfg: not UTF-8" in capsys.readouterr().err


def test_directory_as_input_exit_2(workdir, tmp_path):
    assert run("train", "--data", tmp_path, "--config", workdir / "run.cfg",
               "--out-checkpoint", tmp_path / "x.ckpt") == 2
    assert run("preprocess", "--in", tmp_path, "--out", tmp_path / "pre.csv") == 2
    # An unreadable checkpoint stays a checkpoint failure.
    assert run("predict", "--data", workdir / "pre.csv", "--checkpoint", tmp_path,
               "--out", tmp_path / "f.csv") == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_predict_non_finite_forecast_exit_4(workdir, tmp_path, capsys):
    ckpt = load_checkpoint(workdir / "model.ckpt")
    model = ckpt.to_model()
    model.param("embed.weight").data *= 1e306
    extra = {k: v for k, v in ckpt.header.items() if k.startswith("train.")}
    scaled = tmp_path / "scaled.ckpt"
    save_checkpoint(scaled, model, ckpt.stats, ckpt.header["stats.target"], extra)
    assert run("predict", "--data", workdir / "pre.csv", "--checkpoint", scaled,
               "--out", tmp_path / "f.csv") == 4
    assert "non-finite forecast" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def _set_before_split(workdir, path, channel, value, offsets):
    """Copy the preprocessed fixture to ``path`` with ``channel`` set to the text
    ``value`` in the rows ``offsets`` places before the 40 h split (1 is the
    last row before it); returns the split's row index, the rollout's first round."""
    head, cols, *rows = (workdir / "pre.csv").read_text().splitlines()
    origin = sum(float(row.split(",")[0]) < 40.0 for row in rows)
    col = cols.split(",").index(channel)
    for k in offsets:
        cells = rows[origin - k].split(",")
        cells[col] = value
        rows[origin - k] = ",".join(cells)
    path.write_text("\n".join([head, cols, *rows]) + "\n")
    return origin


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_predict_overflow_hidden_by_layer_norm_exit_4(workdir, tmp_path, capsys):
    # The sum of squares in the first layer norm overflows on this row, and
    # the norm maps it to zeros: the forecast came out finite, and predict
    # wrote it and exited 0 with only a RuntimeWarning.
    origin = _set_before_split(workdir, tmp_path / "bad.csv", "I_A", "1e155", [5])
    assert run("predict", "--data", tmp_path / "bad.csv", "--checkpoint", workdir / "model.ckpt",
               "--out", tmp_path / "f.csv") == 4
    assert f"non-finite forecast in the round starting at row {origin}: overflow" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_predict_overflowing_window_mean_exit_4(workdir, tmp_path, capsys):
    # Six target values of 0.3 times the float64 maximum after z-scoring: each
    # is finite, the window's sum is not, and forward's ValueError once ended
    # predict in a traceback.
    mean, std = load_checkpoint(workdir / "model.ckpt").stats.channel("Utot_V")
    value = repr(float(mean + 0.3 * np.finfo(np.float64).max * std))
    origin = _set_before_split(workdir, tmp_path / "bad.csv", "Utot_V", value, range(1, 7))
    assert run("predict", "--data", tmp_path / "bad.csv", "--checkpoint", workdir / "model.ckpt",
               "--out", tmp_path / "f.csv") == 4
    assert f"non-finite forecast in the round starting at row {origin}: tensor data" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


# ---------------------------------------------------------------------------
# allocator


def test_warm_training_step_page_faults_nothing():
    # glibc's default trims the freed heap top after every step, and the next
    # step faults it back in: thousands of minor faults per step at horizon 2000
    resource = pytest.importorskip("resource")
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        pytest.skip("the C library has no mallopt")
    cli._keep_heap_resident()
    m, lookback, horizon, batch, steps = 5, 32, 2000, 64, 20
    n = batch + lookback + horizon - 1  # exactly one batch of windows, so an epoch is one step
    names = tuple(f"c{i}" for i in range(m))
    series = TimeSeries(np.arange(n) * 0.1, np.random.default_rng(0).normal(size=(n, m)), names, names[0])
    windows = make_windows(series, lookback, horizon)
    model = TSTransformerModel(ModelConfig(m, lookback, horizon), seed=0)
    tcfg = TrainConfig(epochs=5, batch_size=batch)
    train(model, windows, tcfg)  # warm
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(model, windows, dataclasses.replace(tcfg, epochs=steps))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / steps <= 50


# None: a C library without mallopt (macOS); OSError, TypeError: none to load (Windows)
@pytest.mark.parametrize("failure", [None, OSError, TypeError])
def test_main_runs_where_mallopt_is_missing(workdir, tmp_path, monkeypatch, failure):
    opened = []

    def cdll(name):
        opened.append(name)
        if failure is not None:
            raise failure("no C library")
        return object()

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert run("preprocess", "--in", workdir / "raw.csv", "--out", tmp_path / "pre.csv") == 0
    assert opened == [None]
