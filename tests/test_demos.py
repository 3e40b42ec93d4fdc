"""Smoke tests: the demos that tour the tensor core, the attention and
the RUL metrics run to completion, the latter two recording no graph; the
data pipeline demo runs and writes its two CSVs; the training demo
round-trips its checkpoint to a bit-identical forward."""

import runpy
from pathlib import Path

import pytest

from helpers import count_nodes

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name", ["01_autodiff_basics.py", "02_multiscale_attention.py", "05_rul_metrics.py"]
)
def test_demo_runs(name, capsys):
    _, nodes = count_nodes(lambda: runpy.run_path(str(DEMOS / name), run_name="__main__"))
    assert capsys.readouterr().out
    if name == "01_autodiff_basics.py":  # the tour records graphs and runs backward on them
        assert nodes > 0
    else:
        assert nodes == 0  # inference forwards run under no_grad


def test_pipeline_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the demo writes demo_out/ under the working directory
    runpy.run_path(str(DEMOS / "03_synthetic_pipeline.py"), run_name="__main__")
    assert "sliding windows:" in capsys.readouterr().out
    assert sorted(p.name for p in (tmp_path / "demo_out").iterdir()) == ["preprocessed.csv", "raw.csv"]


def test_train_and_forecast_demo_round_trips_its_checkpoint(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the demo writes demo_out/model.ckpt under the working directory
    runpy.run_path(str(DEMOS / "04_train_and_forecast.py"), run_name="__main__")
    assert "checkpoint round-trip bit-identical forward: True" in capsys.readouterr().out
    assert (tmp_path / "demo_out" / "model.ckpt").is_file()
