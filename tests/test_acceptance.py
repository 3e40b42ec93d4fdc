"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The criteria pin the
published-score oracle, gradient correctness, attention equivalence,
shape clamps, an overfit run, the full CLI chain on the seeded synthetic
fixture, byte-level determinism, the lag-scan table, and the accuracy
half-life identities.
"""

import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    attention,
    degradation_fixture_spec,
    mul,
    multi_scale_attention,
    reduce_kv,
    sum_all,
    vanilla_attention_reference,
)
from tstransformer import autodiff as ad
from tstransformer.autodiff import Tensor
from tstransformer.cli import _write_series_csv, main
from tstransformer.data import (
    DegradationSpec,
    make_windows,
    split_at,
    synth_degradation,
    zscore_apply,
    zscore_fit,
)
from tstransformer.metrics import accuracy_ft, rmse, score_rul
from tstransformer.model import ModelConfig, TSTransformerModel, _fuse_stage, _stage_forward
from tstransformer.training import TrainConfig, mse_loss, rolling_forecast, train

TABLE_PERCENT_ERRORS = (-2.706, 0.466, -0.206, -0.269, -0.251)


def _report(number: int, name: str, elapsed: float, budget: float) -> None:
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert elapsed < budget


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    """Seeded noisy fixture, written raw and preprocessed via the CLI."""
    root = tmp_path_factory.mktemp("chain")
    raw = synth_degradation(seed=2024, duration_hours=1150.0, n_channels=5,
                            spec=degradation_fixture_spec())
    _write_series_csv(root / "raw.csv", raw, "time_h", None)
    (root / "run.cfg").write_text(
        "split_hours=500\n"
        "lookback=32\n"
        "horizon=2000\n"
        "forecast_step=500\n"
        "epochs=60\n"
        "seed=42\n",
        encoding="utf-8",
    )
    rc = main(["preprocess", "--in", str(root / "raw.csv"), "--out", str(root / "pre.csv"),
               "--config", str(root / "run.cfg")])
    assert rc == 0
    return root


def test_criterion_1_metric_oracle():
    t0 = time.perf_counter()
    accs = [accuracy_ft(pe) for pe in TABLE_PERCENT_ERRORS]
    score = score_rul(accs)
    assert score == pytest.approx(0.914, abs=0.005)
    _report(1, "metric oracle", time.perf_counter() - t0, 1.0)


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)

    # every primitive, probed through a fixed cotangent
    cot = Tensor(rng.normal(size=(4, 6)))
    x = Tensor(rng.normal(size=(4, 6)) + np.sign(rng.normal(size=(4, 6))) * 0.5, requires_grad=True)
    w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
    b = Tensor(rng.normal(size=6), requires_grad=True)
    k = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    cot3 = Tensor(rng.normal(size=(2, 6)))
    kv = [Tensor(rng.normal(size=(3, 6)), requires_grad=True) for _ in range(2)]
    rng.normal(size=(1, 6))  # drawn for a removed entry, so the inputs below stay the same
    # a heads=2 model whose stages have reduction 2 (N > r: attention) and 4
    # (N <= r: one key); the k and k-reducer biases get zero gradient by
    # softmax shift invariance, so a small cotangent keeps the loss ulp, and
    # their FD noise, small
    cot_stage = Tensor(1e-3 * rng.normal(size=(4, 6)))
    stage = {r: [0.5 * rng.normal(size=shape) for shape in [(6, 6), (6,)] * 3 + [(r, 6), (6,)] * 2
                 + [(6, 6), (6,)] * 2]
             for r in (2, 4)}
    stage_cfg = ModelConfig(n_variates=4, lookback=5, horizon=6, width=6,
                            ratios=(0.5, 0.25), heads=2)
    init = [p.data for p in TSTransformerModel(stage_cfg, seed=20).parameters()]
    stage_model = TSTransformerModel.from_arrays(stage_cfg, init[:2] + stage[2] + stage[4] + init[-2:])
    stage_window = np.random.default_rng(21).normal(size=(5, 4))
    two_stages = lambda: sum_all(mul(stage_model.forward(stage_window), cot_stage))
    primitives = {
        "matmul": (lambda: sum_all(mul(ad.matmul(x, w), cot)), [x, w]),
        "affine": (lambda: sum_all(mul(ad.affine(x, w, b), cot)), [x, w, b]),
        "softmax_last": (lambda: sum_all(mul(ad.softmax_last(x), cot)), [x]),
        "layer_norm": (lambda: sum_all(mul(ad.layer_norm(x), cot)), [x]),
        "relu": (lambda: sum_all(mul(ad.relu(x), cot)), [x]),
        "depthwise_conv1d": (
            lambda: sum_all(mul(ad.depthwise_conv1d(x, k, b, 2), cot3)),
            [x, k, b],
        ),
        "attention": (lambda: sum_all(mul(attention(x, *kv, 2), cot)), [x, *kv]),
        "model with N > r and N <= r stages": (two_stages, stage_model.parameters()),
    }
    for name, (f, params) in primitives.items():
        err = ad.gradient_check(f, params, h=1e-5)
        assert err <= 1e-4, f"{name}: {err}"

    # full toy model: M=6, T_w=32, D=16, L=4, default ratio schedule
    cfg = ModelConfig(n_variates=6, lookback=32, horizon=1, width=16)
    model = TSTransformerModel(cfg, seed=1)
    rng = np.random.default_rng(1)
    window = rng.normal(size=(32, 6))
    with ad.no_grad():
        base = model.forward(window).data.copy()
    target = base + 0.05 * rng.normal(size=base.shape)
    err = ad.gradient_check(lambda: mse_loss(model.forward(window), target),
                            model.parameters(), h=1e-4)
    assert err <= 1e-4, f"full model: {err}"
    _report(2, "gradient suite", time.perf_counter() - t0, 60.0)


def test_criterion_3_vanilla_equivalence():
    t0 = time.perf_counter()
    cfg = ModelConfig(n_variates=6, lookback=32, horizon=1, width=16, mode="vanilla")
    model = TSTransformerModel(cfg, seed=2)
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(100):
        tokens = rng.normal(size=(6, 16))
        stage = i % cfg.stages
        got = multi_scale_attention(model, Tensor(tokens), stage).data
        ref = vanilla_attention_reference(tokens, model, stage)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst <= 1e-9
    _report(3, "vanilla equivalence", time.perf_counter() - t0, 10.0)


def test_criterion_4_shape_and_clamp():
    t0 = time.perf_counter()
    cfg = ModelConfig(n_variates=6, lookback=32, horizon=1, width=16)
    model = TSTransformerModel(cfg, seed=4)
    rng = np.random.default_rng(5)
    for n in range(1, 41):
        tokens = Tensor(rng.normal(size=(n, 16)))
        for stage, r in enumerate(cfg.reduction_factors):
            k, v = reduce_kv(model, tokens, stage)
            expected = max(1, -(-n // r))
            assert k.shape == (expected, 16) and v.shape == (expected, 16)
            built = _fuse_stage(model._stage_arrays[stage], r, n)
            out, _ = _stage_forward(tokens.data, built, cfg.heads, cfg.eps)
            assert out.shape == (n, 16)
    _report(4, "shape/clamp suite", time.perf_counter() - t0, 5.0)


# None runs the test as is; an index nudges that project.weight entry up by one
# ulp at init, so the pass cannot hang on how one product happens to round.
@pytest.mark.parametrize("nudged", [None, 1, 2, 3])
def test_criterion_5_overfit_property(nudged):
    t0 = time.perf_counter()
    series = synth_degradation(seed=101, duration_hours=200.0, n_channels=4,
                               spec=DegradationSpec(noise_std_volts=0.0))
    assert len(series) == 2000
    train_ts, _ = split_at(series, 150.0)
    stats = zscore_fit(train_ts)
    windows = make_windows(zscore_apply(train_ts, stats), 32, 1)
    model = TSTransformerModel(ModelConfig(n_variates=4, lookback=32, horizon=1), seed=42)
    if nudged is not None:
        w = model.param("project.weight").data.reshape(-1)
        w[nudged] = np.nextafter(w[nudged], np.inf)
    history = train(model, windows, TrainConfig())  # defaults: 300 epochs <= 500
    assert min(history) <= 1e-3
    forecast = rolling_forecast(model, series, stats, 150.0)
    volt_rmse = rmse(forecast.pred, forecast.true)
    assert volt_rmse < 0.01
    _report(5, "overfit property", time.perf_counter() - t0, 300.0)


def _read_report(path):
    rows = Path(path).read_text().strip().splitlines()
    assert rows[0] == "ft,rul_true_h,rul_pred_h,percent_error_pct,accuracy"
    body, summary = rows[1:-1], rows[-1].split(",")
    assert summary[0] == "summary"
    estimates = []
    for row in body:
        cells = row.split(",")
        estimates.append(tuple(float(c) if c else None for c in cells))
    return estimates, float(summary[1]), float(summary[2])


def test_criterion_6_end_to_end_prognostics(chain_dir):
    t0 = time.perf_counter()
    root = chain_dir
    assert main(["train", "--data", str(root / "pre.csv"), "--config", str(root / "run.cfg"),
                 "--out-checkpoint", str(root / "model.ckpt")]) == 0
    assert main(["predict", "--data", str(root / "pre.csv"), "--checkpoint", str(root / "model.ckpt"),
                 "--out", str(root / "forecast.csv")]) == 0
    assert main(["evaluate", "--forecast", str(root / "forecast.csv"),
                 "--config", str(root / "run.cfg"), "--out", str(root / "report.csv")]) == 0
    estimates, _, score = _read_report(root / "report.csv")
    assert len(estimates) == 5
    for ft, rul_true, rul_pred, pe, acc in estimates:
        assert pe is not None, f"threshold {ft} not crossed"
        assert abs(pe) <= 5.0, f"threshold {ft}: %Er = {pe}"
    assert score >= 0.85
    # the report plot must be well-formed XML
    tree = ET.parse(root / "report.svg")
    assert len([e for e in tree.iter() if e.tag.endswith("polyline")]) == 2
    _report(6, "end-to-end prognostics", time.perf_counter() - t0, 600.0)


def test_criterion_7_determinism(chain_dir, tmp_path):
    t0 = time.perf_counter()
    root = chain_dir
    outs = []
    for name in ("one", "two"):
        ckpt = tmp_path / f"{name}.ckpt"
        # forecast_step=0 (the horizon): train rejects run.cfg's 500, beyond horizon 64, as predict would.
        rc = main(["train", "--data", str(root / "pre.csv"), "--config", str(root / "run.cfg"),
                   "--set", "epochs=8", "--set", "horizon=64", "--set", "forecast_step=0",
                   "--out-checkpoint", str(ckpt)])
        assert rc == 0
        outs.append((ckpt.read_bytes(), (tmp_path / f"{name}.ckpt.loss.csv").read_bytes()))
    assert outs[0][0] == outs[1][0], "checkpoints differ between identical runs"
    assert outs[0][1] == outs[1][1], "loss histories differ between identical runs"
    _report(7, "determinism", time.perf_counter() - t0, 120.0)


def test_criterion_8_lag_scan(chain_dir):
    t0 = time.perf_counter()
    root = chain_dir
    out = root / "lag.csv"
    rc = main(["lag-scan", "--data", str(root / "pre.csv"), "--config", str(root / "run.cfg"),
               "--set", "epochs=25", "--windows", "32,64,128,256", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 5  # header + one row per window size
    header = rows[0].split(",")
    assert header[0] == "window" and len(header) == 6
    for row, expected_w in zip(rows[1:], (32, 64, 128, 256)):
        cells = row.split(",")
        assert int(cells[0]) == expected_w
        assert len(cells) == 6
        for cell in cells[1:]:
            if cell:  # non-crossings are flagged as empty cells
                assert np.isfinite(float(cell))
    _report(8, "lag-scan", time.perf_counter() - t0, 1200.0)


def test_criterion_9_half_life_identities():
    t0 = time.perf_counter()
    assert abs(accuracy_ft(-5.0) - 0.5) <= 1e-12
    assert abs(accuracy_ft(20.0) - 0.5) <= 1e-12
    assert accuracy_ft(0.0) == 1.0
    _report(9, "half-life identities", time.perf_counter() - t0, 1.0)
