"""Train a small forecaster and roll it over the held-out span.

Takes around 12 seconds on one Xeon core. Writes demo_out/model.ckpt.
Run: python3 demos/04_train_and_forecast.py
"""

from pathlib import Path

import numpy as np

from tstransformer import autodiff as ad
from tstransformer.data import (
    DegradationSpec,
    condense,
    make_windows,
    moving_average,
    split_at,
    synth_degradation,
    zscore_apply,
    zscore_fit,
)
from tstransformer.metrics import rmse
from tstransformer.model import ModelConfig, TSTransformerModel
from tstransformer.training import (
    TrainConfig,
    load_checkpoint,
    rolling_forecast,
    save_checkpoint,
    train,
)

out_dir = Path("demo_out")
out_dir.mkdir(exist_ok=True)

raw = synth_degradation(seed=3, duration_hours=400.0, n_channels=4,
                        spec=DegradationSpec(sample_interval_hours=0.025))
series = moving_average(condense(raw, 0.1), 15)
train_ts, test_ts = split_at(series, 300.0)
stats = zscore_fit(train_ts)

horizon = 256
windows = make_windows(zscore_apply(train_ts, stats), 32, horizon)
model = TSTransformerModel(ModelConfig(n_variates=4, lookback=32, horizon=horizon), seed=1)
print(f"{model.parameter_count()} parameters, {len(windows)} training windows")

history = train(model, windows, TrainConfig(epochs=40, seed=1))
print(f"trained 40 epochs: loss {history[0]:.4g} -> {history[-1]:.4g}")

# Iterative forecast over the last 100 h: predicted voltages feed back
# into later windows, covariates come from the recorded test rows.
forecast = rolling_forecast(model, series, stats, 300.0, step=64)
print(f"rolled {len(forecast.time)} steps; volt-scale RMSE "
      f"{rmse(forecast.pred, forecast.true):.4f} V")

ckpt_path = out_dir / "model.ckpt"
save_checkpoint(ckpt_path, model, stats, series.target_channel, {"train.split_hours": "300.0"})
restored = load_checkpoint(ckpt_path).to_model()
probe = np.random.default_rng(0).normal(size=(32, 4))
with ad.no_grad():  # inference: these forwards record no autodiff graph
    identical = np.array_equal(model.forward(probe).data, restored.forward(probe).data)
print(f"checkpoint round-trip bit-identical forward: {identical}")
