"""The data pipeline end to end on a synthetic ageing run.

Writes demo_out/raw.csv and demo_out/preprocessed.csv.
Run: python3 demos/03_synthetic_pipeline.py
"""

from pathlib import Path

import numpy as np

from tstransformer.cli import _write_series_csv
from tstransformer.data import (
    DegradationSpec,
    condense,
    ingest_csv,
    make_windows,
    moving_average,
    split_at,
    synth_degradation,
    zscore_apply,
    zscore_fit,
)

out_dir = Path("demo_out")
out_dir.mkdir(exist_ok=True)

# A seeded stack-voltage decay with correlated covariates, sampled at
# 1.5 minute cadence like a raw bench log.
spec = DegradationSpec(sample_interval_hours=0.025)
raw = synth_degradation(seed=7, duration_hours=1020.0, n_channels=5, spec=spec)
print(f"raw series: {len(raw)} rows, channels {raw.channel_names}")
_write_series_csv(out_dir / "raw.csv", raw, "time_h", None)

# Condense to one point per six minutes, then smooth.
condensed = condense(raw, 0.1)
smooth = moving_average(condensed, 15)
print(f"condensed: {len(condensed)} rows at 0.1 h spacing; filter preserves length: {len(smooth)}")
_write_series_csv(out_dir / "preprocessed.csv", smooth, "time_h", None)

# Round-trip through CSV.
back = ingest_csv(out_dir / "preprocessed.csv")
print(f"re-ingested {len(back)} rows, dropped {back.dropped_rows}")

# Split at the 500 h mark, normalize on the training segment only.
train_ts, test_ts = split_at(smooth, 500.0)
stats = zscore_fit(train_ts)
print(f"train {len(train_ts)} rows < 500 h, test {len(test_ts)} rows; "
      f"constant channels: {stats.constant_channels or 'none'}")

normed = zscore_apply(train_ts, stats)
print("normalized train means:", np.round(normed.features.mean(axis=0), 12).tolist())

# Targets carry every channel's next rows, (horizon, channels); training's
# loss picks the target row or all of them.
windows = make_windows(normed, 32, 1)
print(f"sliding windows: {len(windows)} of shape {windows.inputs.shape[1:]} (lookback, channels), "
      f"targets {windows.targets.shape[1:]} (horizon, channels)")
