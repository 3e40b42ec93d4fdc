"""Batch command-line front end: preprocess, train, predict, evaluate, lag-scan.

Configuration is a plain ``key=value`` file; any flag or ``--set``
override wins over the file. All subcommands are rerunnable: identical
inputs and seed produce byte-identical outputs. Exit codes: 0 success,
2 user/config error, 3 data/checkpoint corruption, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np

from .data import (
    CsvSchema,
    TimeSeries,
    condense,
    ingest_csv,
    make_windows,
    moving_average,
    split_at,
    zscore_apply,
    zscore_fit,
)
from .errors import (
    ConfigError,
    ContractError,
    CorruptionError,
    DataError,
    DimensionError,
    NumericalError,
    ParameterError,
    SchemaError,
)
from .metrics import FaultThresholds, evaluate_forecast, lag_error, rmse
from .model import ModelConfig, TSTransformerModel
from .training import (
    COVARIATE_ORACLE,
    FIELD_CODECS,
    TrainConfig,
    load_checkpoint,
    loss_history_csv,
    rolling_forecast,
    rollout_step,
    save_checkpoint,
    series_csv,
    train,
    write_atomic,
)

PREPROCESSED_PREFIX = "#preprocessed"

_KINDS = {"int": "an integer", "float": "a finite number", "tuple": "a list of finite numbers"}


def _decode(key: str, kind: str, value: str):
    try:
        return FIELD_CODECS[kind][1](value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected {_KINDS[kind]}, got {value!r}") from None


@dataclass(frozen=True)
class RunSettings:
    """The CLI's own config keys: the pipeline settings no library config class holds."""

    covariate_columns: str = "auto"  # auto = every non-time column
    interval_h: float = 0.1
    ma_window: int = 15
    split_hours: float = 500.0
    lookback: int = 32
    horizon: int = 1
    rul_origin_hours: str = "split"  # split = use split_hours
    covariate_mode: str = COVARIATE_ORACLE
    forecast_step: int = 0  # 0 = horizon

    def __post_init__(self):
        if self.rul_origin_hours != "split":
            _decode("rul_origin_hours", "float", self.rul_origin_hours)


# A config key differs from the dataclass field it sets only here.
_RENAMED = {
    "eps": "layer_norm_eps", "beta1": "adam_beta1", "beta2": "adam_beta2", "loss_fractions": "thresholds",
}

# Config key -> field, per dataclass: every field with a default and a text codec.
# CsvSchema.covariates ("tuple | None") has no codec; covariate_columns sets it.
_FIELD_KEYS = {
    cls: {
        _RENAMED.get(f.name, f.name): f
        for f in fields(cls) if f.default is not MISSING and f.type in FIELD_CODECS
    }
    for cls in (RunSettings, CsvSchema, ModelConfig, TrainConfig, FaultThresholds)
}

# Every configuration key with its documented default, the field's. Unknown
# keys in a config file are rejected with their line number.
DEFAULTS = {key: FIELD_CODECS[f.type][0](f.default) for keys in _FIELD_KEYS.values() for key, f in keys.items()}

# The keys predict reads; the rest of its run comes from the checkpoint.
_PREDICT_KEYS = ("split_hours", "covariate_mode", "forecast_step", "time_column")


@dataclass
class RunConfig:
    """Typed view over the raw key=value map: one config class per group of keys."""

    raw: dict

    def _fields(self, cls) -> dict:
        """``cls``'s config keys, decoded, by field name."""
        return {f.name: _decode(key, f.type, self.raw[key]) for key, f in _FIELD_KEYS[cls].items()}

    def settings(self) -> RunSettings:
        return RunSettings(**self._fields(RunSettings))

    def schema(self) -> CsvSchema:
        cov = self.settings().covariate_columns
        covariates = None if cov == "auto" else tuple(c for c in cov.split(",") if c)
        return CsvSchema(covariates=covariates, **self._fields(CsvSchema))

    def model_config(self, n_variates: int, lookback: int | None = None) -> ModelConfig:
        run = self.settings()
        lookback = run.lookback if lookback is None else lookback
        return ModelConfig(n_variates, lookback, run.horizon, **self._fields(ModelConfig))

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._fields(TrainConfig))

    def thresholds(self) -> FaultThresholds:
        return FaultThresholds(**self._fields(FaultThresholds))

    def rul_origin(self) -> float:
        run = self.settings()
        return run.split_hours if run.rul_origin_hours == "split" else float(run.rul_origin_hours)


def _entry(item: str, where: str, strip: bool = False) -> tuple:
    """Check one ``key=value`` entry (``where`` leads its errors); return (key, value)."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected key=value, got {item!r}")
    key, _, value = item.partition("=")
    if strip:
        key, value = key.strip(), value.strip()
    if key not in DEFAULTS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    if "\n" in value or "\r" in value:
        raise ConfigError(f"{where}: value of config key {key!r} contains a line break")
    return key, value


def load_run_config(path=None, overrides=()) -> RunConfig:
    """Read the config file (if any) and apply key=value overrides."""
    values = dict(DEFAULTS)
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        for lineno, line in enumerate(text.split("\n"), start=1):
            entry = line.strip()
            if entry and not entry.startswith("#"):
                key, value = _entry(entry, f"{path}:{lineno}", strip=True)
                values[key] = value
    values.update(_entry(item, "--set") for item in overrides)
    return RunConfig(values)


# ---------------------------------------------------------------------------
# shared helpers


def _write_series_csv(path, ts: TimeSeries, time_column: str, marker: str | None) -> None:
    write_atomic(path, series_csv((time_column,) + ts.channel_names, ts.time, ts.features, marker))


def _is_preprocessed(path) -> bool:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    return first.startswith(PREPROCESSED_PREFIX)


def _load_for_training(args, cfg: RunConfig):
    """Ingest, split, and z-score the training side with its own statistics."""
    series = ingest_csv(args.data, cfg.schema())
    train_ts, _ = split_at(series, cfg.settings().split_hours)
    stats = zscore_fit(train_ts)
    return series, zscore_apply(train_ts, stats), stats


def _distinct_outputs(*outputs) -> None:
    """Reject two ``(flag, path)`` outputs of one command that resolve to one file."""
    seen = {}
    for flag, path in outputs:
        first = seen.setdefault(Path(path).resolve(), flag)
        if first != flag:
            raise ConfigError(f"{first} and {flag} both name {path}; give each output its own file")


def _fit(cfg: RunConfig, windows, tcfg: TrainConfig):
    """Build a model for the windows' variates and lookback, seeded by ``tcfg``, and train it on them."""
    model = TSTransformerModel(cfg.model_config(len(windows.channel_names), windows.lookback), seed=tcfg.seed)
    return model, train(model, windows, tcfg)


def _check_rollout(cfg: RunConfig) -> None:
    """Reject a bad ``forecast_step`` or ``covariate_mode`` before any model is trained."""
    run = cfg.settings()
    rollout_step(run.horizon, run.forecast_step or None, run.covariate_mode)


def _for_size(size: int, fn, *args):
    """``fn(*args)``; a failure is re-raised as its own type, naming the lag-scan window size."""
    try:
        return fn(*args)
    except Exception as exc:
        raise type(exc)(f"lag-scan failed for window size {size}: {exc}") from exc


def _rollout(cfg: RunConfig, model: TSTransformerModel, series: TimeSeries, stats):
    """Rolling forecast past ``split_hours``; ``forecast_step=0`` means the horizon."""
    run = cfg.settings()
    return rolling_forecast(
        model, series, stats, run.split_hours, step=run.forecast_step or None, covariate_mode=run.covariate_mode
    )


def _read_forecast_csv(path):
    """(time, true, pred) from a forecast CSV; every row must parse (exit 2)."""
    try:
        series = ingest_csv(path, CsvSchema("time_h", "true_V", ("pred_V",)))
    except DataError as exc:
        raise SchemaError(str(exc)) from exc
    if series.dropped_rows:
        raise SchemaError(f"{path}: {series.dropped_rows} malformed forecast row(s)")
    return series.time, series.target, series.features[:, series.channel_names.index("pred_V")]


def render_forecast_svg(path, time, true, pred, report, thresholds: FaultThresholds, origin: float) -> None:
    """Static plot: one polyline per series, threshold lines, the report's crossing marks."""
    width, height, pad = 960, 540, 60
    t0, t1 = float(time[0]), float(time[-1])
    values = np.concatenate([true, pred, np.array(thresholds.voltages)])
    v0, v1 = float(values.min()), float(values.max())
    v_margin = 0.05 * (v1 - v0 or 1.0)
    v0, v1 = v0 - v_margin, v1 + v_margin

    def sx(t):
        return pad + (t - t0) / (t1 - t0 or 1.0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - v0) / (v1 - v0) * (height - 2 * pad)

    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(width),
        height=str(height),
        viewBox=f"0 0 {width} {height}",
    )
    ET.SubElement(svg, "rect", x="0", y="0", width=str(width), height=str(height), fill="white")
    for est, thr in zip(report.estimates, thresholds.voltages):
        y = f"{sy(thr):.2f}"
        ET.SubElement(
            svg, "line",
            x1=f"{sx(t0):.2f}", y1=y, x2=f"{sx(t1):.2f}", y2=y,
            stroke="#999999", attrib={"stroke-dasharray": "6,4"},
        )
        label = ET.SubElement(svg, "text", x=f"{sx(t0) + 4:.2f}", y=f"{float(y) - 4:.2f}", fill="#666666")
        label.set("font-size", "12")
        label.text = f"{100 * est.loss_fraction:.1f}% loss"
        for rul, color in ((est.rul_true, "#cc4444"), (est.rul_pred, "#4444cc")):
            if rul is not None:
                x = f"{sx(origin + rul):.2f}"
                ET.SubElement(
                    svg, "line",
                    x1=x, y1=f"{sy(v0):.2f}", x2=x, y2=f"{sy(v1):.2f}",
                    stroke=color, attrib={"stroke-dasharray": "2,4"},
                )
    for series, color in ((true, "#cc4444"), (pred, "#4444cc")):
        points = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(time, series))
        ET.SubElement(svg, "polyline", points=points, fill="none", stroke=color, attrib={"stroke-width": "1.5"})
    legend = ET.SubElement(svg, "text", x=str(pad), y="24", fill="#333333")
    legend.set("font-size", "14")
    legend.text = "stack voltage: measured (red) vs predicted (blue)"
    write_atomic(path, ET.tostring(svg, encoding="utf-8", xml_declaration=True))


# ---------------------------------------------------------------------------
# subcommands


def cmd_preprocess(args) -> int:
    cfg = load_run_config(args.config, args.set or ())
    run, schema = cfg.settings(), cfg.schema()
    raw = ingest_csv(args.input, schema)  # also proves the file is UTF-8 text
    if _is_preprocessed(args.input):
        # Already condensed and filtered: pass through unchanged.
        write_atomic(args.out, Path(args.input).read_bytes())
        print(f"already preprocessed: {len(raw)} rows copied to {args.out}")
        return 0
    out = moving_average(condense(raw, run.interval_h), run.ma_window)
    marker = f"{PREPROCESSED_PREFIX} interval={run.interval_h:g}h ma={run.ma_window}"
    _write_series_csv(args.out, out, schema.time_column, marker)
    print(
        f"rows in: {len(raw)} (dropped {raw.dropped_rows} malformed), "
        f"rows out: {len(out)} at {run.interval_h:g} h spacing"
    )
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.set or ())
    run = cfg.settings()
    out_ckpt = Path(args.out_checkpoint)
    loss_path = Path(args.out_loss) if args.out_loss else out_ckpt.with_suffix(out_ckpt.suffix + ".loss.csv")
    _distinct_outputs(("--out-checkpoint", out_ckpt), ("--out-loss", loss_path))
    series, train_norm, stats = _load_for_training(args, cfg)
    windows = make_windows(train_norm, run.lookback, run.horizon)
    _check_rollout(cfg)
    tcfg = cfg.train_config()
    model, history = _fit(cfg, windows, tcfg)
    extra = {
        "train.split_hours": repr(run.split_hours),
        "train.covariate_mode": run.covariate_mode,
        "train.forecast_step": str(run.forecast_step),
        "train.learning_rate": repr(tcfg.learning_rate),
        "train.epochs": str(tcfg.epochs),
        "train.batch_size": str(tcfg.batch_size),
        "train.seed": str(tcfg.seed),
        "train.clip_norm": repr(tcfg.clip_norm),
        "train.loss_channels": tcfg.loss_channels,
        "train.time_column": cfg.schema().time_column,
    }
    out_ckpt.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_ckpt, model, stats, series.target_channel, extra)
    write_atomic(loss_path, loss_history_csv(history))
    print(
        f"trained {model.parameter_count()} parameters for {len(history)} epochs; "
        f"final loss {history[-1]:.6g}; checkpoint {out_ckpt}, losses {loss_path}"
    )
    return 0


def _trained_values(ckpt) -> dict:
    """The checkpoint's ``train.*`` values of the keys predict reads, each
    decoded and checked as a ``--set`` value would be; a bad one is corruption."""
    trained = {key: ckpt.header[f"train.{key}"] for key in _PREDICT_KEYS if f"train.{key}" in ckpt.header}
    for key, value in trained.items():
        try:
            run = RunConfig({**DEFAULTS, key: value}).settings()
            rollout_step(ckpt.config.horizon, run.forecast_step or None, run.covariate_mode)
        except (ConfigError, ParameterError) as exc:
            raise CorruptionError(f"checkpoint train.{key}={value}: {exc}") from None
    return trained


def cmd_predict(args) -> int:
    try:
        ckpt = load_checkpoint(args.checkpoint)
    except OSError as exc:
        raise CorruptionError(f"checkpoint not readable: {exc}") from exc
    trained = _trained_values(ckpt)
    overrides = dict(_entry(item, "--set") for item in args.set or ())
    unread = [key for key in overrides if key not in _PREDICT_KEYS]
    if unread:
        raise ConfigError(
            f"predict --set: config key {unread[0]!r} comes from the checkpoint; "
            f"predict reads only {', '.join(_PREDICT_KEYS)}"
        )
    cfg = RunConfig({**DEFAULTS, **trained, **overrides})
    target = ckpt.header["stats.target"]
    schema = CsvSchema(cfg.schema().time_column, target, tuple(c for c in ckpt.stats.channel_names if c != target))
    series = ingest_csv(args.data, schema)
    if series.channel_names != ckpt.stats.channel_names:
        # Column orders must line up with the stats saved at train time.
        order = [series.channel_names.index(c) for c in ckpt.stats.channel_names]
        series = TimeSeries(
            series.time, series.features[:, order], ckpt.stats.channel_names, target
        )
    result = _rollout(cfg, ckpt.to_model(), series, ckpt.stats)
    columns = np.column_stack((result.true, result.pred))
    write_atomic(args.out, series_csv(("time_h", "true_V", "pred_V"), result.time, columns))
    print(f"forecast {len(result.time)} test points -> {args.out}; RMSE {rmse(result.pred, result.true):.6g} V")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_run_config(args.config, args.set or ())
    out = Path(args.out)
    svg_path = args.svg or str(out.with_suffix(".svg"))
    _distinct_outputs(("--out", out), ("--svg" if args.svg else "the plot path", svg_path))
    time, true, pred = _read_forecast_csv(args.forecast)
    thresholds = cfg.thresholds()
    origin = cfg.rul_origin()
    report = evaluate_forecast(time, true, pred, thresholds, origin)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out, report.to_csv())
    render_forecast_svg(svg_path, time, true, pred, report, thresholds, origin)
    score = "n/a" if report.score_rul is None else f"{report.score_rul:.4f}"
    print(f"RMSE {report.rmse:.6g} V, Score_RUL {score} -> {out}, plot {svg_path}")
    return 0


def cmd_lag_scan(args) -> int:
    cfg = load_run_config(args.config, args.set or ())
    try:
        sizes = [int(w) for w in args.windows.split(",") if w]
    except ValueError as exc:
        raise ParameterError(f"--windows expects comma-separated integers: {exc}") from None
    if not sizes:
        raise ParameterError("lag-scan needs at least one window size")
    thresholds = cfg.thresholds()
    origin = cfg.rul_origin()
    series, train_norm, stats = _load_for_training(args, cfg)
    # Every size's windows first: views cost nothing, and a bad size fails before any training.
    horizon = cfg.settings().horizon
    built = [_for_size(size, make_windows, train_norm, size, horizon) for size in sizes]
    _check_rollout(cfg)
    tcfg = cfg.train_config()
    lines = ["window," + ",".join(f"lag_h_ft_{f:g}" for f in thresholds.loss_fractions)]
    for size, windows in zip(sizes, built):
        model, _ = _for_size(size, _fit, cfg, windows, tcfg)
        result = _for_size(size, _rollout, cfg, model, series, stats)
        lags = [lag_error(result.time, result.pred, result.true, thr, origin) for thr in thresholds.voltages]
        lines.append(f"{size}," + ",".join("" if v is None else repr(v) for v in lags))
    write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"lag table ({len(sizes)} window sizes x {len(thresholds.voltages)} thresholds) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing / dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tst",
        description="Stack-voltage forecasting and RUL evaluation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="condense to a fixed interval and denoise")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="split, normalize, window, and fit a model")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out-checkpoint", dest="out_checkpoint", required=True)
    p.add_argument("--out-loss", dest="out_loss")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="rolling forecast over the test span")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="RUL metrics and SVG plot for a forecast")
    p.add_argument("--forecast", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("lag-scan", help="train per window size and tabulate lag errors")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--windows", default="32,64,128,256")
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_lag_scan)
    return parser


# Exit code per error family (see the module docstring); other exceptions
# are bugs and keep their traceback.
EXIT_CODES = (
    ((ConfigError, ParameterError, SchemaError, DimensionError, ContractError, OSError), 2),
    ((DataError, CorruptionError), 3),
    ((NumericalError,), 4),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for types, _ in EXIT_CODES for t in types) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
