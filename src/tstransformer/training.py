"""Loss, Adam, the training loop, checkpoints, and rolling forecasts.

Training is fully deterministic given (seed, config, data): shuffling
uses a seeded PCG64 generator, batches are evaluated in a fixed order,
and checkpoints serialize parameters bit-exactly as little-endian
float64, so identical runs produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import NormStats, TimeSeries, WindowedDataset, zscore_apply
from .errors import ContractError, CorruptionError, NumericalError, ParameterError
from .model import ModelConfig, TSTransformerModel, param_count

CHECKPOINT_MAGIC = b"TSTC"
CHECKPOINT_VERSION = 1

COVARIATE_ORACLE = "oracle"
COVARIATE_HOLD_LAST = "hold_last"

LOSS_TARGET = "target"
LOSS_ALL = "all"


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 300
    batch_size: int = 64
    seed: int = 42
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 1.0  # 0 disables
    patience: int = 0  # 0 disables early stopping
    loss_channels: str = LOSS_TARGET

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ParameterError(f"learning rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ParameterError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if self.loss_channels not in (LOSS_TARGET, LOSS_ALL):
            raise ParameterError(f"loss_channels must be 'target' or 'all', got {self.loss_channels!r}")


@dataclass
class ForecastResult:
    """Aligned (time, true, predicted) target series on the test span."""

    time: np.ndarray
    true: np.ndarray
    pred: np.ndarray
    target_channel: str


# ---------------------------------------------------------------------------
# loss and optimizer


def mse_loss(pred: Tensor, truth) -> Tensor:
    """Mean squared error as a taped scalar."""
    truth_t = truth if isinstance(truth, Tensor) else Tensor(truth)
    if pred.shape != truth_t.shape:
        raise ContractError(f"loss shapes differ: pred {pred.shape} vs truth {truth_t.shape}")
    diff = ad.sub(pred, truth_t)
    return ad.mean_all(ad.mul(diff, diff))


@dataclass
class AdamState:
    step: int
    m: list
    v: list


def adam_init(params) -> AdamState:
    params = list(params)
    return AdamState(
        step=0,
        m=[np.zeros_like(p.data) for p in params],
        v=[np.zeros_like(p.data) for p in params],
    )


def adam_step(named_params, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update, in place; aborts on non-finite grads."""
    state.step += 1
    t = state.step
    c1 = 1.0 - config.beta1 ** t
    c2 = 1.0 - config.beta2 ** t
    for (name, p), m, v in zip(named_params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * g * g
        p.data -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + config.adam_eps)


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint norm is at most ``max_norm``."""
    norm = ad.global_grad_norm(params)
    if max_norm > 0.0 and norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


# ---------------------------------------------------------------------------
# training loop


def train(model: TSTransformerModel, windows: WindowedDataset, config: TrainConfig) -> list:
    """Epoch loop over seeded shuffled batches; returns per-epoch mean loss.

    Deterministic for fixed (seed, config, data). Aborts with epoch and
    batch indices when the loss turns non-finite.
    """
    if len(windows) == 0:
        raise ContractError("cannot train on an empty window set")
    rng = np.random.default_rng(config.seed)
    named = model.named_parameters()
    params = [p for _, p in named]
    state = adam_init(params)
    target_row = windows.channel_names.index(windows.target_channel)

    history = []
    best = math.inf
    stale = 0
    n = len(windows)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for b, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            xb = windows.inputs[idx]
            yb = windows.targets[idx]
            pred = model.forward(xb)  # (B, M, S)
            if config.loss_channels == LOSS_ALL:
                if yb.ndim != 3:
                    raise ContractError("loss_channels='all' needs (n, horizon, channels) targets")
                loss = mse_loss(pred, np.ascontiguousarray(yb.transpose(0, 2, 1)))
            else:
                if yb.ndim != 2:
                    raise ContractError("loss_channels='target' needs (n, horizon) targets")
                pred_t = ad.slice_axis(pred, -2, target_row, target_row + 1)
                loss = mse_loss(pred_t, yb[:, None, :])
            value = loss.item()
            if not math.isfinite(value):
                raise NumericalError(f"non-finite loss at epoch {epoch}, batch {b}")
            ad.backward(loss)
            if config.clip_norm > 0.0:
                clip_global_norm(params, config.clip_norm)
            adam_step(named, state, config)
            ad.zero_grad(params)
            total += value * len(idx)
        mean_loss = total / n
        history.append(mean_loss)
        if config.patience > 0:
            if mean_loss < best - 1e-12:
                best = mean_loss
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    return history


# ---------------------------------------------------------------------------
# rolling forecast


def rolling_forecast(
    model: TSTransformerModel,
    series: TimeSeries,
    stats: NormStats,
    boundary_hours: float,
    step: int | None = None,
    covariate_mode: str = COVARIATE_ORACLE,
) -> ForecastResult:
    """Iterative multi-step forecast over everything past the boundary.

    The first window is the last ``lookback`` rows before the boundary;
    each round predicts ``horizon`` steps and advances by ``step``
    (default: the full horizon). Predicted target values re-enter later
    windows; covariates come from the recorded test rows (``oracle``) or
    repeat the last pre-boundary row (``hold_last``). Output is
    denormalized and aligned exactly with the test timestamps.
    """
    if covariate_mode not in (COVARIATE_ORACLE, COVARIATE_HOLD_LAST):
        raise ParameterError(f"unknown covariate mode {covariate_mode!r}")
    cfg = model.config
    s = cfg.horizon if step is None else int(step)
    if not 1 <= s <= cfg.horizon:
        raise ParameterError(f"step must lie in [1, horizon={cfg.horizon}], got {step}")
    if len(series.channel_names) != cfg.n_variates:
        raise ContractError(
            f"series has {len(series.channel_names)} channels, model expects {cfg.n_variates}"
        )
    origin = int(np.searchsorted(series.time, float(boundary_hours), side="left"))
    n = len(series)
    if origin >= n or n - origin < s:
        raise ContractError(
            f"test span after {boundary_hours} h is shorter than one forecast step ({s})"
        )
    if origin < cfg.lookback:
        raise ContractError(
            f"need {cfg.lookback} observations before the boundary, have {origin}"
        )

    normalized = zscore_apply(series, stats)
    work = normalized.features.copy()
    ti = series.target_index
    if covariate_mode == COVARIATE_HOLD_LAST:
        held = work[origin - 1].copy()
        for c in range(work.shape[1]):
            if c != ti:
                work[origin:, c] = held[c]

    preds = np.empty(n - origin)
    pos = origin
    with ad.no_grad():
        while pos < n:
            window = work[pos - cfg.lookback : pos]
            out = model.forward(window)  # (M, S)
            take = min(s, n - pos)
            chunk = out.data[ti, :take]
            if not np.all(np.isfinite(chunk)):
                raise NumericalError(f"non-finite forecast in the round starting at row {pos}")
            work[pos : pos + take, ti] = chunk
            preds[pos - origin : pos - origin + take] = chunk
            pos += take

    mean_t, std_t = stats.channel(series.target_channel)
    return ForecastResult(
        time=series.time[origin:].copy(),
        true=series.target[origin:].copy(),
        pred=preds * std_t + mean_t,
        target_channel=series.target_channel,
    )


# ---------------------------------------------------------------------------
# checkpoints


@dataclass(frozen=True)
class Checkpoint:
    """Everything needed to reproduce a trained model's forward pass."""

    version: int
    config: ModelConfig
    stats: NormStats
    header: dict
    arrays: tuple

    def to_model(self) -> TSTransformerModel:
        model = TSTransformerModel(self.config, seed=0)
        model.load_arrays(self.arrays)
        return model


# (encode, decode) per ModelConfig field type, shared by the header's writer and
# reader. Ints use str because numpy 2 reprs a numpy integer as "np.int64(16)".
_FIELD_CODECS = {
    "int": (str, int),
    "float": (repr, float),
    "str": (str, str),
    "tuple": (lambda v: ",".join(map(repr, v)), lambda text: tuple(map(float, text.split(",")))),
}


def _header_text(config: ModelConfig, stats: NormStats, extra: dict) -> str:
    bad = [k for k, v in extra.items() if "=" in k or any(c in f"{k}{v}" for c in "\n\r")]
    if bad:
        raise ParameterError(f"checkpoint header entry {bad[0]!r} has '=' in its key or a line break")
    lines = [
        f"model.{f.name}={_FIELD_CODECS[f.type][0](getattr(config, f.name))}"
        for f in dataclasses.fields(ModelConfig)
    ]
    lines += [
        "stats.channels=" + ",".join(stats.channel_names),
        "stats.mean=" + ",".join(repr(float(v)) for v in stats.mean),
        "stats.std=" + ",".join(repr(float(v)) for v in stats.std),
        "stats.constant=" + ",".join(stats.constant_channels),
        f"stats.target={extra.get('target_channel', stats.channel_names[0])}",
    ]
    for key in sorted(extra):
        if key != "target_channel":
            lines.append(f"{key}={extra[key]}")
    return "\n".join(lines) + "\n"


def save_checkpoint(
    path,
    model: TSTransformerModel,
    stats: NormStats,
    extra: dict | None = None,
) -> None:
    """Write magic, version, key=value header, then parameters as <f8."""
    extra = dict(extra or {})
    header = _header_text(model.config, stats, extra).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for _, p in model.named_parameters():
            fh.write(p.data.astype("<f8").tobytes())


def _parse_header(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise CorruptionError(f"malformed checkpoint header line: {line!r}")
        key, _, value = line.partition("=")
        fields[key] = value
    return fields


def load_checkpoint(path) -> Checkpoint:
    """Validate magic, version, header encoding, scalar count and finiteness, then rebuild."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise CorruptionError("checkpoint truncated: missing magic/version/header length")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CorruptionError(f"bad checkpoint magic {blob[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != CHECKPOINT_VERSION:
        raise CorruptionError(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<I", blob[8:12])
    if len(blob) < 12 + header_len:
        raise CorruptionError("checkpoint truncated inside header")

    try:
        fields = _parse_header(blob[12 : 12 + header_len].decode("utf-8"))
        config = ModelConfig(**{
            f.name: _FIELD_CODECS[f.type][1](fields[f"model.{f.name}"])
            for f in dataclasses.fields(ModelConfig)
        })
        channels = tuple(fields["stats.channels"].split(","))
        stats = NormStats(
            channel_names=channels,
            mean=np.array([float(v) for v in fields["stats.mean"].split(",")]),
            std=np.array([float(v) for v in fields["stats.std"].split(",")]),
            constant_channels=tuple(
                c for c in fields["stats.constant"].split(",") if c
            ),
        )
    except (KeyError, ValueError) as exc:  # ValueError covers UnicodeDecodeError
        raise CorruptionError(f"invalid checkpoint header: {exc}") from exc

    payload = blob[12 + header_len :]
    if len(payload) % 8 != 0:
        raise CorruptionError("checkpoint payload is not a whole number of float64 scalars")
    scalars = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    expected = param_count(config)
    if len(scalars) != expected:
        raise CorruptionError(
            f"scalar count mismatch: payload has {len(scalars)}, config needs {expected}"
        )
    if not np.all(np.isfinite(scalars)):
        raise CorruptionError("checkpoint payload holds non-finite scalars")

    reference = TSTransformerModel(config, seed=0)
    arrays, pos = [], 0
    for _, p in reference.named_parameters():
        arrays.append(scalars[pos : pos + p.size].reshape(p.shape).copy())
        pos += p.size
    return Checkpoint(version=version, config=config, stats=stats, header=fields, arrays=tuple(arrays))


# ---------------------------------------------------------------------------
# small CSV helpers shared by the CLI and tests


def loss_history_csv(history) -> str:
    lines = ["epoch,mean_loss"]
    for i, value in enumerate(history, start=1):
        lines.append(f"{i},{value!r}")
    return "\n".join(lines) + "\n"


def forecast_csv(result: ForecastResult) -> str:
    lines = ["time_h,true_V,pred_V"]
    for t, y, p in zip(result.time, result.true, result.pred):
        lines.append(f"{float(t)!r},{float(y)!r},{float(p)!r}")
    return "\n".join(lines) + "\n"
