"""Loss, Adam, the training loop, checkpoints, and rolling forecasts.

Training is fully deterministic given (seed, config, data): shuffling
uses a seeded PCG64 generator, batches are evaluated in a fixed order,
and checkpoints serialize parameters bit-exactly as little-endian
float64, so identical runs produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import NormStats, TimeSeries, WindowedDataset, zscore_apply
from .errors import ContractError, CorruptionError, NumericalError, ParameterError
from .model import ModelConfig, TSTransformerModel, _param_views, param_count

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
        # Written as ``not x > 0`` so that NaN fails too.
        if not self.learning_rate > 0.0:
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ParameterError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ParameterError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.adam_eps > 0.0:
            raise ParameterError(f"adam_eps must be positive, got {self.adam_eps}")
        if not self.clip_norm >= 0.0 or self.patience < 0:
            raise ParameterError(
                f"clip_norm and patience must be >= 0, got {self.clip_norm}, {self.patience}"
            )
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
    """Mean squared error as one taped node over ``pred``; ``truth`` is a
    constant: an array, or a Tensor that needs no gradient."""
    if isinstance(truth, Tensor):
        if truth.requires_grad:
            raise ContractError("mse_loss truth must be a constant, not a tensor that requires grad")
        truth = truth.data
    truth = ad._check_data(np.asarray(truth, dtype=np.float64))
    if pred.shape != truth.shape:
        raise ContractError(f"loss shapes differ: pred {pred.shape} vs truth {truth.shape}")
    diff = pred.data - truth

    def grad_fn(g):
        h = diff * (g[0] / diff.size)
        return (h + h,)  # x + x is exact: sub, mul, mean_all's gradient bit for bit

    return ad._result(np.array([(diff * diff).mean()]), (pred,), grad_fn)


@dataclass
class AdamState:
    """Step count and the moments of every parameter, flat in declared order."""

    step: int
    m: np.ndarray
    v: np.ndarray


def adam_init(params) -> AdamState:
    size = sum(p.size for p in params)
    return AdamState(step=0, m=np.zeros(size), v=np.zeros(size))


def adam_step(named_params, state: AdamState, config: TrainConfig) -> float:
    """One bias-corrected Adam update on the clipped gradient, in place; returns
    the gradient norm before clipping. Aborts on non-finite grads.

    The gradients (None counts as zero) are joined into one fresh flat vector
    and checked before anything changes. When ``0 < clip_norm < norm`` the
    vector is scaled by ``clip_norm / norm``; ``p.grad`` is never written.
    Each parameter's slice of the step is subtracted in place.
    """
    named_params = list(named_params)
    g = np.concatenate([
        p.grad.reshape(-1) if p.grad is not None else np.zeros(p.size) for _, p in named_params
    ])
    if not np.all(np.isfinite(g)):
        name = next(n for n, p in named_params if p.grad is not None and not np.all(np.isfinite(p.grad)))
        raise NumericalError(f"non-finite gradient for parameter {name!r}")
    norm = math.sqrt(float(np.dot(g, g)))
    if 0.0 < config.clip_norm < norm:
        g *= config.clip_norm / norm
    state.step += 1
    t = state.step
    c1 = 1.0 - config.beta1 ** t
    c2 = 1.0 - config.beta2 ** t
    m, v = state.m, state.v
    m *= config.beta1
    m += (1.0 - config.beta1) * g
    v *= config.beta2
    v += (1.0 - config.beta2) * g * g
    update = config.learning_rate * (m / c1) / (np.sqrt(v / c2) + config.adam_eps)
    pos = 0
    for _, p in named_params:
        p.data -= update[pos : pos + p.size].reshape(p.shape)
        pos += p.size
    return norm


# ---------------------------------------------------------------------------
# training loop


def train(model: TSTransformerModel, windows: WindowedDataset, config: TrainConfig) -> list:
    """Epoch loop over seeded shuffled batches; returns per-epoch mean loss.

    The learning rate holds for all but the last ``epochs // 5`` epochs
    (the tail), then decays linearly: an epoch with ``left`` epochs to go,
    counting itself, steps at ``learning_rate * left / (tail + 1)``. Runs
    of fewer than 5 epochs keep a constant rate. At a constant rate Adam
    never settles, so the end point would hang on single roundings.

    The windows' targets hold every variate, (n, horizon, n_variates) of the
    model, checked before any forward; the loss scores the target variate's
    row or, with ``loss_channels="all"``, every row. Deterministic for fixed
    (seed, config, data). Aborts with epoch and batch indices when the loss
    turns non-finite.
    """
    if len(windows) == 0:
        raise ContractError("cannot train on an empty window set")
    cfg = model.config
    if windows.targets.shape != (len(windows), cfg.horizon, cfg.n_variates):
        raise ContractError(f"targets {windows.targets.shape} are not (windows={len(windows)}, "
                            f"horizon={cfg.horizon}, n_variates={cfg.n_variates})")
    rng = np.random.default_rng(config.seed)
    named = model.named_parameters()
    params = [p for _, p in named]
    state = adam_init(params)
    # None scores every variate's row, else only the target's; truth holds those rows, (n, 1 or M, S).
    channel = None if config.loss_channels == LOSS_ALL else windows.channel_names.index(windows.target_channel)
    truth = windows.targets.swapaxes(1, 2)
    if channel is not None:
        truth = truth[:, channel : channel + 1]

    history = []
    best = math.inf
    stale = 0
    n = len(windows)
    tail = config.epochs // 5
    for epoch in range(config.epochs):
        left = config.epochs - epoch
        step_config = config if left > tail else dataclasses.replace(
            config, learning_rate=config.learning_rate * left / (tail + 1))
        order = rng.permutation(n)
        total = 0.0
        for b, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            pred = model.forward(windows.inputs[idx], channel=channel)  # (B, 1 or M, S)
            loss = mse_loss(pred, truth[idx])
            value = loss.item()
            if not math.isfinite(value):
                raise NumericalError(f"non-finite loss at epoch {epoch}, batch {b}")
            ad.backward(loss)
            adam_step(named, state, step_config)
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


def rollout_step(horizon: int, step: int | None, covariate_mode: str) -> int:
    """Check a rollout's covariate mode and step; return the step, the horizon when ``step`` is None."""
    if covariate_mode not in (COVARIATE_ORACLE, COVARIATE_HOLD_LAST):
        raise ParameterError(f"unknown covariate mode {covariate_mode!r}")
    s = horizon if step is None else int(step)
    if not 1 <= s <= horizon:
        raise ParameterError(f"step must lie in [1, horizon={horizon}], got {step}")
    return s


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
    denormalized and aligned exactly with the test timestamps. A round
    whose forward overflows, or whose forecast is not finite, raises a
    NumericalError naming the row the round starts at.
    """
    cfg = model.config
    s = rollout_step(cfg.horizon, step, covariate_mode)
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
    # A layer norm maps an overflowed row to zeros, so an overflow can leave
    # the forecast finite: it raises here instead. forward's ValueError is a
    # window whose values are finite but whose mean overflows.
    with ad.no_grad(), np.errstate(over="raise", invalid="raise"):
        while pos < n:
            window = work[pos - cfg.lookback : pos]
            try:
                out = model.forward(window)  # (M, S)
            except (FloatingPointError, ValueError) as exc:
                raise NumericalError(f"non-finite forecast in the round starting at row {pos}: {exc}") from None
            take = min(s, n - pos)
            chunk = out.data[ti, :take]
            if not np.isfinite(chunk).all():
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
        return TSTransformerModel.from_arrays(self.config, self.arrays)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# (encode, decode) per config dataclass field type, shared by the checkpoint
# header and the CLI's config keys. Ints use str because numpy 2 reprs a numpy
# integer as "np.int64(16)". Decoders raise ValueError, also on non-finite floats.
FIELD_CODECS = {
    "int": (str, int),
    "float": (repr, _finite_float),
    "str": (str, str),
    "tuple": (lambda v: ",".join(map(repr, v)), lambda text: tuple(map(_finite_float, text.split(",")))),
}


def _header_text(config: ModelConfig, stats: NormStats, target: str, extra: dict) -> str:
    if target not in stats.channel_names:
        raise ParameterError(f"checkpoint target {target!r} is not among the stats channels {stats.channel_names}")
    bad = [k for k, v in extra.items() if "=" in k or any(c in f"{k}{v}" for c in "\n\r")]
    if bad:
        raise ParameterError(f"checkpoint header entry {bad[0]!r} has '=' in its key or a line break")
    taken = [k for k in extra if k.startswith(("model.", "stats."))]
    if taken:
        raise ParameterError(f"checkpoint header entry {taken[0]!r} is under 'model.' or 'stats.', which the "
                             "architecture and the normalization statistics own")
    lines = [
        f"model.{f.name}={FIELD_CODECS[f.type][0](getattr(config, f.name))}"
        for f in dataclasses.fields(ModelConfig)
    ]
    lines += [
        "stats.channels=" + ",".join(stats.channel_names),
        "stats.mean=" + ",".join(repr(float(v)) for v in stats.mean),
        "stats.std=" + ",".join(repr(float(v)) for v in stats.std),
        "stats.constant=" + ",".join(stats.constant_channels),
        f"stats.target={target}",
    ]
    lines += [f"{key}={extra[key]}" for key in sorted(extra)]
    return "\n".join(lines) + "\n"


def save_checkpoint(
    path,
    model: TSTransformerModel,
    stats: NormStats,
    target: str,
    extra: dict | None = None,
) -> None:
    """Write magic, version, key=value header, then parameters as <f8.

    ``target`` is the forecast channel, one of ``stats.channel_names``;
    ``extra`` holds further header entries.
    """
    header = _header_text(model.config, stats, target, extra or {}).encode("utf-8")
    write_atomic(path, b"".join([
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<I", len(header)),
        header,
        model._theta.astype("<f8", copy=False).tobytes(),
    ]))


def _parse_header(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise CorruptionError(f"malformed checkpoint header line: {line!r}")
        key, _, value = line.partition("=")
        if key in fields:
            raise CorruptionError(f"checkpoint header names {key!r} twice")
        fields[key] = value
    return fields


def load_checkpoint(path) -> Checkpoint:
    """Validate magic, version, header encoding and stats, scalar count and finiteness, then rebuild."""
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
        values = {f: FIELD_CODECS[f.type][1](fields[f"model.{f.name}"]) for f in dataclasses.fields(ModelConfig)}
        config = ModelConfig(**{f.name: value for f, value in values.items() if f.init})
        decode_floats = FIELD_CODECS["tuple"][1]
        stats = NormStats(
            channel_names=tuple(fields["stats.channels"].split(",")),
            mean=decode_floats(fields["stats.mean"]),
            std=decode_floats(fields["stats.std"]),
            constant_channels=tuple(
                c for c in fields["stats.constant"].split(",") if c
            ),
        )
        target = fields["stats.target"]
    except (KeyError, ValueError) as exc:  # ValueError covers UnicodeDecodeError
        raise CorruptionError(f"invalid checkpoint header: {exc}") from exc
    for f, value in values.items():  # derived fields (stages) too: the header must say what the config holds
        if value != getattr(config, f.name):
            raise CorruptionError(f"checkpoint model.{f.name}={fields[f'model.{f.name}']} disagrees with "
                                  f"the model config it builds, whose {f.name} is {getattr(config, f.name)}")
    counts = {len(stats.channel_names), len(stats.mean), len(stats.std), config.n_variates}
    if len(counts) != 1:
        raise CorruptionError(
            f"checkpoint stats disagree: {len(stats.channel_names)} channels, {len(stats.mean)} means, "
            f"{len(stats.std)} stds, model.n_variates={config.n_variates}"
        )
    if len(set(stats.channel_names)) != len(stats.channel_names):
        raise CorruptionError(f"checkpoint stats.channels names a channel twice: {fields['stats.channels']}")
    if not np.all(stats.std > 0.0):
        raise CorruptionError(f"checkpoint stats.std holds a value <= 0: {fields['stats.std']}")
    if target not in stats.channel_names:
        raise CorruptionError(f"checkpoint stats.target {target!r} is not among stats.channels")

    payload_bytes, expected = len(blob) - 12 - header_len, param_count(config)
    if payload_bytes != 8 * expected:
        raise CorruptionError(f"scalar count mismatch: payload has {payload_bytes} bytes, "
                              f"config needs {expected} float64 scalars")
    scalars = np.frombuffer(blob, dtype="<f8", offset=12 + header_len)  # read-only, no copy
    if not np.all(np.isfinite(scalars)):
        raise CorruptionError("checkpoint payload holds non-finite scalars")
    return Checkpoint(version=version, config=config, stats=stats, header=fields,
                      arrays=tuple(view for _, view in _param_views(config, scalars)))


# ---------------------------------------------------------------------------
# artifact writing and small CSV helpers shared by the CLI and tests


def write_atomic(path, data) -> None:
    """Write bytes (or str, as UTF-8) to a new file beside ``path``, then rename it over ``path``.

    Readers see the old file or the new one, never a part; a failed write
    leaves the old file as it was and removes the temporary one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:  # created with the usual mode, unlike mkstemp's 0600
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def loss_history_csv(history) -> str:
    lines = ["epoch,mean_loss"]
    for i, value in enumerate(history, start=1):
        lines.append(f"{i},{value!r}")
    return "\n".join(lines) + "\n"


def series_csv(names, time, columns, marker: str | None = None) -> str:
    """Series CSV: an optional marker line, the ``names`` header, then per row
    the time and each of the row's ``columns`` values, all as ``repr`` floats."""
    lines = [marker] if marker else []
    lines.append(",".join(names))
    rows = zip(np.asarray(time, dtype=np.float64).tolist(), np.asarray(columns, dtype=np.float64).tolist())
    lines += [",".join([repr(t)] + [repr(v) for v in row]) for t, row in rows]
    return "\n".join(lines) + "\n"
