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
from .model import ModelConfig, TSTransformerModel, param_count, param_shapes

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
    """Mean squared error as a taped scalar."""
    truth_t = truth if isinstance(truth, Tensor) else Tensor(truth)
    if pred.shape != truth_t.shape:
        raise ContractError(f"loss shapes differ: pred {pred.shape} vs truth {truth_t.shape}")
    diff = ad.sub(pred, truth_t)
    return ad.mean_all(ad.mul(diff, diff))


@dataclass
class AdamState:
    """Step count and the moments of every parameter, flat in declared order."""

    step: int
    m: np.ndarray
    v: np.ndarray


def adam_init(params) -> AdamState:
    size = sum(p.size for p in params)
    return AdamState(step=0, m=np.zeros(size), v=np.zeros(size))


def adam_step(named_params, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update, in place; aborts on non-finite grads.

    The gradients (None counts as zero) are checked, then updated as one
    flat vector; each parameter's slice of the step is subtracted in place.
    """
    named_params = list(named_params)
    g = np.concatenate([
        p.grad.reshape(-1) if p.grad is not None else np.zeros(p.size) for _, p in named_params
    ])
    if not np.all(np.isfinite(g)):
        name = next(n for n, p in named_params if p.grad is not None and not np.all(np.isfinite(p.grad)))
        raise NumericalError(f"non-finite gradient for parameter {name!r}")
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


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint norm is at most ``max_norm``; return the
    norm before scaling (None counts as zero)."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.dot(p.grad.reshape(-1), p.grad.reshape(-1)))
    norm = math.sqrt(total)
    if max_norm > 0.0 and norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * factor  # gradient arrays may be shared: never scaled in place
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

    Deterministic for fixed (seed, config, data). Aborts with epoch and
    batch indices when the loss turns non-finite.
    """
    if len(windows) == 0:
        raise ContractError("cannot train on an empty window set")
    rng = np.random.default_rng(config.seed)
    named = model.named_parameters()
    params = [p for _, p in named]
    state = adam_init(params)
    rank = 3 if config.loss_channels == LOSS_ALL else 2
    if windows.targets.ndim != rank:
        raise ContractError(
            f"loss_channels={config.loss_channels!r} needs {rank}-d targets, got {windows.targets.ndim}-d"
        )
    # None scores every variate's row, else only the target's; truth holds those rows, (n, 1 or M, S).
    channel = None if config.loss_channels == LOSS_ALL else windows.channel_names.index(windows.target_channel)
    truth = (windows.targets if channel is None else windows.targets[:, :, None]).swapaxes(1, 2)

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
            if config.clip_norm > 0.0:
                clip_global_norm(params, config.clip_norm)
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
    denormalized and aligned exactly with the test timestamps.
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


def _header_text(config: ModelConfig, stats: NormStats, extra: dict) -> str:
    bad = [k for k, v in extra.items() if "=" in k or any(c in f"{k}{v}" for c in "\n\r")]
    if bad:
        raise ParameterError(f"checkpoint header entry {bad[0]!r} has '=' in its key or a line break")
    lines = [
        f"model.{f.name}={FIELD_CODECS[f.type][0](getattr(config, f.name))}"
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
    write_atomic(path, b"".join([
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<I", len(header)),
        header,
        *(p.data.astype("<f8").tobytes() for _, p in model.named_parameters()),
    ]))


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
        config = ModelConfig(**{
            f.name: FIELD_CODECS[f.type][1](fields[f"model.{f.name}"])
            for f in dataclasses.fields(ModelConfig)
        })
        decode_floats = FIELD_CODECS["tuple"][1]
        stats = NormStats(
            channel_names=tuple(fields["stats.channels"].split(",")),
            mean=decode_floats(fields["stats.mean"]),
            std=decode_floats(fields["stats.std"]),
            constant_channels=tuple(
                c for c in fields["stats.constant"].split(",") if c
            ),
        )
    except (KeyError, ValueError) as exc:  # ValueError covers UnicodeDecodeError
        raise CorruptionError(f"invalid checkpoint header: {exc}") from exc
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
    if fields.get("stats.target", stats.channel_names[0]) not in stats.channel_names:
        raise CorruptionError(f"checkpoint stats.target {fields['stats.target']!r} is not among stats.channels")

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

    arrays, pos = [], 0
    for _, shape in param_shapes(config):
        size = math.prod(shape)
        arrays.append(scalars[pos : pos + size].reshape(shape).copy())
        pos += size
    return Checkpoint(version=version, config=config, stats=stats, header=fields, arrays=tuple(arrays))


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
