"""Ageing-data pipeline: ingestion, condensing, filtering, windowing.

The stages are pure transformations over an immutable
:class:`TimeSeries`; none of them reorders time. A seeded synthetic
degradation generator stands in for real stack-voltage recordings so
the full chain can run without the original dataset.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ParameterError, SchemaError

DEFAULT_TARGET = "Utot_V"
DEFAULT_TIME_COLUMN = "time_h"

# Covariate channels from the usual health-monitoring set, each with the synthetic
# generator's (base level, degradation-state gain, periodic-load amplitude).
_COVARIATE_BASES = {
    "I_A": (70.0, 4.0, 3.0),
    "TinH2_C": (53.0, 40.0, 0.5),
    "PinAIR_mbara": (1300.0, 200.0, 5.0),
    "DinH2_lmin": (4.0, 8.0, 0.3),
    "HrAIRFC_pct": (50.0, 90.0, 2.0),
    "ToutWAT_C": (57.0, 60.0, 0.8),
    "TinAIR_C": (45.0, 25.0, 1.0),
    "PoutH2_mbara": (1250.0, 150.0, 4.0),
}


@dataclass
class TimeSeries:
    """Multivariate records on a strictly increasing hour axis."""

    time: np.ndarray
    features: np.ndarray
    channel_names: tuple
    target_channel: str = DEFAULT_TARGET
    dropped_rows: int = 0

    def __post_init__(self):
        self.time = np.ascontiguousarray(self.time, dtype=np.float64)
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.channel_names = tuple(self.channel_names)
        if self.time.ndim != 1 or self.features.ndim != 2:
            raise DataError(
                f"expected 1-D time and 2-D features, got {self.time.shape}, {self.features.shape}"
            )
        if len(self.time) == 0:
            raise DataError("time series is empty")
        if self.features.shape != (len(self.time), len(self.channel_names)):
            raise DataError(
                f"features shape {self.features.shape} does not match "
                f"{len(self.time)} rows x {len(self.channel_names)} channels"
            )
        if len(set(self.channel_names)) != len(self.channel_names):
            raise SchemaError(f"duplicate channel names: {self.channel_names}")
        if self.target_channel not in self.channel_names:
            raise SchemaError(
                f"target channel {self.target_channel!r} not among {self.channel_names}"
            )
        if not np.all(np.isfinite(self.time)) or not np.all(np.isfinite(self.features)):
            raise DataError("time series contains non-finite values")
        steps = np.diff(self.time)
        if len(steps) and steps.min() <= 0.0:
            bad = int(np.argmax(steps <= 0.0)) + 1
            raise DataError(f"time must be strictly increasing; violated at row {bad}")

    def __len__(self) -> int:
        return len(self.time)

    @property
    def target_index(self) -> int:
        return self.channel_names.index(self.target_channel)

    @property
    def target(self) -> np.ndarray:
        return self.features[:, self.target_index]

    def replace_features(self, features: np.ndarray) -> "TimeSeries":
        return TimeSeries(
            self.time.copy(), features, self.channel_names, self.target_channel, self.dropped_rows
        )


@dataclass(frozen=True)
class NormStats:
    """Per-channel z-score statistics fit on the training segment only."""

    channel_names: tuple
    mean: np.ndarray
    std: np.ndarray
    constant_channels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        object.__setattr__(self, "constant_channels", tuple(self.constant_channels))

    def channel(self, name: str) -> tuple:
        i = self.channel_names.index(name)
        return float(self.mean[i]), float(self.std[i])


@dataclass
class WindowedDataset:
    """Sliding (input window, target) pairs with source timestamps, every channel in both: read-only
    views that keep the series alive. Which target rows a loss scores is the training loop's choice."""

    inputs: np.ndarray  # (n, lookback, n_channels)
    targets: np.ndarray  # (n, horizon, n_channels)
    start_times: np.ndarray  # (n,) time of the first input row
    lookback: int
    horizon: int
    stride: int
    channel_names: tuple
    target_channel: str

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class CsvSchema:
    """Column selection for ingestion; ``covariates=None`` keeps all."""

    time_column: str = DEFAULT_TIME_COLUMN
    target_column: str = DEFAULT_TARGET
    covariates: tuple | None = None


# ---------------------------------------------------------------------------
# ingestion


def ingest_csv(path, schema: CsvSchema | None = None) -> TimeSeries:
    """Parse hours plus selected channels from a headered CSV.

    ``#``-prefixed lines are skipped, and the header is the first non-empty
    record. The body takes one of two paths, chosen by its text alone, and
    both give the same result bit for bit:

    - A plain numeric body (only ASCII digits, ``+-.eE``, commas, spaces,
      tabs and line breaks) whose every row parses to finite numbers is read
      by one ``np.loadtxt`` over its lines, streamed in 64 Ki-character chunks.
    - Any other body is parsed row by row from the top of the file: rows with
      unparseable or non-finite cells are dropped and counted in
      ``TimeSeries.dropped_rows``. This path is the reference.

    Neither path holds the file's cells as objects: the per-row parse fills
    flat float64 buffers as it reads, and the bulk parse holds one chunk's
    lines at a time. A record the ``csv`` module refuses (a field over
    ``csv.field_size_limit``) is a ``DataError`` that names the line.
    """
    schema = schema or CsvSchema()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = _Lines(fh)
            header = next(_records(lines), None)
            if header is None:
                raise DataError(f"{path}: no rows")
            try:
                channels, time_idx, col_idx = _columns(path, [name.strip() for name in header], schema)
            except SchemaError:
                for _ in fh:  # a file that is not UTF-8 text is reported as such first
                    pass
                raise
            usecols = [time_idx, *col_idx]
            parsed = _parse_plain(fh, usecols)
            if parsed is None:
                fh.seek(0)
                records = _records(lines)
                next(records)  # the header again
                parsed = _parse_rows(records, usecols)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {lines.number}: {exc}") from None
    time, features, dropped = parsed
    if not len(time):
        raise DataError(f"{path}: no parseable data rows")
    return TimeSeries(time, features, tuple(channels), target_channel=schema.target_column, dropped_rows=dropped)


# The only bytes a body may hold for the bulk parse: numpy strips more around
# a number than float() does (0x1c-0x1f, for one), and quotes and ``#`` lines
# mean what only the csv module reads.
_PLAIN_BODY = b"0123456789+-.eE, \t\r\n"


class _Lines:
    """The lines of a text file that do not start with ``#``; ``number`` is the last line read."""

    def __init__(self, fh):
        self.fh, self.number = fh, 0

    def __iter__(self):
        for self.number, line in enumerate(self.fh, 1):
            if not line.startswith("#"):
                yield line


def _records(lines):
    return filter(None, csv.reader(lines))


def _parse_plain(fh, usecols: list):
    """(time, features, 0) of the rest of ``fh`` by one ``np.loadtxt``, or None
    when the body is not plain, a row does not parse or a value is not finite."""
    limit = csv.field_size_limit()

    def checked_lines():
        for chunk in iter(lambda: fh.read(1 << 16) + fh.readline(), ""):
            # Chunks end at line ends; one within the limit holds no field the csv module refuses.
            if len(chunk) > limit or not chunk.isascii() or chunk.encode().translate(None, _PLAIN_BODY):
                raise ValueError("not a plain body")
            yield chunk.splitlines(keepends=True)

    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(
                chain.from_iterable(checked_lines()), delimiter=",", comments=None, ndmin=2, usecols=usecols
            )
    except ValueError:  # also a UnicodeDecodeError, which the per-row parse reports
        return None
    if not np.isfinite(table).all():
        return None
    return table[:, 0], table[:, 1:], 0


def _parse_rows(records, usecols: list) -> tuple:
    """(time, features, dropped rows) of the body's records, parsed one by one."""
    time_idx, col_idx = usecols[0], usecols[1:]
    times, values, dropped = array("d"), array("d"), 0
    for row in records:
        try:
            t = float(row[time_idx])
            vals = [float(row[i]) for i in col_idx]
        except (ValueError, IndexError):
            dropped += 1
            continue
        if not math.isfinite(t) or not all(math.isfinite(v) for v in vals):
            dropped += 1
            continue
        times.append(t)
        values.extend(vals)
    return np.array(times), np.array(values).reshape(len(times), len(col_idx)), dropped


def _columns(path, header: list, schema: CsvSchema) -> tuple:
    """(channel names, time column index, channel column indices) of a CSV header."""
    wanted = (schema.target_column, *(schema.covariates or ()))
    missing = [name for name in (schema.time_column, *wanted) if name not in header]
    if missing:
        raise SchemaError(f"{path}: missing column {missing[0]!r}")
    if schema.covariates is None:
        channels = [name for name in header if name != schema.time_column]
    else:
        channels = [name for name in header if name in wanted]
    for name in (schema.time_column, *channels):
        if any(ch in name for ch in ",\n\r"):
            raise SchemaError(f"{path}: column name {name!r} contains a comma or line break")
    return channels, header.index(schema.time_column), [header.index(name) for name in channels]


# ---------------------------------------------------------------------------
# condensing / filtering / normalization


def condense(ts: TimeSeries, interval_hours: float) -> TimeSeries:
    """Bin samples into consecutive interval-wide bins and emit bin means.

    Bins are anchored at t=0 so the operation is idempotent on already
    gridded data; output timestamps are bin centers and empty bins are
    skipped.
    """
    dt = float(interval_hours)
    if dt <= 0.0:
        raise ParameterError(f"interval must be positive, got {interval_hours}")
    if len(ts) == 0:
        raise DataError("cannot condense an empty series")
    # Small forward nudge keeps grid-aligned samples in their own bin
    # despite binary rounding of t/dt.
    with np.errstate(over="ignore"):  # an overflow to inf fails the check below
        bins = np.floor(ts.time / dt + 1e-9)
    if not np.all(np.abs(bins) < 2.0 ** 63):
        raise ParameterError(f"interval {interval_hours} h is too small: time / interval overflows int64")
    uniq, inverse = np.unique(bins.astype(np.int64), return_inverse=True)
    counts = np.bincount(inverse)
    means = np.empty((len(uniq), ts.features.shape[1]))
    for c in range(ts.features.shape[1]):
        means[:, c] = np.bincount(inverse, weights=ts.features[:, c]) / counts
    centers = (uniq + 0.5) * dt
    return TimeSeries(centers, means, ts.channel_names, ts.target_channel, ts.dropped_rows)


def moving_average(ts: TimeSeries, window: int) -> TimeSeries:
    """Centered moving-average filter with shrinking edge windows.

    The window must be odd so the filter is phase-free; length is
    preserved and each channel is smoothed independently.
    """
    w = int(window)
    n = len(ts)
    if w < 1 or w > n or w % 2 == 0:
        raise ParameterError(f"window must be odd and within [1, {n}], got {window}")
    half = w // 2
    cs = np.vstack([np.zeros((1, ts.features.shape[1])), np.cumsum(ts.features, axis=0)])
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    smoothed = (cs[hi] - cs[lo]) / (hi - lo)[:, None]
    return ts.replace_features(smoothed)


def zscore_fit(train: TimeSeries) -> NormStats:
    """Per-channel mean/std from the training rows; constant channels
    are flagged and assigned unit scale."""
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    constant = tuple(
        name for name, s in zip(train.channel_names, std) if s == 0.0
    )
    std = np.where(std == 0.0, 1.0, std)
    return NormStats(train.channel_names, mean, std, constant)


def _check_channels(ts: TimeSeries, stats: NormStats) -> None:
    if ts.channel_names != stats.channel_names:
        raise SchemaError(
            f"channel mismatch: series {ts.channel_names} vs stats {stats.channel_names}"
        )


def zscore_apply(ts: TimeSeries, stats: NormStats) -> TimeSeries:
    _check_channels(ts, stats)
    return ts.replace_features((ts.features - stats.mean) / stats.std)


def zscore_invert(ts: TimeSeries, stats: NormStats) -> TimeSeries:
    _check_channels(ts, stats)
    return ts.replace_features(ts.features * stats.std + stats.mean)


# ---------------------------------------------------------------------------
# splitting / windowing


def split_at(ts: TimeSeries, boundary_hours: float) -> tuple:
    """Split into (train, test) at a time boundary; both sides non-empty."""
    b = float(boundary_hours)
    n_train = int(np.searchsorted(ts.time, b, side="left"))
    if n_train == 0 or n_train == len(ts):
        raise ParameterError(
            f"boundary {boundary_hours} h leaves an empty side "
            f"(series spans [{ts.time[0]}, {ts.time[-1]}] h)"
        )
    train = TimeSeries(
        ts.time[:n_train], ts.features[:n_train], ts.channel_names, ts.target_channel
    )
    test = TimeSeries(ts.time[n_train:], ts.features[n_train:], ts.channel_names, ts.target_channel)
    return train, test


def make_windows(ts: TimeSeries, lookback: int, horizon: int, stride: int = 1) -> WindowedDataset:
    """Sliding (lookback, n_channels) inputs with the next ``horizon`` rows of
    every channel as targets, (horizon, n_channels); the loss picks its rows.

    With stride 1 the count is ``len(ts) - lookback - horizon + 1``. No
    window is copied: every array is a read-only view of ``ts``, and a batch
    is one gather.
    """
    tw, s, step = int(lookback), int(horizon), int(stride)
    if tw < 1 or s < 1:
        raise ParameterError(f"lookback and horizon must be >= 1, got {lookback}, {horizon}")
    if step < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    n = len(ts)
    if tw + s > n:
        raise DataError(
            f"series too short for windows: need at least lookback + horizon = {tw + s} "
            f"rows, got {n}"
        )
    # A window view holds its rows on the last axis; swapaxes puts them before the channels.
    return WindowedDataset(
        inputs=sliding_window_view(ts.features[: n - s], tw, axis=0)[::step].swapaxes(1, 2),
        targets=sliding_window_view(ts.features[tw:], s, axis=0)[::step].swapaxes(1, 2),
        start_times=sliding_window_view(ts.time[: n - s], tw)[::step, 0],
        lookback=tw,
        horizon=s,
        stride=step,
        channel_names=ts.channel_names,
        target_channel=ts.target_channel,
    )


# ---------------------------------------------------------------------------
# synthetic degradation fixtures


@dataclass(frozen=True)
class DegradationSpec:
    """Shape of the synthetic stack-voltage decay and its covariates.

    With the defaults, the noise-free curve falls through all loss
    thresholds between 3.5% and 5.5% of the initial voltage before
    1000 h of ageing.
    """

    initial_voltage: float = 3.325
    drift_per_hour: float = 2.1e-4
    recovery_every_hours: float = 200.0
    recovery_step_volts: float = 0.003
    # Keep the per-period drop above the peak-to-trough swing so level
    # crossings never graze a wave trough (crossing times stay
    # well-conditioned).
    periodic_amp_volts: float = 0.002
    periodic_period_hours: float = 48.0
    noise_std_volts: float = 0.001
    covariate_wobble: float = 0.05
    covariate_lead_hours: float = 4.0
    sample_interval_hours: float = 0.1


def degradation_curve(spec: DegradationSpec, t: np.ndarray) -> np.ndarray:
    """Noise-free target voltage at times ``t`` (hours)."""
    t = np.asarray(t, dtype=np.float64)
    drift = spec.drift_per_hour * t
    recoveries = spec.recovery_step_volts * np.floor(t / spec.recovery_every_hours)
    wave = spec.periodic_amp_volts * np.sin(2.0 * np.pi * t / spec.periodic_period_hours)
    return spec.initial_voltage - drift + recoveries + wave


def _degradation_state(spec: DegradationSpec, t: np.ndarray) -> np.ndarray:
    """Monotone-ish loss fraction driving the correlated covariates."""
    loss = spec.drift_per_hour * t - spec.recovery_step_volts * np.floor(
        t / spec.recovery_every_hours
    )
    return loss / spec.initial_voltage


def synth_degradation(
    seed: int,
    duration_hours: float,
    n_channels: int = 6,
    spec: DegradationSpec | None = None,
) -> TimeSeries:
    """Deterministic synthetic ageing series with ``n_channels`` channels.

    Channel 0 is the stack voltage; the remaining channels are smooth
    processes correlated with the degradation state and the periodic
    load so the series carries enough signal for covariate-conditioned
    forecasting. Covariates run ``covariate_lead_hours`` ahead of the
    voltage (leading indicators). Identical seeds produce identical
    series.
    """
    spec = spec or DegradationSpec()
    if duration_hours <= 0.0:
        raise ParameterError(f"duration must be positive, got {duration_hours}")
    if n_channels < 1:
        raise ParameterError(f"need at least the target channel, got n_channels={n_channels}")
    n = int(math.floor(duration_hours / spec.sample_interval_hours))
    if n < 2:
        raise ParameterError("duration too short for the sample interval")
    rng = np.random.default_rng(seed)
    t = np.arange(n) * spec.sample_interval_hours

    target = degradation_curve(spec, t) + rng.normal(0.0, spec.noise_std_volts, size=n)

    t_lead = t + spec.covariate_lead_hours
    state = _degradation_state(spec, t_lead)
    wave = np.sin(2.0 * np.pi * t_lead / spec.periodic_period_hours)
    names = [DEFAULT_TARGET]
    columns = [target]
    for name, (base, state_gain, wave_amp) in list(_COVARIATE_BASES.items())[: n_channels - 1]:
        # Smooth nuisance: a few slow incommensurate sinusoids with
        # seeded phases, bounded and infinitely differentiable.
        nuisance = np.zeros(n)
        for k, period in enumerate((131.0, 67.0, 43.0)):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            nuisance += np.sin(2.0 * np.pi * t / period + phase) / (k + 1)
        col = base + state_gain * state + wave_amp * wave + spec.covariate_wobble * nuisance
        names.append(name)
        columns.append(col)
    features = np.stack(columns, axis=1)
    return TimeSeries(t, features, tuple(names), target_channel=DEFAULT_TARGET)
