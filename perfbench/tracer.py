"""Outside-in tracer for the benchmark's traced run.

The tracer changes no library code. While installed it rebinds public
functions of ``tstransformer`` where their callers look them up, so
each call records a span (name, start, end, parent span, one measured
number) in memory:

- ``model`` and ``training`` call the autodiff ops as ``ad.<op>``, so the
  ops are rebound on ``tstransformer.autodiff``;
- ``cli`` and ``training`` import data, metrics and training functions by
  name, so those are rebound in ``tstransformer.cli`` and
  ``tstransformer.training`` (and ``threshold_crossing`` also in
  ``tstransformer.metrics``, whose ``evaluate_forecast`` calls it);
- model stages are methods, so they are rebound on the model class.

Spans are kept in memory and turned into per-layer metrics (and written
out) after the traced pass. A span's self time is its duration minus the
durations of its direct children. The benchmark runs single-threaded
(``TST_THREADS`` unset), so one span stack describes every call.
"""

from __future__ import annotations

import os
import time

import numpy as np

OPS = (
    "affine", "matmul", "add", "sub", "mul", "scale", "relu", "transpose",
    "slice_axis", "concat_last", "mean_all", "softmax_last", "layer_norm",
    "depthwise_conv1d",
)
CLI_STAGES = ("preprocess", "train", "predict", "evaluate")
STAGES = 4

TRAIN = "training.train"
ROLLOUT = "training.rolling_forecast"
FORWARD = "model.forward"
BACKWARD = "autodiff.backward"
ZERO_GRAD = "training.zero_grad"

# Per-layer metrics computed from one traced pass, with their units.
# ``autodiff.<op>`` entries are expanded below.
LAYER_METRICS = (
    [("autodiff.prims_per_step", "count")]
    + [(f"autodiff.{op}.{field}", unit) for op in OPS
       for field, unit in (("calls", "count"), ("self_s", "s"), ("out_bytes", "bytes"))]
    + [("autodiff.backward.self_s", "s"), ("autodiff.backward_share", "%")]
    + [(f"model.stage{i}.s", "s") for i in range(STAGES)]
    + [
        ("model.head.s", "s"),
        ("model.head.out_bytes", "bytes"),
        ("model.forward.self_s", "s"),
        ("model.embed.s", "s"),
        ("model.attention.s", "s"),
        ("model.reduce_kv.s", "s"),
        ("training.steps", "count"),
        ("training.step_ms.p50", "ms"),
        ("training.step_ms.p90", "ms"),
        ("training.adam_step.s", "s"),
        ("training.clip_global_norm.s", "s"),
        ("training.mse_loss.s", "s"),
        ("training.zero_grad.s", "s"),
        ("training.rollout.rounds", "count"),
        ("training.rollout.round_ms.p50", "ms"),
        ("training.rollout.round_ms.p99", "ms"),
        ("training.load_checkpoint.s", "s"),
        ("training.save_checkpoint.s", "s"),
        ("training.checkpoint_bytes", "bytes"),
        ("data.ingest_csv.calls", "count"),
        ("data.ingest_csv.s", "s"),
        ("data.ingest_csv.rows", "count"),
        ("data.condense.s", "s"),
        ("data.moving_average.s", "s"),
        ("data.make_windows.s", "s"),
        ("data.windows_bytes", "bytes"),
        ("data.zscore.s", "s"),
        ("data.split_at.s", "s"),
        ("metrics.evaluate_forecast.s", "s"),
        ("metrics.threshold_crossing.calls", "count"),
        ("metrics.threshold_crossing.s", "s"),
    ]
    + [(f"cli.{stage}.self_s", "s") for stage in CLI_STAGES]
    + [("cli.evaluate.s", "s")]
)

# Names of metrics that are exact counts: they must repeat run to run.
EXACT_COUNTS = tuple(
    name for name, unit in LAYER_METRICS if unit in ("count", "bytes")
)


def _nbytes(out, args):
    return out.data.nbytes


def _rows(out, args):
    return len(out)


def _window_bytes(out, args):
    return out.inputs.nbytes + out.targets.nbytes


def _file_bytes(out, args):
    return os.path.getsize(args[0])


def _stage_name(args):
    return f"model.stage{args[2]}"

class Tracer:
    """Context manager: rebinds the traced functions and records spans.

    ``clock`` gives span times; a clock that leaves out time spent
    outside the program (such as the benchmark's calibration kernel)
    keeps that time out of the spans.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.values: list = []
        self._stack = [-1]
        self._saved: list = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name, measure):
        names, starts, ends, parents, values = (
            self.names, self.starts, self.ends, self.parents, self.values
        )
        stack = self._stack
        clock = self.clock
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name if fixed else name(args))
            parents.append(stack[-1])
            values.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if measure is not None:
                values[i] = measure(out, args)
            return out

        return traced

    def _patch(self, owner, attr, name, measure=None):
        original = getattr(owner, attr, None)
        if original is None:  # gone from the library: its metrics read 0
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, measure))

    def __enter__(self):
        from tstransformer import autodiff, cli, metrics, training
        from tstransformer.model import TSTransformerModel

        for op in OPS:
            self._patch(autodiff, op, f"autodiff.{op}", _nbytes)
        self._patch(autodiff, "backward", BACKWARD)
        self._patch(autodiff, "zero_grad", ZERO_GRAD)

        self._patch(TSTransformerModel, "forward", FORWARD)
        self._patch(TSTransformerModel, "embed", "model.embed")
        self._patch(TSTransformerModel, "trm_block", _stage_name)
        self._patch(TSTransformerModel, "multi_scale_attention", "model.attention")
        self._patch(TSTransformerModel, "reduce_kv", "model.reduce_kv")

        for name in ("mse_loss", "adam_step", "clip_global_norm"):
            self._patch(training, name, f"training.{name}")
        self._patch(training, "zscore_apply", "data.zscore")
        self._patch(cli, "train", TRAIN)
        self._patch(cli, "rolling_forecast", ROLLOUT)
        self._patch(cli, "save_checkpoint", "training.save_checkpoint", _file_bytes)
        self._patch(cli, "load_checkpoint", "training.load_checkpoint")

        self._patch(cli, "ingest_csv", "data.ingest_csv", _rows)
        self._patch(cli, "make_windows", "data.make_windows", _window_bytes)
        for name in ("condense", "moving_average", "split_at"):
            self._patch(cli, name, f"data.{name}")
        for name in ("zscore_fit", "zscore_apply"):
            self._patch(cli, name, "data.zscore")

        self._patch(cli, "evaluate_forecast", "metrics.evaluate_forecast")
        self._patch(cli, "threshold_crossing", "metrics.threshold_crossing")
        self._patch(metrics, "threshold_crossing", "metrics.threshold_crossing")

        for stage in CLI_STAGES:
            self._patch(cli, f"cmd_{stage}", f"cli.{stage}")
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- analysis --------------------------------------------------------------

    def spans(self) -> dict:
        """Recorded spans as arrays; ``name`` indexes ``labels``."""
        labels = sorted(set(self.names))
        index = {label: i for i, label in enumerate(labels)}
        n = len(self.names)
        return {
            "labels": np.array(labels),
            "name": np.fromiter((index[x] for x in self.names), np.int64, n),
            "start": np.array(self.starts, dtype=np.float64),
            "end": np.array(self.ends, dtype=np.float64),
            "parent": np.array(self.parents, dtype=np.int64),
            "value": np.array(self.values, dtype=np.float64),
        }


def nesting_violations(sp: dict) -> int:
    """Spans that start before, end after, or are outlasted by the
    summed durations of, their children, relative to their parent."""
    parent, start, end = sp["parent"], sp["start"], sp["end"]
    has = parent >= 0
    p = parent[has]
    bad = int(np.count_nonzero((start[has] < start[p]) | (end[has] > end[p])))
    dur = end - start
    child_sum = np.bincount(p, weights=dur[has], minlength=len(dur))
    return bad + int(np.count_nonzero(child_sum > dur))


def _inside(start, outer_start, outer_end):
    """Mask of instants that fall inside one of the sorted, disjoint
    intervals [outer_start, outer_end]."""
    k = np.searchsorted(outer_start, start, side="right") - 1
    ok = k >= 0
    ok[ok] = start[ok] <= outer_end[k[ok]]
    return ok


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(sp: dict) -> dict:
    """Per-layer metrics of one traced pass, keyed as in LAYER_METRICS."""
    labels = list(sp["labels"])
    name, start, end, parent, value = (
        sp["name"], sp["start"], sp["end"], sp["parent"], sp["value"]
    )
    dur = end - start
    has = parent >= 0
    child_sum = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    self_t = dur - child_sum
    n_labels = len(labels)
    count = np.bincount(name, minlength=n_labels)
    dur_sum = np.bincount(name, weights=dur, minlength=n_labels)
    self_sum = np.bincount(name, weights=self_t, minlength=n_labels)
    value_sum = np.bincount(name, weights=value, minlength=n_labels)
    code = {label: i for i, label in enumerate(labels)}
    parent_name = np.where(has, name[np.maximum(parent, 0)], -1)

    def is_(label):
        return name == code.get(label, -2)

    def under(label):
        return parent_name == code.get(label, -2)

    def total(arr, label):
        k = code.get(label)
        return float(arr[k]) if k is not None else 0.0

    m = {}
    train = is_(TRAIN)
    in_train = _inside(start, start[train], end[train])
    op_mask = np.isin(name, [code[f"autodiff.{op}"] for op in OPS if f"autodiff.{op}" in code])
    steps = int(np.count_nonzero(is_(BACKWARD) & in_train))
    m["autodiff.prims_per_step"] = (
        np.count_nonzero(op_mask & in_train) / steps if steps else 0.0
    )
    for op in OPS:
        label = f"autodiff.{op}"
        m[f"{label}.calls"] = total(count, label)
        m[f"{label}.self_s"] = total(self_sum, label)
        m[f"{label}.out_bytes"] = total(value_sum, label)
    m["autodiff.backward.self_s"] = total(self_sum, BACKWARD)

    # A training step runs from its forward's start to its zero_grad's end.
    step_end = end[is_(ZERO_GRAD) & under(TRAIN)]
    step_start = start[is_(FORWARD) & under(TRAIN)]
    n_steps = min(len(step_end), len(step_start))
    step_s = step_end[:n_steps] - step_start[:n_steps]
    backward_in_train = float(dur[is_(BACKWARD) & in_train].sum())
    m["autodiff.backward_share"] = (
        100.0 * backward_in_train / float(step_s.sum()) if len(step_s) else 0.0
    )

    for i in range(STAGES):
        m[f"model.stage{i}.s"] = total(dur_sum, f"model.stage{i}")
    head = is_("autodiff.affine") & under(FORWARD)
    m["model.head.s"] = float(dur[head].sum())
    m["model.head.out_bytes"] = float(value[head].sum())
    m["model.forward.self_s"] = total(self_sum, FORWARD)
    m["model.embed.s"] = total(dur_sum, "model.embed")
    m["model.attention.s"] = total(dur_sum, "model.attention")
    m["model.reduce_kv.s"] = total(dur_sum, "model.reduce_kv")

    m["training.steps"] = float(steps)
    m["training.step_ms.p50"] = _pct(1e3 * step_s, 50)
    m["training.step_ms.p90"] = _pct(1e3 * step_s, 90)
    for label in ("adam_step", "clip_global_norm", "mse_loss", "zero_grad"):
        m[f"training.{label}.s"] = total(dur_sum, f"training.{label}")
    rounds = 1e3 * dur[is_(FORWARD) & under(ROLLOUT)]
    m["training.rollout.rounds"] = float(len(rounds))
    m["training.rollout.round_ms.p50"] = _pct(rounds, 50)
    m["training.rollout.round_ms.p99"] = _pct(rounds, 99)
    m["training.load_checkpoint.s"] = total(dur_sum, "training.load_checkpoint")
    m["training.save_checkpoint.s"] = total(dur_sum, "training.save_checkpoint")
    m["training.checkpoint_bytes"] = total(value_sum, "training.save_checkpoint")

    m["data.ingest_csv.calls"] = total(count, "data.ingest_csv")
    m["data.ingest_csv.s"] = total(dur_sum, "data.ingest_csv")
    m["data.ingest_csv.rows"] = total(value_sum, "data.ingest_csv")
    for label in ("condense", "moving_average", "make_windows", "zscore", "split_at"):
        m[f"data.{label}.s"] = total(dur_sum, f"data.{label}")
    m["data.windows_bytes"] = total(value_sum, "data.make_windows")

    m["metrics.evaluate_forecast.s"] = total(dur_sum, "metrics.evaluate_forecast")
    m["metrics.threshold_crossing.calls"] = total(count, "metrics.threshold_crossing")
    m["metrics.threshold_crossing.s"] = total(dur_sum, "metrics.threshold_crossing")

    for stage in CLI_STAGES:
        m[f"cli.{stage}.self_s"] = total(self_sum, f"cli.{stage}")
    m["cli.evaluate.s"] = total(dur_sum, "cli.evaluate")
    return {key: float(v) for key, v in m.items()}
