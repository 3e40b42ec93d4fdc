"""Shared reference implementations and fixture builders for the tests.

The library's taped ops are the model's building blocks; the taped chain
that tests hold the one-node ``forward`` to lives here. ``add`` through
``attention`` are the elementwise, structural and attention primitives
only that chain and the graph tests use, and ``embed``, ``reduce_kv`` and
``multi_scale_attention`` the model's sublayers as taped ops over a
model's parameters. ``composed_forward`` chains them into the recorded
forward (``composed_trm_block`` per encoder stage, which runs q, k, the k
reducer and attention in every stage, and the last stage on one token row
when one is asked for), so the model's one-node forward, with its one-key
and one-row shortcuts, can be held to it bit for bit.
``vanilla_attention_reference`` is deliberately independent of the
library ops: plain numpy, written straight from the classic
scaled-dot-product formulation. ``per_head_attention_loop`` is the
model's former attention, op for op in taped primitives, kept so the
fused ``attention`` can be held to it bit for bit; in the same way
``adam_step_per_parameter`` is the optimizer that updated one parameter
at a time, and ``composed_mse_loss`` the loss as the ``sub``, ``mul``,
``mean_all`` chain. ``edge_padded_conv1d`` is the strided depthwise
convolution with its edge padding built, in plain numpy, so the
convolution that folds that padding into its last tap can be held to it.
``stacked_windows`` is the former ``make_windows``, which copied every
window into stacked arrays, so the strided views can be held to it.
``count_nodes`` counts the graph nodes a call records.
"""

import math

import numpy as np

from tstransformer import autodiff as ad
from tstransformer.data import DegradationSpec, WindowedDataset
from tstransformer.errors import DimensionError, ParameterError


def _same_shape(name, a, b):
    if a.shape != b.shape:
        raise DimensionError(f"{name} requires equal shapes, got {a.shape} and {b.shape}")


def add(a, b):
    _same_shape("add", a, b)
    return ad._result(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b):
    _same_shape("sub", a, b)
    return ad._result(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b):
    _same_shape("mul", a, b)
    return ad._result(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(a, c: float):
    c = float(c)
    return ad._result(a.data * c, (a,), lambda g: (g * c,))


def transpose(x):
    """Swap the last two axes."""
    if x.data.ndim < 2:
        raise DimensionError(f"transpose requires >= 2 axes, got shape {x.shape}")
    return ad._result(np.ascontiguousarray(x.data.swapaxes(-1, -2)), (x,), lambda g: (g.swapaxes(-1, -2),))


def slice_axis(x, axis: int, start: int, stop: int):
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = x.data[idx].copy()
    if out.size == 0:
        raise DimensionError(f"empty slice [{start}:{stop}] on axis {axis} of shape {x.shape}")

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        return (gx,)

    return ad._result(out, (x,), grad_fn)


def sum_all(x):
    return ad._result(np.array([x.data.sum()]), (x,), lambda g: (np.full_like(x.data, g[0]),))


def mean_all(x):
    n = x.data.size
    return ad._result(np.array([x.data.mean()]), (x,), lambda g: (np.full_like(x.data, g[0] / n),))


def attention(q, k, v, heads: int):
    """softmax(q k^T / sqrt(hd)) v per head as one taped op, for q (..., N, D)
    and k, v (..., J, D); the (..., N, D) output holds the heads side by side."""
    if (q.data.ndim < 2 or k.data.ndim != q.data.ndim or k.shape != v.shape
            or k.shape[:-2] != q.shape[:-2] or k.shape[-1] != q.shape[-1]):
        raise DimensionError(f"attention expects q (..., N, D) and k, v (..., J, D), "
                             f"got {q.shape}, {k.shape}, {v.shape}")
    d = q.shape[-1]
    if heads < 1 or d % heads:
        raise DimensionError(f"heads ({heads}) must divide the model width ({d})")
    out, saved = ad._attention(q.data, k.data, v.data, heads)
    return ad._result(out, (q, k, v), lambda g: ad._attention_grads(g, *saved))


def _affine(model, x, prefix: str):
    return ad.affine(x, model.param(f"{prefix}.weight"), model.param(f"{prefix}.bias"))


def _check_stage(model, stage: int) -> None:
    if not 0 <= stage < model.config.stages:
        raise ParameterError(f"stage {stage} out of range [0, {model.config.stages})")


def embed(model, window):
    """The model's (lookback, n_variates) window as one token per variate:
    every variate's full history through the same affine, so the output row
    f depends only on input column f."""
    win = window if isinstance(window, ad.Tensor) else ad.Tensor(window)
    model._check_window(win.shape)
    return _affine(model, transpose(win), "embed")


def reduce_kv(model, tokens, stage: int) -> tuple:
    """Project tokens to K and V and shrink each along the token axis."""
    _check_stage(model, stage)
    p, r = f"stage{stage}.", model.config.reduction_factors[stage]
    return tuple(ad.depthwise_conv1d(_affine(model, tokens, p + name), model.param(f"{p}{name}_reduce.kernel"),
                                     model.param(f"{p}{name}_reduce.bias"), r)
                 for name in ("k", "v"))


def multi_scale_attention(model, tokens, stage: int, row=None):
    """Attention with full-resolution queries over reduced keys/values, with
    q, k and attention in every stage. The output keeps the input's token
    count, or with ``row`` set only that token, the one q is taken from."""
    _check_stage(model, stage)
    q = _affine(model, tokens if row is None else slice_axis(tokens, -2, row, row + 1), f"stage{stage}.q")
    return _affine(model, attention(q, *reduce_kv(model, tokens, stage), model.config.heads), f"stage{stage}.out")


def per_head_attention_loop(q, k, v, heads: int) -> list:
    """Per-head taped outputs of the slice-per-head attention.

    Laid side by side on the last axis they form the attention output.
    """
    inv_scale = 1.0 / math.sqrt(q.shape[-1] / heads)
    if heads == 1:
        scores = scale(ad.matmul(q, transpose(k)), inv_scale)
        return [ad.matmul(ad.softmax_last(scores), v)]
    hd = q.shape[-1] // heads
    outs = []
    for h in range(heads):
        qh = slice_axis(q, -1, h * hd, (h + 1) * hd)
        kh = slice_axis(k, -1, h * hd, (h + 1) * hd)
        vh = slice_axis(v, -1, h * hd, (h + 1) * hd)
        scores = scale(ad.matmul(qh, transpose(kh)), inv_scale)
        outs.append(ad.matmul(ad.softmax_last(scores), vh))
    return outs


def composed_trm_block(model, tokens, stage: int, row=None):
    """One encoder stage as a chain of taped primitives: residual attention
    and feed-forward sublayers, post-norm layout. With ``row`` set, q and the
    residual take only that token, each by its own ``slice_axis`` (the
    residual's made after K and V, so x's gradient sums in the full stage's
    order), and the out projection, the layer norms and the FFN run on that
    row alone."""
    eps = model.config.eps
    att = multi_scale_attention(model, tokens, stage, row)
    residual = tokens if row is None else slice_axis(tokens, -2, row, row + 1)
    normed = ad.layer_norm(add(residual, att), eps)
    return ad.layer_norm(add(normed, ad.relu(_affine(model, normed, f"stage{stage}.ffn"))), eps)


def composed_forward(model, window, channel=None):
    """``model.forward`` as a chain of taped primitives, before it became one
    node: embed, a composed stage per stage, the last on the ``channel`` row
    alone when one is given, the head affine and the add of the window mean
    repeated over the horizon."""
    cfg = model.config
    mu = window.sum(axis=-2, keepdims=True) / window.shape[-2]
    mu_rows = mu.swapaxes(-1, -2)
    tokens = embed(model, window - mu)
    for stage in range(cfg.stages):
        tokens = composed_trm_block(model, tokens, stage, channel if stage == cfg.stages - 1 else None)
    if channel is not None:
        mu_rows = mu_rows[..., channel : channel + 1, :]
    return add(_affine(model, tokens, "project"), ad.Tensor(np.repeat(mu_rows, cfg.horizon, axis=-1)))


def edge_padded_conv1d(x, kernel, bias, g):
    """``depthwise_conv1d`` and its gradients for an output gradient g, in
    plain numpy from the definition: x right-padded with copies of its last
    token to a multiple of r, each channel's length-r filter applied per
    block, and the padding's gradient summed back into the last token.
    Returns (out, x grad, kernel grad, bias grad)."""
    r, d = kernel.shape
    *lead, n, _ = x.shape
    j = -(-n // r)
    xp = np.pad(x, [(0, 0)] * len(lead) + [(0, j * r - n), (0, 0)], mode="edge").reshape(*lead, j, r, d)
    out = (xp * kernel).sum(axis=-2) + bias
    gk = (xp * g[..., None, :]).reshape(-1, r, d).sum(axis=0)
    gxp = (g[..., None, :] * kernel).reshape(*lead, j * r, d)
    gx = gxp[..., :n, :].copy()
    gx[..., n - 1, :] += gxp[..., n:, :].sum(axis=-2)
    return out, gx, gk, g.reshape(-1, d).sum(axis=0)


def composed_mse_loss(pred, truth):
    """``training.mse_loss`` as a chain of taped primitives, before it became
    one node: the truth copied into a Tensor, subtracted, squared and averaged."""
    truth_t = truth if isinstance(truth, ad.Tensor) else ad.Tensor(truth)
    diff = sub(pred, truth_t)
    return mean_all(mul(diff, diff))


def count_nodes(fn):
    """``fn()`` and the number of graph nodes recorded while it ran, read from
    the execution-order node numbering (each read uses up one number)."""
    start = next(ad._seq)
    out = fn()
    return out, next(ad._seq) - start - 1


def adam_step_per_parameter(named_params, m: list, v: list, step: int, config) -> float:
    """Adam as a loop over parameters; ``m`` and ``v`` hold one array per
    parameter and ``step`` is the count including this update. The gradients
    (None counts as zero) are clipped by one norm over their joined vector,
    which is returned."""
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for _, p in named_params]
    joined = np.concatenate([g.reshape(-1) for g in grads])
    norm = math.sqrt(float(np.dot(joined, joined)))
    if 0.0 < config.clip_norm < norm:
        grads = [g * (config.clip_norm / norm) for g in grads]
    c1 = 1.0 - config.beta1 ** step
    c2 = 1.0 - config.beta2 ** step
    for (_, p), g, mi, vi in zip(named_params, grads, m, v):
        mi *= config.beta1
        mi += (1.0 - config.beta1) * g
        vi *= config.beta2
        vi += (1.0 - config.beta2) * g * g
        p.data -= config.learning_rate * (mi / c1) / (np.sqrt(vi / c2) + config.adam_eps)
    return norm


def stacked_windows(ts, lookback: int, horizon: int, stride: int = 1):
    """``make_windows`` as a loop that stacks a copy of every window, every
    channel in inputs and targets alike; no argument checks."""
    tw, s = lookback, horizon
    starts = np.arange(0, len(ts) - tw - s + 1, stride)
    return WindowedDataset(
        inputs=np.stack([ts.features[i : i + tw] for i in starts]),
        targets=np.stack([ts.features[i + tw : i + tw + s] for i in starts]),
        start_times=ts.time[starts].copy(),
        lookback=tw,
        horizon=s,
        stride=stride,
        channel_names=ts.channel_names,
        target_channel=ts.target_channel,
    )


def vanilla_attention_reference(x: np.ndarray, model, stage: int) -> np.ndarray:
    """Plain scaled dot-product attention over tokens, no reduction.

    Q, K, V and output projections are read from the model's stage
    weights; computation uses raw numpy only.
    """
    cfg = model.config
    w = lambda name: model.param(f"stage{stage}.{name}.weight").data
    b = lambda name: model.param(f"stage{stage}.{name}.bias").data
    q = x @ w("q") + b("q")
    k = x @ w("k") + b("k")
    v = x @ w("v") + b("v")
    hd = cfg.width // cfg.heads
    outs = []
    for h in range(cfg.heads):
        sl = slice(h * hd, (h + 1) * hd)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(cfg.width / cfg.heads)
        scores = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(scores)
        attn = e / e.sum(axis=-1, keepdims=True)
        outs.append(attn @ v[:, sl])
    return np.concatenate(outs, axis=-1) @ w("out") + b("out")


def degradation_fixture_spec(noise: float = 0.003) -> DegradationSpec:
    """The seeded fixture used by the end-to-end prognostics tests."""
    return DegradationSpec(
        drift_per_hour=1.8e-4,
        recovery_step_volts=0.0,
        noise_std_volts=noise,
        periodic_amp_volts=0.002,
        periodic_period_hours=45.0,
        covariate_wobble=0.02,
        covariate_lead_hours=4.0,
        sample_interval_hours=0.025,
    )


def first_crossing_by_bisection(curve, threshold: float, t_lo: float, t_hi: float, samples: int = 200000):
    """Independent crossing-time oracle: dense scan plus bisection.

    ``curve`` maps hour arrays to voltages. Returns the first time in
    [t_lo, t_hi] where the curve is at or below the threshold, or None.
    """
    t = np.linspace(t_lo, t_hi, samples)
    v = curve(t)
    below = np.nonzero(v <= threshold)[0]
    if len(below) == 0:
        return None
    i = below[0]
    if i == 0:
        return float(t[0])
    lo, hi = t[i - 1], t[i]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if curve(np.array([mid]))[0] <= threshold:
            hi = mid
        else:
            lo = mid
    return float(hi)


def edit_checkpoint_header(path, key: str, edit) -> None:
    """Rewrite the value of one ``key=value`` checkpoint header line in place
    as ``edit(old_value)``, or drop the line where that is None, keeping the
    header length field consistent."""
    blob = path.read_bytes()
    end = 12 + int.from_bytes(blob[8:12], "little")
    lines = blob[12:end].decode("utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(key + "="))
    value = edit(lines[i].partition("=")[2])
    lines[i : i + 1] = [] if value is None else [f"{key}={value}"]
    header = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(blob[:8] + len(header).to_bytes(4, "little") + header + blob[end:])
