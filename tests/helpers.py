"""Shared reference implementations and fixture builders for the tests.

``vanilla_attention_reference`` is deliberately independent of the
library ops: plain numpy, written straight from the classic
scaled-dot-product formulation, so the model's multi-scale path can be
checked against it. ``per_head_attention_loop`` is the opposite: the
model's former attention, op for op in taped primitives, kept so the
fused ``autodiff.attention`` can be held to it bit for bit. In the same
way ``composed_forward`` keeps the recorded forward as a chain of taped
primitives (``composed_trm_block`` per encoder stage, whose attention
sublayer, the model's ``multi_scale_attention``, runs q, k, the k reducer and
attention in every stage), and ``adam_step_per_parameter`` the optimizer
that updated one parameter at a time, so the model's one-node forward, with
its one-key shortcut, and the flat Adam update can be held to them.
``stacked_windows`` is the former ``make_windows``, which copied every window
into stacked arrays, so the strided views can be held to it. ``count_nodes``
counts the graph nodes a call records.
"""

import math

import numpy as np

from tstransformer import autodiff as ad
from tstransformer.data import DegradationSpec, WindowedDataset


def per_head_attention_loop(q, k, v, heads: int) -> list:
    """Per-head taped outputs of the slice-per-head attention.

    Laid side by side on the last axis they form the attention output.
    """
    inv_scale = 1.0 / math.sqrt(q.shape[-1] / heads)
    if heads == 1:
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), inv_scale)
        return [ad.matmul(ad.softmax_last(scores), v)]
    hd = q.shape[-1] // heads
    outs = []
    for h in range(heads):
        qh = ad.slice_axis(q, -1, h * hd, (h + 1) * hd)
        kh = ad.slice_axis(k, -1, h * hd, (h + 1) * hd)
        vh = ad.slice_axis(v, -1, h * hd, (h + 1) * hd)
        scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), inv_scale)
        outs.append(ad.matmul(ad.softmax_last(scores), vh))
    return outs


def composed_trm_block(model, tokens, stage: int):
    """One encoder stage as a chain of taped primitives: residual attention
    and feed-forward sublayers, post-norm layout."""
    eps = model.config.eps
    w = model.param(f"stage{stage}.ffn.weight")
    b = model.param(f"stage{stage}.ffn.bias")
    normed = ad.layer_norm(ad.add(tokens, model.multi_scale_attention(tokens, stage)), eps)
    return ad.layer_norm(ad.add(normed, ad.relu(ad.affine(normed, w, b))), eps)


def composed_forward(model, window, channel=None):
    """``model.forward`` as a chain of taped primitives, before it became one
    node: embed, a composed stage per stage, the token slice, the head affine
    and the add of the window mean repeated over the horizon."""
    cfg = model.config
    mu = window.sum(axis=-2, keepdims=True) / window.shape[-2]
    mu_rows = mu.swapaxes(-1, -2)
    tokens = model.embed(window - mu)
    for stage in range(cfg.stages):
        tokens = composed_trm_block(model, tokens, stage)
    if channel is not None:
        tokens = ad.slice_axis(tokens, -2, channel, channel + 1)
        mu_rows = mu_rows[..., channel : channel + 1, :]
    delta = ad.affine(tokens, model.param("project.weight"), model.param("project.bias"))
    return ad.add(delta, ad.Tensor(np.repeat(mu_rows, cfg.horizon, axis=-1)))


def count_nodes(fn):
    """``fn()`` and the number of graph nodes recorded while it ran, read from
    the execution-order node numbering (each read uses up one number)."""
    start = next(ad._seq)
    out = fn()
    return out, next(ad._seq) - start - 1


def adam_step_per_parameter(named_params, m: list, v: list, step: int, config) -> None:
    """Adam as a loop over parameters; ``m`` and ``v`` hold one array per
    parameter and ``step`` is the count including this update."""
    c1 = 1.0 - config.beta1 ** step
    c2 = 1.0 - config.beta2 ** step
    for (_, p), mi, vi in zip(named_params, m, v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        mi *= config.beta1
        mi += (1.0 - config.beta1) * g
        vi *= config.beta2
        vi += (1.0 - config.beta2) * g * g
        p.data -= config.learning_rate * (mi / c1) / (np.sqrt(vi / c2) + config.adam_eps)


def stacked_windows(ts, lookback: int, horizon: int, stride: int = 1, all_channels: bool = False):
    """``make_windows`` as a loop that stacks a copy of every window; no argument checks."""
    tw, s = lookback, horizon
    starts = np.arange(0, len(ts) - tw - s + 1, stride)
    inputs = np.stack([ts.features[i : i + tw] for i in starts])
    if all_channels:
        targets = np.stack([ts.features[i + tw : i + tw + s] for i in starts])
    else:
        col = ts.target_index
        targets = np.stack([ts.features[i + tw : i + tw + s, col] for i in starts])
    return WindowedDataset(
        inputs=inputs,
        targets=targets,
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
    as ``edit(old_value)``, keeping the header length field consistent."""
    blob = path.read_bytes()
    end = 12 + int.from_bytes(blob[8:12], "little")
    lines = blob[12:end].decode("utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(key + "="))
    lines[i] = f"{key}={edit(lines[i].partition('=')[2])}"
    header = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(blob[:8] + len(header).to_bytes(4, "little") + header + blob[end:])
