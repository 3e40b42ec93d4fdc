"""Temporal-scale transformer with variate tokens and reduced K/V attention.

Each variate's whole lookback window embeds to one token, so attention
runs across channels rather than across time steps. Every encoder stage
shrinks its key/value token axis by a per-stage reduction factor using
two independent strided depthwise convolutions while queries stay at
the original resolution; the vanilla mode (all ratios 1) recovers plain
inverted-transformer attention.

A stage with reduction factor r maps tokens x (..., N, D) to y:

    a = affine(attention(affine(xr, q), reduce(affine(x, k)), reduce(affine(x, v))), out)
    normed = layer_norm(xr + a);  y = layer_norm(normed + relu(affine(normed, ffn)))

where reduce is the stride-r depthwise convolution of the K or V reducer,
and xr is x, or token ``row`` alone when the stage keeps one row (the last
stage of a ``channel`` forward). Its reference is the taped chain
``tests/helpers.py::composed_forward``, which the forward equals bit for bit
in outputs and gradients; only a one-key stage (N <= r, whose one key has
softmax weight exactly 1) skips q, k and the k reducer, which get None, not
zeros.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (Tensor, _affine, _affine_grads, _check_data, _const, _depthwise_conv1d,
                       _depthwise_conv1d_grads, _fold_taps, _layer_norm, _layer_norm_grads, _result, _softmax,
                       _softmax_grad, _state)
from .errors import DimensionError, ParameterError

MULTI_SCALE = "multi_scale"
VANILLA = "vanilla"

DEFAULT_RATIOS = (1.0, 2.0 ** -2, 2.0 ** -4, 2.0 ** -5)

# Most parameter scalars a config may size: 1 GiB of float64. The defaults
# need about 40 thousand; a tiny ratio sizes its reducer kernels by 1 / ratio.
MAX_PARAMETERS = 2 ** 27


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; parameter shapes follow from these.

    ``ratios`` holds one scaling ratio in (0, 1] per stage, so it sets the
    stage count too: ``stages`` is ``len(ratios)``, derived, not passed.
    Stage i reduces its K/V token count by ``round(1 / ratios[i])``.
    ``vanilla`` mode forces every effective reduction factor to 1. A config
    whose :func:`param_count` exceeds ``MAX_PARAMETERS`` is rejected.
    """

    n_variates: int
    lookback: int
    horizon: int
    width: int = 16
    stages: int = field(init=False)
    ratios: tuple = DEFAULT_RATIOS
    heads: int = 1
    mode: str = MULTI_SCALE
    eps: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        object.__setattr__(self, "stages", len(self.ratios))
        if self.n_variates < 1 or self.lookback < 1 or self.horizon < 1:
            raise ParameterError(
                f"n_variates, lookback and horizon must be >= 1, got "
                f"{self.n_variates}, {self.lookback}, {self.horizon}"
            )
        if self.width < 1 or not self.ratios:
            raise ParameterError(f"need width >= 1 and at least one stage ratio, got {self.width}, {self.ratios}")
        for r in self.ratios:
            if not (0.0 < r <= 1.0 and math.isfinite(1.0 / r)):  # subnormal r: round(1 / r) overflows
                raise ParameterError(f"ratios must lie in (0, 1] with a finite 1 / ratio, got {r}")
        if self.heads < 1 or self.width % self.heads != 0:
            raise ParameterError(f"heads ({self.heads}) must divide width ({self.width})")
        if self.mode not in (MULTI_SCALE, VANILLA):
            raise ParameterError(f"mode must be '{MULTI_SCALE}' or '{VANILLA}', got {self.mode!r}")
        if not self.eps > 0.0:  # NaN fails too
            raise ParameterError(f"eps must be positive, got {self.eps}")
        count = param_count(self)
        if count > MAX_PARAMETERS:
            raise ParameterError(f"this config needs {count} parameter scalars, more than "
                                 f"MAX_PARAMETERS = {MAX_PARAMETERS} (1 GiB of float64)")

    @property
    def reduction_factors(self) -> tuple:
        """Integer K/V reduction factor per stage (all 1 in vanilla mode)."""
        if self.mode == VANILLA:
            return (1,) * self.stages
        return tuple(round(1.0 / r) for r in self.ratios)


def param_shapes(config: ModelConfig) -> list:
    """(name, shape) of every parameter in declared (checkpoint) order: the one
    layout table, by which :func:`_param_views` splits a flat parameter vector."""
    d = config.width
    layers = [("embed.weight", config.lookback, d)]
    for i, r in enumerate(config.reduction_factors):
        layers += [(f"stage{i}.{name}.weight", d, d) for name in ("q", "k", "v")]
        layers += [(f"stage{i}.{name}.kernel", r, d) for name in ("k_reduce", "v_reduce")]
        layers += [(f"stage{i}.{name}.weight", d, d) for name in ("out", "ffn")]
    layers.append(("project.weight", d, config.horizon))
    shapes = []
    for name, rows, cols in layers:
        shapes += [(name, (rows, cols)), (name.rpartition(".")[0] + ".bias", (cols,))]
    return shapes


def param_count(config: ModelConfig) -> int:
    """Scalar count of :func:`param_shapes`; must equal any checkpoint payload."""
    return sum(math.prod(shape) for _, shape in param_shapes(config))


def _param_views(config: ModelConfig, theta: np.ndarray) -> list:
    """(name, C-contiguous view) of every parameter in the flat vector ``theta``, in declared order."""
    shapes = param_shapes(config)
    ends = np.cumsum([math.prod(shape) for _, shape in shapes])
    return [(name, part.reshape(shape)) for (name, shape), part in zip(shapes, np.split(theta, ends[:-1]))]


class TSTransformerModel:
    """Stacked encoder over variate tokens with per-stage K/V reduction.

    Parameters are created from a seeded generator: affine weights are
    uniform in +-sqrt(1/fan_in) with zero biases, and reducer kernels
    start as averaging filters (entries 1/r, zero bias) so a stage with
    factor 1 begins as an exact identity on K/V. :meth:`from_arrays` builds a
    model from given parameter values instead, drawing nothing.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self._layout(config)
        rng = np.random.default_rng(seed)
        for name, p in self._params.items():  # weights draw from rng in table order; biases stay zero
            if name.endswith(".weight"):
                bound = math.sqrt(1.0 / p.shape[0])  # shape[0] is the fan-in
                p.data[...] = rng.uniform(-bound, bound, size=p.shape)
            elif name.endswith(".kernel"):  # reducer kernels average over their r rows
                p.data[...] = 1.0 / p.shape[0]

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays) -> "TSTransformerModel":
        """A model whose parameters are copies of ``arrays`` (declared order),
        built without a random initialisation."""
        model = object.__new__(cls)
        model._layout(config)
        arrays = list(arrays)
        if len(arrays) != len(model._params):
            raise ParameterError(f"expected {len(model._params)} parameter arrays, got {len(arrays)}")
        for (name, p), arr in zip(model._params.items(), arrays):
            if np.shape(arr) != p.shape:
                raise ParameterError(f"parameter {name!r} expects shape {p.shape}, got {np.shape(arr)}")
            p.data[...] = arr
        return model

    def _layout(self, config: ModelConfig) -> None:
        """Zero parameters, each a view of one flat vector in declared (checkpoint) order."""
        self.config = config
        self._theta = np.zeros(param_count(config))  # at most MAX_PARAMETERS, which the config checked
        views = _param_views(config, self._theta)
        self._params = {name: Tensor._wrap(view, True) for name, view in views}
        # each stage's parameters, which _fuse_stages builds from: views of the vector
        self._stage_arrays = tuple(tuple(view for name, view in views if name.startswith(f"stage{i}."))
                                   for i in range(config.stages))

    def _fuse_stages(self) -> tuple:
        """The embed and head biases, then every stage's :func:`_fuse_stage` for
        the M-token forward, built from the parameters as they are now, each
        bias a read-only copy at the rows of the unbatched output it is added to."""
        m, factors = self.config.n_variates, self.config.reduction_factors
        return (_at_rows(self._params["embed.bias"].data, m), _at_rows(self._params["project.bias"].data, m),
                tuple(_fuse_stage(arrays, r, m) for arrays, r in zip(self._stage_arrays, factors)))

    # -- parameter access ---------------------------------------------------

    def named_parameters(self) -> list:
        """(name, tensor) pairs in declared (checkpoint) order."""
        return list(self._params.items())

    def parameters(self) -> list:
        return list(self._params.values())

    def param(self, name: str) -> Tensor:
        return self._params[name]

    def parameter_count(self) -> int:
        return self._theta.size

    def load_arrays(self, arrays) -> None:
        """Overwrite parameters from arrays given in declared order, all checked before any is written."""
        self._theta[...] = self.from_arrays(self.config, arrays)._theta

    def forward(self, window, channel: int | None = None, *, _build: tuple | None = None) -> Tensor:
        """(lookback, n_variates) -> (n_variates, horizon) forecast.

        A leading batch axis is accepted: (B, lookback, n_variates) yields
        (B, n_variates, horizon). With ``channel`` set, the last stage keeps
        only that variate's token (its K and V still read every token), so
        the shape is (..., 1, horizon): the same maths as that row of the
        full output, though a one-row product may round a few ulps apart.

        Each variate is centred on its own window mean before embedding and
        the forecast adds that mean back, so the network models movement
        relative to the window while the level rides the window statistic.

        Under ``autodiff.no_grad()`` it records nothing; outside it records
        one graph node over every parameter, and ``autodiff.backward`` drops
        the gradients of frozen ones. Outputs and gradients equal the
        reference chain's as the module docstring states. ``_build`` is a
        :meth:`_fuse_stages` build of the current parameters, which a caller
        running many forwards on unchanged parameters makes once; when None,
        the forward builds its own from the parameters as they are now.
        """
        cfg = self.config
        arr = window.data if isinstance(window, Tensor) else np.asarray(window, dtype=np.float64)
        self._check_window(arr.shape)
        if channel is not None and not 0 <= channel < cfg.n_variates:
            raise ParameterError(f"channel {channel} out of range [0, {cfg.n_variates})")
        _check_data(arr)  # before centring, which would compute inf - inf
        with np.errstate(over="ignore"):  # a finite window's sum can overflow; the check below raises
            mu = np.add.reduce(arr, axis=-2, keepdims=True)  # (..., 1, M) window mean
            mu /= _const(arr.shape[-2])
            centered = arr - mu
        _check_data(centered)
        mu_rows = mu.swapaxes(-1, -2)  # (..., M, 1)
        we, wp = self._params["embed.weight"].data, self._params["project.weight"].data
        be, bp, built = self._fuse_stages() if _build is None else _build
        xt = np.ascontiguousarray(centered.swapaxes(-1, -2))  # (..., M, lookback)
        x = _affine(xt, we, be)
        recording = _state.recording
        rows = [None] * (cfg.stages - 1) + [channel]  # the last stage runs on the asked-for row alone
        stages = []  # each stage's input, build, row and saved state, kept only for the backward
        for stage, row in zip(built, rows):
            y, saved = _stage_forward(x, stage, cfg.heads, cfg.eps, row)
            if recording:
                stages.append((x, stage, row, saved))
            x = y
        if channel is not None:
            mu_rows, bp = mu_rows[..., channel : channel + 1, :], bp[channel : channel + 1]
        out = _affine(x, wp, bp)
        out += mu_rows  # the same adds as the mean repeated to (..., rows, horizon)
        if not recording:
            return Tensor._wrap(out, False)

        def grad_fn(g):
            g, *grads = _affine_grads(g, x, wp, True)
            for xi, stage, row, saved in reversed(stages):
                g, *stage_grads = _stage_backward(g, xi, stage, saved, cfg.heads, row)
                grads[:0] = stage_grads
            return [*_affine_grads(g, xt, we, False)[1:], *grads]

        return _result(out, self.parameters(), grad_fn)

    def _check_window(self, shape: tuple) -> None:
        cfg = self.config
        if len(shape) < 2 or shape[-2:] != (cfg.lookback, cfg.n_variates):
            raise DimensionError(f"window shape {shape} does not end in "
                                 f"(lookback={cfg.lookback}, n_variates={cfg.n_variates})")


# ---------------------------------------------------------------------------
# encoder stage (array code of the forward node)


def _at_rows(b: np.ndarray, rows: int) -> np.ndarray:
    """Read-only (rows, n) copy of the bias b (n,): the same adds over ``rows``
    rows as b broadcast, with an operand of the output's shape."""
    out = b[None, :].repeat(rows, axis=0)
    out.flags.writeable = False
    return out


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., rows, D) -> (..., H, rows, D / H); one head is ``a`` itself, with
    no head axis: each product then meets the same (rows, D) matrices, so it
    rounds the same, without a reshape and swap per array."""
    if heads == 1:
        return a
    return a.reshape(*a.shape[:-1], heads, a.shape[-1] // heads).swapaxes(-3, -2)


def _merge_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., H, rows, hd) -> (..., rows, H * hd), the inverse of _split_heads,
    C-ordered as a primitive's output is: at hd = 1 a merged view sums its
    rows in another order in a product or a reduction."""
    if heads == 1:
        return a
    return np.ascontiguousarray(a.swapaxes(-3, -2).reshape(*a.shape[:-3], a.shape[-2], heads * a.shape[-1]))


def _attention(q, k, v, heads):
    """softmax(q k^T / sqrt(hd)) v per head on arrays, q (..., N, D) and k, v
    (..., J, D), head h on last-axis block h of width hd = D / heads: the
    (..., N, D) output and what :func:`_attention_grads` needs."""
    qh, vh = _split_heads(q, heads), _split_heads(v, heads)
    # contiguous like a transposed tensor's data, so scores equal a matmul with it bit for bit
    kt = np.ascontiguousarray(_split_heads(k, heads).swapaxes(-1, -2))
    c = _const(1.0 / math.sqrt(q.shape[-1] // heads))
    scores = qh @ kt
    scores *= c
    p = _softmax(scores)
    return _merge_heads(p @ vh, heads), (qh, kt, vh, p, c, heads)


def _attention_grads(g, qh, kt, vh, p, c, heads):
    gh = _split_heads(g, heads)
    gs = _softmax_grad(p, gh @ vh.swapaxes(-1, -2)) * c
    gq = _merge_heads(gs @ kt.swapaxes(-1, -2), heads)
    gk = _merge_heads((qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2), heads)
    gv = _merge_heads(p.swapaxes(-1, -2) @ gh, heads)
    return gq, gk, gv


def _single_key_grads(g, heads):
    """:func:`_attention_grads`'s v gradient for one key (softmax weight
    exactly 1): each head's n row gradients summed in its order, bit for bit."""
    return _merge_heads(np.ones((1, g.shape[-2])) @ _split_heads(g, heads), heads)


# One stage built for n tokens by _fuse_stage: all that _stage_forward and
# _stage_backward read, the parameters as they are and the joined arrays.
_Stage = collections.namedtuple("_Stage", "r wq bq wk wv wo wf w b kernel kernel_b bo bf")


def _fuse_stage(arrays, r, n):
    """The :data:`_Stage` that :func:`_stage_forward` runs n tokens on, from the
    stage's 14 parameters in :func:`param_shapes` order. w, b, kernel and
    kernel_b are the (D, 3D) [q|k|v] and the (r, 2D) K|V reducer [k|v] with
    their biases when n > r, v's weight and its reducer's taps folded for n
    (:func:`_fold_taps`) when n <= r (one key). Each bias is a read-only copy
    at the rows of the unbatched output it is added to (:func:`_at_rows`), n
    or ceil(n / r); a batch broadcasts over it. They are copies or views:
    build them again after the parameters change."""
    wq, bq, wk, bk, wv, bv, kk, kb, vk, vb, wo, bo, wf, bf = arrays
    if n <= r:
        w, b, kernel, kernel_b = wv, bv, _fold_taps(vk, n), vb
    else:
        w, b = np.concatenate([wq, wk, wv], axis=1), np.concatenate([bq, bk, bv])
        kernel, kernel_b = np.concatenate([kk, vk], axis=1), np.concatenate([kb, vb])
    return _Stage(r, wq, bq, wk, wv, wo, wf, w, _at_rows(b, n), kernel, _at_rows(kernel_b, -(-n // r)),
                  _at_rows(bo, n), _at_rows(bf, n))


def _stage_forward(x, stage, heads, eps, row=None):
    """The stage of the module docstring on tokens x (..., N, D), ``stage``
    its :func:`_fuse_stage` for N tokens: y and what :func:`_stage_backward`
    needs. With ``row`` set y is (..., 1, D): K and V read every token, q,
    out, the layer norms and the FFN run on the kept row alone, with its row
    of their biases. q, k and v come from one product with [q|k|v], or with
    ``row`` set k and v from one with its [k|v] columns and q from the row's
    own product with q (a one-row product may round otherwise than that row
    of an N-row one); one convolution reduces K|V. Each column block of a
    joined product equals its own product under this BLAS, and attention
    reads views of the blocks, so y equals the reference bit for bit, as
    addition commutes exactly. When N <= r the saved convolution is V's
    alone and the saved attention state None."""
    r, wq, bq, _, _, wo, wf, w, b, kernel, kernel_b, bo, bf = stage
    n, d = x.shape[-2:]
    xr = x
    if row is not None:
        xr = np.ascontiguousarray(x[..., row : row + 1, :])
        bo, bf = bo[row : row + 1], bf[row : row + 1]
    if n <= r:
        v_red, conv = _depthwise_conv1d(_affine(x, w, b), kernel, kernel_b)
        att, att_saved = v_red.repeat(xr.shape[-2], axis=-2), None
    else:
        if row is None:
            qkv = _affine(x, w, b)
            q, kv = qkv[..., :d], qkv[..., d:]
        else:
            q, kv = _affine(xr, wq, bq), _affine(x, w[:, d:], b[:, d:])
        kv_red, conv = _depthwise_conv1d(kv, kernel, kernel_b)
        att, att_saved = _attention(q, kv_red[..., :d], kv_red[..., d:], heads)
    a = _affine(att, wo, bo)
    a += xr
    normed, ln1 = _layer_norm(a, eps)
    f = _affine(normed, wf, bf)
    mask = f > _const(0.0)
    h = np.where(mask, f, 0.0)
    h += normed
    out, ln2 = _layer_norm(h, eps)
    return out, (conv, att, att_saved, normed, ln1, mask, ln2)


def _stage_backward(g, x, stage, saved, heads, row=None):
    """Gradients of :func:`_stage_forward` (with the same ``stage`` and
    ``row``) for an output gradient g: x's, then the stage's 14 parameters' in
    :func:`param_shapes` order, all computed (``autodiff.backward`` drops
    those of parameters that need none). A one-key stage's q, k and k reducer
    get None; the rest equal the reference's bit for bit. The K and V
    reducers' gradients come from one pass over the joined K|V block: column
    by column the same sums as each alone. With ``row`` set, the other tokens
    get gradient only through K and V; the kept row's residual and q
    gradients are added to it in the order of the full stage: ((residual +
    v) + k) + q."""
    r, wq, _, wk, wv, wo, wf, *_ = stage
    conv, att, att_saved, normed, ln1, mask, ln2 = saved
    n, d = x.shape[-2:]
    rows = slice(None) if row is None else slice(row, row + 1)
    g2 = _layer_norm_grads(g, *ln2)
    gn, gwf, gbf = _affine_grads(g2 * mask, normed, wf, True)
    g1 = _layer_norm_grads(g2 + gn, *ln1)
    ga, gwo, gbo = _affine_grads(g1, att, wo, True)
    if att_saved is None:
        gvp, gvk, gvb = _depthwise_conv1d_grads(_single_key_grads(ga, heads), conv, r, n)
        gx, gwv, gbv = _affine_grads(gvp, x, wv, True)
        gx[..., rows, :] += g1
        return gx, None, None, None, None, gwv, gbv, None, None, gvk, gvb, gwo, gbo, gwf, gbf
    gq, gk, gv = _attention_grads(ga, *att_saved)
    gkvp, gkvk, gkvb = _depthwise_conv1d_grads(np.concatenate([gk, gv], axis=-1), conv, r, n)
    # composed primitives hand gradients on C-contiguous (backward's first
    # write); a strided view can make matmul sum in another order
    gvp, gkp, gq = (np.ascontiguousarray(a) for a in (gkvp[..., d:], gkvp[..., :d], gq))
    gx, gwv, gbv = _affine_grads(gvp, x, wv, True)
    gx[..., rows, :] += g1
    gxk, gwk, gbk = _affine_grads(gkp, x, wk, True)
    gxq, gwq, gbq = _affine_grads(gq, np.ascontiguousarray(x[..., rows, :]), wq, True)
    gx += gxk
    gx[..., rows, :] += gxq
    return gx, gwq, gbq, gwk, gbk, gwv, gbv, gkvk[:, :d], gkvb[:d], gkvk[:, d:], gkvb[d:], gwo, gbo, gwf, gbf
