"""Dense float64 tensors with graph-based reverse-mode differentiation.

Everything runs at 64-bit precision so finite-difference gradient checks
can be held to tight tolerances. The op set is exactly what the
forecasting model needs: matrix products, affine maps, ReLU, last-axis
softmax, multi-head scaled dot-product attention, per-slice layer
normalization, strided depthwise 1-D convolution, elementwise arithmetic,
slicing and scalar reductions. For the model's one-node forward,
``_stage_forward`` and ``_stage_backward`` run a whole encoder stage on arrays
from those primitives' numpy helpers; only they skip work: a one-key stage's
q and k, and, given the one token row to keep, every other row's q, out
projection, layer norms and FFN. On the rollout's small arrays each numpy call
costs about a microsecond of dispatch, so the helpers call ``np.add.reduce``
and ``np.maximum.reduce`` directly, the same reductions as ``.sum`` and ``.max``
without numpy's Python wrappers around them.

Ops accept leading batch axes (a stack of matrices behaves like one
matrix per stack entry); the documented 2-D behaviour is unchanged.
General numpy-style broadcasting is intentionally not supported.

A recorded op's output holds its node ``(seq, inputs, grad_fn)``, ``seq``
counting nodes in execution order, so a discarded forward frees its graph;
:func:`backward` runs the loss's nodes in descending ``seq``. A node's
``grad_fn`` returns a gradient for every input: only ``_result`` (whether to
record) and :func:`backward` (whether to store) read ``requires_grad``.
Tensors are immutable after construction except for ``grad``, which is
replaced, never written; optimizers that update parameters in place must own
the model exclusively.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading

import numpy as np

from .errors import ContractError, DimensionError, ParameterError


class Tensor:
    """Dense n-dimensional float64 array, optionally tracked for gradients.

    ``data`` is a C-contiguous (row-major) float64 array. ``grad`` is
    ``None`` until :func:`backward` populates it; it then has the same
    shape as ``data`` and accumulates additively across consumers, into a
    new array each time. ``_node`` is the op that produced a recorded tensor.
    Scalars are represented with shape ``(1,)``; zero-sized axes are
    rejected. All elements must be finite.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim == 0:
            arr = arr.reshape(1)
        self.data = _check_data(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        # Internal fast path for op outputs; their finiteness is not checked.
        t = object.__new__(cls)
        t.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        t.requires_grad = requires_grad
        t.grad = None
        t._node = None
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _check_data(arr: np.ndarray) -> np.ndarray:
    """``arr`` if it is valid tensor data: positive extents, all finite."""
    if arr.size == 0:
        raise DimensionError(f"tensor extents must be positive, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("tensor data must be finite (no NaN/Inf)")
    return arr


class _State(threading.local):
    def __init__(self):
        self.recording = True


_state = _State()
_seq = itertools.count()
_CONSUMED = object()  # the _node of a tensor whose node a backward has run


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / FD probes)."""
    prev = _state.recording
    _state.recording = False
    try:
        yield
    finally:
        _state.recording = prev


def zero_grad(tensors) -> None:
    """Drop accumulated gradients on the given tensors."""
    for t in tensors:
        t.grad = None


def _result(arr, inputs, grad_fn) -> Tensor:
    requires = _state.recording and any(t.requires_grad for t in inputs)
    out = Tensor._wrap(arr, requires)
    if requires:
        out._node = (next(_seq), inputs, grad_fn)
    return out


def _reduce_leading(g: np.ndarray, shape: tuple) -> np.ndarray:
    # Sum out leading stack axes introduced by batched inputs.
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add requires equal shapes, got {a.shape} and {b.shape}")
    return _result(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub requires equal shapes, got {a.shape} and {b.shape}")
    return _result(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul requires equal shapes, got {a.shape} and {b.shape}")
    return _result(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(a.data * c, (a,), lambda g: (g * c,))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    return _result(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.data.ndim < 2:
        raise DimensionError(f"transpose requires >= 2 axes, got shape {x.shape}")
    return _result(
        np.ascontiguousarray(x.data.swapaxes(-1, -2)),
        (x,),
        lambda g: (g.swapaxes(-1, -2),),
    )


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
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

    return _result(out, (x,), grad_fn)


def sum_all(x: Tensor) -> Tensor:
    return _result(
        np.array([x.data.sum()]),
        (x,),
        lambda g: (np.full_like(x.data, g[0]),),
    )


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    return _result(
        np.array([x.data.mean()]),
        (x,),
        lambda g: (np.full_like(x.data, g[0] / n),),
    )


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a[m,k] @ b[k,n] -> [m,n]; stacks share leading axes."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise DimensionError(f"matmul requires matrices, got shapes {a.shape} x {b.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    if ad.ndim > 2 and bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise DimensionError(f"matmul stack axes differ: {a.shape} x {b.shape}")

    def grad_fn(g):
        return (_reduce_leading(g @ bd.swapaxes(-1, -2), ad.shape),
                _reduce_leading(ad.swapaxes(-1, -2) @ g, bd.shape))

    return _result(ad @ bd, (a, b), grad_fn)


def _affine(x, w, b):
    """Forward of :func:`affine` on arrays: x @ w, then b added in place, which
    is the same IEEE add as ``x @ w + b`` without a second full-size array.

    An x with leading axes is multiplied as one (rows, k) @ (k, n) product
    over all its rows, not as a stack that numpy runs as one small BLAS call
    per leading index. A 1-D or 2-D x, as in the unbatched rollout, is the
    plain ``x @ w``: the same product without the two reshapes, whose Python
    cost slowed the rollout's forecast by about 7 %."""
    if x.ndim > 2:
        out = (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])
    else:
        out = x @ w
    out += b
    return out


def _affine_grads(g, x, w, want_x):
    """Gradients (x, w, b) of x @ w + b for an output gradient g, x's only if
    ``want_x``. Each is one 2-D product or sum over all rows of g, so an x
    with leading axes gets ``g.reshape(-1, n) @ w.T`` reshaped back, not a
    stack of per-window products."""
    k, n = w.shape
    g2 = g.reshape(-1, n)
    gx = (g2 @ w.T).reshape(*g.shape[:-1], k) if want_x else None
    return gx, x.reshape(-1, k).T @ g2, g2.sum(axis=0)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[..., k] @ w[k, n] + b[n], broadcast over leading axes of x."""
    if w.data.ndim != 2 or b.data.ndim != 1:
        raise DimensionError(f"affine expects 2-D weight and 1-D bias, got {w.shape}, {b.shape}")
    if x.data.shape[-1] != w.data.shape[0]:
        raise DimensionError(f"affine inner extents differ: x {x.shape} vs w {w.shape}")
    if w.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"affine bias width {b.shape} does not match weight {w.shape}")
    return _result(
        _affine(x.data, w.data, b.data),
        (x, w, b),
        lambda g: _affine_grads(g, x.data, w.data, True),
    )


# ---------------------------------------------------------------------------
# normalizations and convolution


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    return y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))


def softmax_last(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    y = _softmax(x.data)
    return _result(y, (x,), lambda g: (_softmax_grad(y, g),))


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., rows, D) -> (..., H, rows, D / H); one head is ``a`` itself, with
    no head axis: each product then meets the same (rows, D) matrices, so it
    rounds the same, without a reshape and swap per array."""
    if heads == 1:
        return a
    *lead, rows, d = a.shape
    return a.reshape(*lead, rows, heads, d // heads).swapaxes(-3, -2)


def _merge_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., H, rows, hd) -> (..., rows, H * hd), the inverse of _split_heads."""
    if heads == 1:
        return a
    *lead, _, rows, hd = a.shape
    return a.swapaxes(-3, -2).reshape(*lead, rows, heads * hd)


def _attention(q, k, v, heads):
    """Forward of :func:`attention` on arrays: the output and what its backward needs."""
    qh, vh = _split_heads(q, heads), _split_heads(v, heads)
    # contiguous like transpose()'s output, so scores equal matmul(q, transpose(k)) bit for bit
    kt = np.ascontiguousarray(_split_heads(k, heads).swapaxes(-1, -2))
    c = 1.0 / math.sqrt(q.shape[-1] // heads)
    p = _softmax((qh @ kt) * c)
    return _merge_heads(p @ vh, heads), (qh, kt, vh, p, c, heads)


def _attention_grads(g, qh, kt, vh, p, c, heads):
    gh = _split_heads(g, heads)
    gs = _softmax_grad(p, gh @ vh.swapaxes(-1, -2)) * c
    gq = _merge_heads(gs @ kt.swapaxes(-1, -2), heads)
    gk = _merge_heads((qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2), heads)
    gv = _merge_heads(p.swapaxes(-1, -2) @ gh, heads)
    return gq, gk, gv


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """softmax(q k^T / sqrt(hd)) v per head, for q (..., N, D) and k, v (..., J, D).

    Head h attends with last-axis block h of width hd = D / heads; the
    (..., N, D) output holds the head results side by side.
    """
    if (q.data.ndim < 2 or k.data.ndim != q.data.ndim or k.shape != v.shape
            or k.shape[:-2] != q.shape[:-2] or k.shape[-1] != q.shape[-1]):
        raise DimensionError(f"attention expects q (..., N, D) and k, v (..., J, D), "
                             f"got {q.shape}, {k.shape}, {v.shape}")
    d = q.shape[-1]
    if heads < 1 or d % heads:
        raise DimensionError(f"heads ({heads}) must divide the model width ({d})")
    out, saved = _attention(q.data, k.data, v.data, heads)
    return _result(out, (q, k, v), lambda g: _attention_grads(g, *saved))


def _single_key_grads(g, heads):
    """:func:`attention`'s v gradient for one key (softmax weight exactly 1):
    each head's n row gradients summed in attention's order, bit for bit."""
    n = g.shape[-2]
    return _merge_heads(np.ones((1, n)) @ _split_heads(g, heads), heads)


def _layer_norm(z, eps):
    """Forward of :func:`layer_norm` on arrays: the output and what its backward needs."""
    n = z.shape[-1]
    c = z - np.add.reduce(z, axis=-1, keepdims=True) / n
    sigma = np.sqrt(np.add.reduce(c * c, axis=-1, keepdims=True) / n)
    s = sigma + eps
    return c / s, (c, sigma, s)


def _layer_norm_grads(g, c, sigma, s):
    n = c.shape[-1]
    inv_s = 1.0 / s
    # d sigma / d c_j = c_j / (n * sigma); zero at exactly-constant slices
    coef = np.where(sigma > 0.0, inv_s * inv_s / (n * np.where(sigma > 0.0, sigma, 1.0)), 0.0)
    gc = g * inv_s - c * (np.add.reduce(g * c, axis=-1, keepdims=True) * coef)
    return gc - np.add.reduce(gc, axis=-1, keepdims=True) / n


def layer_norm(z: Tensor, eps: float = 1e-5) -> Tensor:
    """(z - mean) / (population std + eps), per last-axis slice.

    Constant slices map to zeros through the eps guard instead of
    dividing by zero.
    """
    eps = float(eps)
    if eps <= 0.0:
        raise ParameterError(f"layer_norm eps must be positive, got {eps}")
    y, saved = _layer_norm(z.data, eps)
    return _result(y, (z,), lambda g: (_layer_norm_grads(g, *saved),))


@functools.lru_cache(maxsize=256)
def _pad_index(n: int, rows: int) -> np.ndarray:
    """Read-only row index that edge-pads n rows to ``rows``: 0 .. n-1, then
    n-1 repeated; one ``take`` over it builds the padded input."""
    index = np.minimum(np.arange(rows), n - 1)
    index.flags.writeable = False
    return index


def _depthwise_conv1d(x, kernel, bias):
    """Forward of :func:`depthwise_conv1d` on arrays: the output and what the
    backward needs, the input as (..., J, r', D) blocks and the (r', D) taps
    they meet. That is the edge-padded input and the kernel (r' = r), except
    when the whole token axis is one partial block (N < r): then the padding
    is not built, and the N real rows meet N taps (r' = N), the last of which
    is kernel rows N-1 .. r-1 summed, the rows the replicated last token meets."""
    r, d = kernel.shape
    n = x.shape[-2]
    if n < r:
        taps = np.concatenate([kernel[: n - 1], np.add.reduce(kernel[n - 1 :], axis=0, keepdims=True)])
        xr = x[..., None, :, :]
    else:
        taps = kernel
        j = -(-n // r)  # ceil
        if j * r > n:
            x = x.take(_pad_index(n, j * r), axis=-2)
        xr = x.reshape(x.shape[:-2] + (j, r, d))
    return np.add.reduce(xr * taps, axis=-2) + bias, (xr, taps)


def _depthwise_conv1d_grads(g, saved, r, n):
    """Gradients (x, kernel, bias) of :func:`_depthwise_conv1d` for an output
    gradient g; ``r`` is the kernel's row count and ``n`` x's token count. For
    folded taps, kernel rows N-1 .. r-1 each get the last tap's gradient: the
    same sum each of them gets from the padded blocks."""
    xr, taps = saved
    *lead, j, rb, d = xr.shape
    gk = np.add.reduce((xr * g[..., :, None, :]).reshape(-1, rb, d), axis=0)
    if rb < r:
        gk = np.concatenate([gk, np.repeat(gk[-1:], r - rb, axis=0)])
    gb = np.add.reduce(g.reshape(-1, d), axis=0)
    gxp = (g[..., :, None, :] * taps).reshape(*lead, j * rb, d)
    gx = np.ascontiguousarray(gxp[..., :n, :])
    if j * rb > n:
        gx[..., n - 1, :] += np.add.reduce(gxp[..., n:, :], axis=-2)
    return gx, gk, gb


def depthwise_conv1d(x: Tensor, kernel: Tensor, bias: Tensor, reduction: int) -> Tensor:
    """Per-channel strided convolution shrinking the token axis by ``reduction``.

    ``x`` has shape (..., N, D); ``kernel`` is (r, D) with one length-r
    filter per channel and stride r; ``bias`` is (D,). The input is
    right-padded with edge replication to a multiple of r, so the output
    has ceil(N / r) tokens; for N < r that padding is folded into the last
    tap, not built. ``reduction=1`` degenerates to a per-channel scalar
    affine map.
    """
    r = int(reduction)
    if r < 1:
        raise ParameterError(f"reduction factor must be >= 1, got {reduction}")
    if x.data.ndim < 2:
        raise DimensionError(f"depthwise_conv1d expects (..., N, D), got shape {x.shape}")
    d = x.data.shape[-1]
    if kernel.shape != (r, d):
        raise DimensionError(f"kernel shape {kernel.shape} does not match (r={r}, D={d})")
    if bias.shape != (d,):
        raise DimensionError(f"bias shape {bias.shape} does not match (D={d},)")
    out, saved = _depthwise_conv1d(x.data, kernel.data, bias.data)
    n = x.data.shape[-2]
    return _result(out, (x, kernel, bias), lambda g: _depthwise_conv1d_grads(g, saved, r, n))


# ---------------------------------------------------------------------------
# encoder stage (array helpers for the model's forward node)


def _stage_forward(x, arrays, r, heads, eps, row=None):
    """A post-norm encoder stage on tokens x (..., N, D): y and what
    :func:`_stage_backward` needs. ``arrays`` are the stage's 14 parameters in
    checkpoint order (q, k, v, k and v reducers, out, ffn); reduce is the
    stride-r :func:`depthwise_conv1d`. y equals the primitives' chain bit for bit:

        a = affine(attention(affine(xr, q), reduce(affine(x, k)), reduce(affine(x, v))), out)
        normed = layer_norm(xr + a);  y = layer_norm(normed + relu(affine(normed, ffn)))

    where xr is x, or with ``row`` set only token ``row`` (``slice_axis``), so
    y is (..., 1, D): K and V read every token, q, out, the layer norms and
    the FFN run on the kept row alone. When N <= r K/V reduce to one key,
    whose softmax weight is exactly 1: q, k and the k reducer are skipped and
    their saved entries are None."""
    wq, bq, wk, bk, wv, bv, kk, kb, vk, vb, wo, bo, wf, bf = arrays
    n = x.shape[-2]
    xr = x if row is None else np.ascontiguousarray(x[..., row : row + 1, :])
    v_red, v_conv = _depthwise_conv1d(_affine(x, wv, bv), vk, vb)
    if n <= r:
        att, k_conv, att_saved = v_red.repeat(xr.shape[-2], axis=-2), None, None
    else:
        k_red, k_conv = _depthwise_conv1d(_affine(x, wk, bk), kk, kb)
        att, att_saved = _attention(_affine(xr, wq, bq), k_red, v_red, heads)
    normed, ln1 = _layer_norm(xr + _affine(att, wo, bo), eps)
    f = _affine(normed, wf, bf)
    mask = f > 0.0
    out, ln2 = _layer_norm(normed + np.where(mask, f, 0.0), eps)
    return out, (v_conv, k_conv, att, att_saved, normed, ln1, mask, ln2)


def _stage_backward(g, x, arrays, saved, heads, row=None):
    """Gradients of :func:`_stage_forward` (with the same ``row``) for an
    output gradient g: x's, then the 14 arrays', all computed (:func:`backward`
    drops those of arrays that need none). A one-key stage's q, k and k reducer
    get None (exact zeros in the primitives' chain); the rest equal that
    chain's bit for bit. With ``row`` set, the other tokens get gradient only
    through K and V; the kept row's residual and q gradients are added to it
    in the order of the full stage: ((residual + v) + k) + q."""
    wq, _, wk, _, wv, _, kk, _, vk, _, wo, _, wf, _ = arrays
    v_conv, k_conv, att, att_saved, normed, ln1, mask, ln2 = saved
    n = x.shape[-2]
    rows = slice(None) if row is None else slice(row, row + 1)
    g2 = _layer_norm_grads(g, *ln2)
    gn, gwf, gbf = _affine_grads(g2 * mask, normed, wf, True)
    g1 = _layer_norm_grads(g2 + gn, *ln1)
    ga, gwo, gbo = _affine_grads(g1, att, wo, True)
    # composed primitives hand gradients on C-contiguous (backward's first
    # write); a strided view can make matmul sum in another order
    if k_conv is None:
        gv = _single_key_grads(ga, heads)
    else:
        gq, gk, gv = (np.ascontiguousarray(a) for a in _attention_grads(ga, *att_saved))
    gvp, gvk, gvb = _depthwise_conv1d_grads(gv, v_conv, len(vk), n)
    gx, gwv, gbv = _affine_grads(gvp, x, wv, True)
    gx[..., rows, :] += g1
    if k_conv is None:
        return gx, None, None, None, None, gwv, gbv, None, None, gvk, gvb, gwo, gbo, gwf, gbf
    gkp, gkk, gkb = _depthwise_conv1d_grads(gk, k_conv, len(kk), n)
    gxk, gwk, gbk = _affine_grads(gkp, x, wk, True)
    gxq, gwq, gbq = _affine_grads(gq, np.ascontiguousarray(x[..., rows, :]), wq, True)
    gx += gxk
    gx[..., rows, :] += gxq
    return gx, gwq, gbq, gwk, gbk, gwv, gbv, gkk, gkb, gvk, gvb, gwo, gbo, gwf, gbf


# ---------------------------------------------------------------------------
# differentiation


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor that influenced the scalar loss.

    Each node of the loss's graph runs once; a backward that reaches a run
    node raises a ContractError before writing any gradient. Gradients
    accumulate additively, so callers must :func:`zero_grad` their
    parameters between steps. Inputs that get no gradient (constants) keep
    ``grad=None``, which downstream consumers treat as zero.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        shape = loss.shape if isinstance(loss, Tensor) else type(loss)
        raise ContractError(f"backward requires a scalar taped tensor, got {shape}")
    if loss._node is None:
        raise ContractError("loss was not produced by taped primitives")
    graph, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if t._node is _CONSUMED:
            raise ContractError("the loss's graph was already consumed by a backward")
        if t._node is not None and t not in graph:
            graph.add(t)
            stack.extend(t._node[1])
    # an op's inputs existed before it ran, so descending seq is a topological order
    order = sorted(graph, key=lambda t: t._node[0], reverse=True)
    try:
        loss.grad = np.ones_like(loss.data)
        for out in order:
            if out.grad is not None:
                _, inputs, grad_fn = out._node
                for t, g in zip(inputs, grad_fn(out.grad)):
                    if g is not None and t.requires_grad:  # first write in C layout
                        t.grad = np.ascontiguousarray(g) if t.grad is None else t.grad + g
    finally:
        for out in order:
            out._node = _CONSUMED


def gradient_check(f, params, h: float = 1e-5) -> float:
    """Max relative error between autodiff and central finite differences.

    ``f`` must be a deterministic zero-argument callable returning a
    scalar Tensor built from taped primitives over ``params``. Every
    parameter coordinate is probed with a symmetric step ``h``; the
    relative error denominator is max(|analytic|, |numeric|, sqrt(eps) |f| / h),
    f the loss at ``params``: the central difference's roundoff, about
    eps |f| / h, is sqrt(eps) of that floor, so an exactly-zero gradient reads
    about sqrt(eps).
    """
    h = float(h)
    if not (1e-6 <= h <= 1e-3):
        raise ParameterError(f"step h must lie in [1e-6, 1e-3], got {h}")
    params = list(params)
    zero_grad(params)
    loss = f()
    backward(loss)
    fi = np.finfo(np.float64)
    floor = max(math.sqrt(fi.eps) * abs(loss.item()) / h, fi.tiny)  # tiny: 0 / 0 reads 0, not NaN
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]
    max_rel = 0.0
    with no_grad():
        for p, a in zip(params, analytic):
            flat = p.data.reshape(-1)
            aflat = a.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = f().item()
                flat[i] = orig - h
                fm = f().item()
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * h)
                denom = max(abs(aflat[i]), abs(numeric), floor)
                max_rel = max(max_rel, abs(aflat[i] - numeric) / denom)
    zero_grad(params)
    return max_rel
