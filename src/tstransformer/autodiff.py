"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything runs at 64-bit precision so finite-difference gradient checks
can be held to tight tolerances. The op set is exactly what the
forecasting model needs: matrix products, affine maps, ReLU, last-axis
softmax, multi-head scaled dot-product attention, per-slice layer
normalization, strided depthwise 1-D convolution, elementwise arithmetic,
slicing and scalar reductions, plus :func:`encoder_stage`, one node for a
whole encoder stage (the only code that skips work for a one-key stage),
built from the same private numpy helpers as those primitives.

Ops accept leading batch axes (a stack of matrices behaves like one
matrix per stack entry); the documented 2-D behaviour is unchanged.
General numpy-style broadcasting is intentionally not supported.

The tape is a thread-local list of ``(out, inputs, grad_fn)`` entries in
execution order, replayed strictly in reverse by :func:`backward`.
Tensors are immutable after construction except for ``grad``
population; optimizers that update parameters in place must own the
model exclusively.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

from .errors import ContractError, DimensionError, NumericalError, ParameterError


class Tensor:
    """Dense n-dimensional float64 array, optionally tracked for gradients.

    ``data`` is a C-contiguous (row-major) float64 array. ``grad`` is
    ``None`` until :func:`backward` populates it; it then has the same
    shape as ``data`` and accumulates additively across consumers.
    Scalars are represented with shape ``(1,)``; zero-sized axes are
    rejected. All elements must be finite.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim == 0:
            arr = arr.reshape(1)
        self.data = _check_data(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        # Internal fast path for op outputs; finiteness enforced only in
        # debug mode (see set_debug_checks).
        t = object.__new__(cls)
        t.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        t.requires_grad = requires_grad
        t.grad = None
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
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor data must be finite (no NaN/Inf)")
    return arr


class _State(threading.local):
    def __init__(self):
        self.tape = []
        self.recording = True
        self.debug_checks = False


_state = _State()


def set_debug_checks(enabled: bool) -> None:
    """Toggle per-primitive finiteness checks (off by default)."""
    _state.debug_checks = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / FD probes)."""
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
    if _state.debug_checks and not np.all(np.isfinite(out.data)):
        raise NumericalError("primitive produced non-finite values")
    if requires:
        _state.tape.append((out, inputs, grad_fn))
    return out


def _accumulate(t: Tensor, g, shared: bool) -> None:
    if g is None or not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif shared or g.base is not None or not g.flags.c_contiguous:
        # a copy in t's C layout, since later writes accumulate into grad in
        # place: a shared array or a view would carry them to its other holders
        t.grad = g.copy()
    else:
        t.grad = g  # a fresh array no one else holds


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
    return _result(a.data - b.data, (a, b),
                   lambda g: (g if a.requires_grad else None, -g if b.requires_grad else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul requires equal shapes, got {a.shape} and {b.shape}")
    return _result(a.data * b.data, (a, b),
                   lambda g: (g * b.data if a.requires_grad else None, g * a.data if b.requires_grad else None))


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
        ga = gb = None
        if a.requires_grad:
            ga = _reduce_leading(g @ bd.swapaxes(-1, -2), ad.shape)
        if b.requires_grad:
            gb = _reduce_leading(ad.swapaxes(-1, -2) @ g, bd.shape)
        return ga, gb

    return _result(ad @ bd, (a, b), grad_fn)


def _affine(x, w, b):
    """Forward of :func:`affine` on arrays: x @ w, then b added in place, which
    is the same IEEE add as ``x @ w + b`` without a second full-size array."""
    out = x @ w
    out += b
    return out


def _affine_grads(g, x, w, want_x, want_w, want_b):
    """Gradients of x @ w + b for an output gradient g; None where not wanted."""
    k, n = w.shape
    gx = g @ w.T if want_x else None
    gw = x.reshape(-1, k).T @ g.reshape(-1, n) if want_w else None
    gb = g.reshape(-1, n).sum(axis=0) if want_b else None
    return gx, gw, gb


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
        lambda g: _affine_grads(g, x.data, w.data, x.requires_grad, w.requires_grad, b.requires_grad),
    )


# ---------------------------------------------------------------------------
# normalizations and convolution


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax_last(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    y = _softmax(x.data)
    return _result(y, (x,), lambda g: (_softmax_grad(y, g),))


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., rows, D) -> (..., H, rows, D / H)."""
    *lead, rows, d = a.shape
    return a.reshape(*lead, rows, heads, d // heads).swapaxes(-3, -2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(..., H, rows, hd) -> (..., rows, H * hd), the inverse of _split_heads."""
    *lead, heads, rows, hd = a.shape
    return a.swapaxes(-3, -2).reshape(*lead, rows, heads * hd)


def _attention(q, k, v, heads):
    """Forward of :func:`attention` on arrays: the output and what its backward needs."""
    qh, vh = _split_heads(q, heads), _split_heads(v, heads)
    # contiguous like transpose()'s output, so scores equal matmul(q, transpose(k)) bit for bit
    kt = np.ascontiguousarray(_split_heads(k, heads).swapaxes(-1, -2))
    c = 1.0 / math.sqrt(q.shape[-1] // heads)
    p = _softmax((qh @ kt) * c)
    return _merge_heads(p @ vh), (qh, kt, vh, p, c)


def _attention_grads(g, qh, kt, vh, p, c):
    gh = _split_heads(g, p.shape[-3])
    gs = _softmax_grad(p, gh @ vh.swapaxes(-1, -2)) * c
    gq = _merge_heads(gs @ kt.swapaxes(-1, -2))
    gk = _merge_heads((qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2))
    gv = _merge_heads(p.swapaxes(-1, -2) @ gh)
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
    return _merge_heads(np.ones((heads, 1, n)) @ _split_heads(g, heads))


def _layer_norm(z, eps):
    """Forward of :func:`layer_norm` on arrays: the output and what its backward needs."""
    n = z.shape[-1]
    c = z - z.sum(axis=-1, keepdims=True) / n
    sigma = np.sqrt((c * c).sum(axis=-1, keepdims=True) / n)
    s = sigma + eps
    return c / s, (c, sigma, s)


def _layer_norm_grads(g, c, sigma, s):
    n = c.shape[-1]
    inv_s = 1.0 / s
    # d sigma / d c_j = c_j / (n * sigma); zero at exactly-constant slices
    coef = np.where(sigma > 0.0, inv_s * inv_s / (n * np.where(sigma > 0.0, sigma, 1.0)), 0.0)
    gc = g * inv_s - c * ((g * c).sum(axis=-1, keepdims=True) * coef)
    return gc - gc.sum(axis=-1, keepdims=True) / n


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


def _depthwise_conv1d(x, kernel, bias):
    """Forward of :func:`depthwise_conv1d` on arrays: the output and the
    edge-padded input as (..., J, r, D) blocks, which the backward needs."""
    r, d = kernel.shape
    n = x.shape[-2]
    j = -(-n // r)  # ceil
    if j * r > n:
        x = np.concatenate([x, np.repeat(x[..., -1:, :], j * r - n, axis=-2)], axis=-2)
    xr = x.reshape(x.shape[:-2] + (j, r, d))
    return (xr * kernel).sum(axis=-2) + bias, xr


def _depthwise_conv1d_grads(g, xr, kernel, n, want_x, want_k, want_b):
    *lead, j, r, d = xr.shape
    gx = gk = gb = None
    if want_k:
        gk = (xr * g[..., :, None, :]).reshape(-1, r, d).sum(axis=0)
    if want_b:
        gb = g.reshape(-1, d).sum(axis=0)
    if want_x:
        gxp = (g[..., :, None, :] * kernel).reshape(*lead, j * r, d)
        gx = np.ascontiguousarray(gxp[..., :n, :])
        if j * r > n:
            gx[..., n - 1, :] += gxp[..., n:, :].sum(axis=-2)
    return gx, gk, gb


def depthwise_conv1d(x: Tensor, kernel: Tensor, bias: Tensor, reduction: int) -> Tensor:
    """Per-channel strided convolution shrinking the token axis by ``reduction``.

    ``x`` has shape (..., N, D); ``kernel`` is (r, D) with one length-r
    filter per channel and stride r; ``bias`` is (D,). The input is
    right-padded with edge replication to a multiple of r, so the output
    has ceil(N / r) tokens. ``reduction=1`` degenerates to a per-channel
    scalar affine map.
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
    out, xr = _depthwise_conv1d(x.data, kernel.data, bias.data)
    n = x.data.shape[-2]
    return _result(out, (x, kernel, bias), lambda g: _depthwise_conv1d_grads(
        g, xr, kernel.data, n, x.requires_grad, kernel.requires_grad, bias.requires_grad))


# ---------------------------------------------------------------------------
# encoder stage


def _stage_forward(x, arrays, r, heads, eps):
    """Forward of :func:`encoder_stage` on arrays: the output and what its
    backward needs. ``arrays`` are the stage's 14 parameter arrays; in a
    one-key stage (N <= r) no attention is computed and its saved entries
    (k blocks, attention state) are None."""
    wq, bq, wk, bk, wv, bv, kk, kb, vk, vb, wo, bo, wf, bf = arrays
    n = x.shape[-2]
    v_red, v_blocks = _depthwise_conv1d(_affine(x, wv, bv), vk, vb)
    if n <= r:
        att, k_blocks, att_saved = v_red.repeat(n, axis=-2), None, None
    else:
        k_red, k_blocks = _depthwise_conv1d(_affine(x, wk, bk), kk, kb)
        att, att_saved = _attention(_affine(x, wq, bq), k_red, v_red, heads)
    normed, ln1 = _layer_norm(x + _affine(att, wo, bo), eps)
    f = _affine(normed, wf, bf)
    mask = f > 0.0
    out, ln2 = _layer_norm(normed + np.where(mask, f, 0.0), eps)
    return out, (v_blocks, k_blocks, att, att_saved, normed, ln1, mask, ln2)


def encoder_stage(tokens: Tensor, params, reduction: int, heads: int, eps: float) -> Tensor:
    """One post-norm encoder stage over tokens (..., N, D) as a single taped node.

    ``params`` holds the stage's 14 tensors in checkpoint order: q, k and v
    weight and bias, the k and v reducers' kernel and bias, then out and ffn
    weight and bias. The stage computes

        a = affine(attention(affine(x, q), reduce(affine(x, k)), reduce(affine(x, v))), out)
        normed = layer_norm(x + a);  y = layer_norm(normed + relu(affine(normed, ffn)))

    where reduce is the stride-``reduction`` :func:`depthwise_conv1d`. When
    N <= reduction K/V reduce to one key, whose softmax weight is exactly 1, so
    q, k and the k reducer get exact zero gradients: the node, the one place
    this shortcut is taken, neither computes them nor gives them a gradient
    (theirs stay None). Forward (:func:`_stage_forward`, which the model's
    untaped forward runs too) and backward reuse the primitives' own numpy
    code and replay the composed primitives' accumulation order, so the output
    and every other gradient equal those of the chain of primitives bit for bit.
    """
    x = tokens.data
    if x.ndim < 2:
        raise DimensionError(f"encoder_stage expects tokens (..., N, D), got shape {tokens.shape}")
    n, d = x.shape[-2:]
    r = int(reduction)
    if r < 1:
        raise ParameterError(f"reduction factor must be >= 1, got {reduction}")
    if heads < 1 or d % heads:
        raise DimensionError(f"heads ({heads}) must divide the model width ({d})")
    eps = float(eps)
    if eps <= 0.0:
        raise ParameterError(f"layer_norm eps must be positive, got {eps}")
    arrays = [p.data for p in params]
    shapes = [(d, d), (d,)] * 3 + [(r, d), (d,)] * 2 + [(d, d), (d,)] * 2
    if [a.shape for a in arrays] != shapes:
        raise DimensionError(f"encoder_stage expects parameters shaped {shapes} for width {d} "
                             f"and reduction {r}, got {[a.shape for a in arrays]}")
    out, (v_blocks, k_blocks, att, att_saved, normed, ln1, mask, ln2) = _stage_forward(
        x, arrays, r, heads, eps)
    one_key = n <= r
    wq, _, wk, _, wv, _, kk, _, vk, _, wo, _, wf, _ = arrays

    def grad_fn(g):
        want = [p.requires_grad for p in params]
        g2 = _layer_norm_grads(g, *ln2)
        gn, gwf, gbf = _affine_grads(g2 * mask, normed, wf, True, *want[12:14])
        g1 = _layer_norm_grads(g2 + gn, *ln1)
        ga, gwo, gbo = _affine_grads(g1, att, wo, True, *want[10:12])
        # composed primitives hand gradients on C-contiguous (_accumulate);
        # a strided view can make matmul sum in another order
        if one_key:
            gv = _single_key_grads(ga, heads)
        else:
            gq, gk, gv = (np.ascontiguousarray(a) for a in _attention_grads(ga, *att_saved))
        gvp, gvk, gvb = _depthwise_conv1d_grads(gv, v_blocks, vk, n, True, *want[8:10])
        gx, gwv, gbv = _affine_grads(gvp, x, wv, tokens.requires_grad, *want[4:6])
        gx = g1 + gx if tokens.requires_grad else None
        if one_key:
            return gx, None, None, None, None, gwv, gbv, None, None, gvk, gvb, gwo, gbo, gwf, gbf
        gkp, gkk, gkb = _depthwise_conv1d_grads(gk, k_blocks, kk, n, True, *want[6:8])
        gxk, gwk, gbk = _affine_grads(gkp, x, wk, tokens.requires_grad, *want[2:4])
        gxq, gwq, gbq = _affine_grads(gq, x, wq, tokens.requires_grad, *want[0:2])
        if gx is not None:
            gx = (gx + gxk) + gxq
        return gx, gwq, gbq, gwk, gbk, gwv, gbv, gkk, gkb, gvk, gvb, gwo, gbo, gwf, gbf

    return _result(out, (tokens, *params), grad_fn)


# ---------------------------------------------------------------------------
# differentiation


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor that influenced the scalar loss.

    The active tape is consumed: a second backward without a fresh
    forward raises a ContractError. Gradients accumulate additively, so
    callers must :func:`zero_grad` their parameters between steps.
    Tensors on the tape that did not influence the loss keep
    ``grad=None``, which downstream consumers treat as zero.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        shape = loss.shape if isinstance(loss, Tensor) else type(loss)
        raise ContractError(f"backward requires a scalar taped tensor, got {shape}")
    tape = _state.tape
    if not any(out is loss for out, _, _ in tape):
        raise ContractError(
            "loss was not produced by taped primitives (tape empty or already consumed)"
        )
    try:
        loss.grad = np.ones_like(loss.data)
        # Every op's inputs existed before it ran, so reverse execution
        # order is a valid topological order and needs no graph sort.
        for out, inputs, grad_fn in reversed(tape):
            if out.grad is None:
                continue
            g = out.grad
            grads = grad_fn(g)
            # the upstream gradient itself (add, sub) and an array handed to
            # two inputs are shared: copied on first write, never stored
            ids = [id(gi) for gi in grads if gi is not None]
            repeated = len(set(ids)) < len(ids)
            for t, gi in zip(inputs, grads):
                _accumulate(t, gi, repeated or gi is g)
    finally:
        _state.tape = []


def gradient_check(f, params, h: float = 1e-5) -> float:
    """Max relative error between autodiff and central finite differences.

    ``f`` must be a deterministic zero-argument callable returning a
    scalar Tensor built from taped primitives over ``params``. Every
    parameter coordinate is probed with a symmetric step ``h``; the
    relative error denominator is max(|analytic|, |numeric|, 1e-8).
    """
    h = float(h)
    if not (1e-6 <= h <= 1e-3):
        raise ParameterError(f"step h must lie in [1e-6, 1e-3], got {h}")
    params = list(params)
    zero_grad(params)
    backward(f())
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
                denom = max(abs(aflat[i]), abs(numeric), 1e-8)
                max_rel = max(max_rel, abs(aflat[i] - numeric) / denom)
    zero_grad(params)
    return max_rel
