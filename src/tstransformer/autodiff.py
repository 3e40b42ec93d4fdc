"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything runs at 64-bit precision so finite-difference gradient checks
can be held to tight tolerances. The op set is exactly what the
forecasting model needs: matrix products, affine maps, ReLU, last-axis
softmax, multi-head scaled dot-product attention, per-slice layer
normalization, strided depthwise 1-D convolution, elementwise
arithmetic, slicing and scalar reductions.

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
        if arr.size == 0:
            raise DimensionError(f"tensor extents must be positive, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite (no NaN/Inf)")
        self.data = arr
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


def _accumulate(t: Tensor, g) -> None:
    if g is None or not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


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
        ga = gb = None
        if a.requires_grad:
            ga = _reduce_leading(g @ bd.swapaxes(-1, -2), ad.shape)
        if b.requires_grad:
            gb = _reduce_leading(ad.swapaxes(-1, -2) @ g, bd.shape)
        return ga, gb

    return _result(ad @ bd, (a, b), grad_fn)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[..., k] @ w[k, n] + b[n], broadcast over leading axes of x."""
    if w.data.ndim != 2 or b.data.ndim != 1:
        raise DimensionError(f"affine expects 2-D weight and 1-D bias, got {w.shape}, {b.shape}")
    if x.data.shape[-1] != w.data.shape[0]:
        raise DimensionError(f"affine inner extents differ: x {x.shape} vs w {w.shape}")
    if w.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"affine bias width {b.shape} does not match weight {w.shape}")

    def grad_fn(g):
        gx = gw = gb = None
        if x.requires_grad:
            gx = g @ w.data.T
        if w.requires_grad:
            gw = x.data.reshape(-1, w.data.shape[0]).T @ g.reshape(-1, w.data.shape[1])
        if b.requires_grad:
            gb = g.reshape(-1, b.data.shape[0]).sum(axis=0)
        return gx, gw, gb

    return _result(x.data @ w.data + b.data, (x, w, b), grad_fn)


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


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """softmax(q k^T / sqrt(hd)) v per head, for q (..., N, D) and k, v (..., J, D).

    Head h attends with last-axis block h of width hd = D / heads; the
    (..., N, D) output holds the head results side by side.
    """
    if (q.data.ndim < 2 or k.data.ndim != q.data.ndim or k.shape != v.shape
            or k.shape[:-2] != q.shape[:-2] or k.shape[-1] != q.shape[-1]):
        raise DimensionError(f"attention expects q (..., N, D) and k, v (..., J, D), "
                             f"got {q.shape}, {k.shape}, {v.shape}")
    *lead, n, d = q.shape
    j = k.shape[-2]
    if heads < 1 or d % heads:
        raise DimensionError(f"heads ({heads}) must divide the model width ({d})")
    hd = d // heads
    c = 1.0 / math.sqrt(hd)

    def split(a, rows):  # (..., rows, D) -> (..., H, rows, hd)
        return a.reshape(*lead, rows, heads, hd).swapaxes(-3, -2)

    def merge(a, rows):  # (..., H, rows, hd) -> (..., rows, D)
        return a.swapaxes(-3, -2).reshape(*lead, rows, d)

    qh, vh = split(q.data, n), split(v.data, j)
    # contiguous like transpose()'s output, so scores equal matmul(q, transpose(k)) bit for bit
    kt = np.ascontiguousarray(split(k.data, j).swapaxes(-1, -2))
    p = _softmax((qh @ kt) * c)

    def grad_fn(g):
        gh = split(g, n)
        gs = _softmax_grad(p, gh @ vh.swapaxes(-1, -2)) * c
        gq = merge(gs @ kt.swapaxes(-1, -2), n)
        gk = merge((qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2), j)
        gv = merge(p.swapaxes(-1, -2) @ gh, j)
        return gq, gk, gv

    return _result(merge(p @ vh, n), (q, k, v), grad_fn)


def layer_norm(z: Tensor, eps: float = 1e-5) -> Tensor:
    """(z - mean) / (population std + eps), per last-axis slice.

    Constant slices map to zeros through the eps guard instead of
    dividing by zero.
    """
    eps = float(eps)
    if eps <= 0.0:
        raise ParameterError(f"layer_norm eps must be positive, got {eps}")
    n = z.data.shape[-1]
    mu = z.data.mean(axis=-1, keepdims=True)
    c = z.data - mu
    sigma = np.sqrt((c * c).mean(axis=-1, keepdims=True))
    s = sigma + eps
    y = c / s

    def grad_fn(g):
        inv_s = 1.0 / s
        # d sigma / d c_j = c_j / (n * sigma); zero at exactly-constant slices
        coef = np.where(sigma > 0.0, inv_s * inv_s / (n * np.where(sigma > 0.0, sigma, 1.0)), 0.0)
        gc = g * inv_s - c * ((g * c).sum(axis=-1, keepdims=True) * coef)
        return (gc - gc.mean(axis=-1, keepdims=True),)

    return _result(y, (z,), grad_fn)


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

    n = x.data.shape[-2]
    j = -(-n // r)  # ceil
    pad = j * r - n
    if pad:
        edge = np.repeat(x.data[..., -1:, :], pad, axis=-2)
        xp = np.concatenate([x.data, edge], axis=-2)
    else:
        xp = x.data
    lead = xp.shape[:-2]
    xr = xp.reshape(lead + (j, r, d))
    out = (xr * kernel.data).sum(axis=-2) + bias.data

    def grad_fn(g):
        gx = gk = gb = None
        if kernel.requires_grad:
            gk = (xr * g[..., :, None, :]).reshape(-1, r, d).sum(axis=0)
        if bias.requires_grad:
            gb = g.reshape(-1, d).sum(axis=0)
        if x.requires_grad:
            gxp = (g[..., :, None, :] * kernel.data).reshape(lead + (j * r, d))
            gx = np.ascontiguousarray(gxp[..., :n, :])
            if pad:
                gx[..., n - 1, :] += gxp[..., n:, :].sum(axis=-2)
        return gx, gk, gb

    return _result(out, (x, kernel, bias), grad_fn)


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
            for t, gi in zip(inputs, grad_fn(out.grad)):
                _accumulate(t, gi)
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


def global_grad_norm(tensors) -> float:
    """Euclidean norm over all gradients (None counts as zero)."""
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float(np.dot(t.grad.reshape(-1), t.grad.reshape(-1)))
    return math.sqrt(total)
