"""Dense float64 tensors with graph-based reverse-mode differentiation.

Everything runs at 64-bit precision so finite-difference gradient checks
can be held to tight tolerances. The taped ops are the model's building
blocks: matrix products, affine maps, ReLU, last-axis softmax, per-slice
layer normalization and strided depthwise 1-D convolution. Each op runs on
array kernels (``_affine``, ``_softmax``, ``_layer_norm``,
``_depthwise_conv1d`` and their gradients), which the model's one-node
forward also calls directly; their scalars are cached read-only 0-d arrays
(``_const``), and the forward kernels work in place on their own
temporaries: the same IEEE operations as the plain forms.

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


class _NonFiniteError(ValueError):
    """:func:`_check_data`'s error for a NaN or an infinity, the one ValueError
    a rollout reports as a numerical failure."""


def _check_data(arr: np.ndarray) -> np.ndarray:
    """``arr`` if it is valid tensor data: positive extents, all finite."""
    if arr.size == 0:
        raise DimensionError(f"tensor extents must be positive, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise _NonFiniteError("tensor data must be finite (no NaN/Inf)")
    return arr


@functools.lru_cache(maxsize=256)
def _const(value) -> np.ndarray:
    """Read-only 0-d float64 array of ``value``: the same operand as the Python
    number in a ufunc."""
    out = np.array(float(value))
    out.flags.writeable = False
    return out


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
        g = np.add.reduce(g, axis=0)
    return g


# ---------------------------------------------------------------------------
# linear maps and ReLU


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
    plain ``x @ w``, without the two reshapes."""
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
    return gx, x.reshape(-1, k).T @ g2, np.add.reduce(g2, axis=0)


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


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    return _result(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# normalizations and convolution


def _softmax(x: np.ndarray) -> np.ndarray:
    e = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    return y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))


def softmax_last(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    y = _softmax(x.data)
    return _result(y, (x,), lambda g: (_softmax_grad(y, g),))


def _layer_norm(z, eps):
    """Forward of :func:`layer_norm` on arrays: the output and what its backward needs."""
    n = _const(z.shape[-1])
    mean = np.add.reduce(z, axis=-1, keepdims=True)
    mean /= n
    c = z - mean
    sigma = np.add.reduce(c * c, axis=-1, keepdims=True)
    sigma /= n
    np.sqrt(sigma, out=sigma)
    s = sigma + _const(eps)
    return c / s, (c, sigma, s)


def _layer_norm_grads(g, c, sigma, s):
    n = c.shape[-1]
    inv_s = 1.0 / s
    # d sigma / d c_j = c_j / (n * sigma); zero at exactly-constant slices
    live = sigma > 0.0
    coef = np.where(live, inv_s * inv_s / (n * np.where(live, sigma, 1.0)), 0.0)
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


def _fold_taps(kernel, n):
    """The (r', D) taps n tokens meet: the (r, D) kernel itself (r' = r), except
    when the whole token axis is one partial block (n < r): then the padding is
    not built, and the n real rows meet n taps (r' = n), the last of which is
    kernel rows n-1 .. r-1 summed, the rows the replicated last token meets.
    Folded taps fold to themselves."""
    if n >= len(kernel):
        return kernel
    return np.concatenate([kernel[: n - 1], np.add.reduce(kernel[n - 1 :], axis=0, keepdims=True)])


def _depthwise_conv1d(x, kernel, bias):
    """Forward of :func:`depthwise_conv1d` on arrays: the output and what the
    backward needs, the input as (..., J, r', D) blocks and the
    :func:`_fold_taps` they meet. ``kernel`` may be taps already folded for x's
    token count, as a one-key stage passes them. One tap (r' = 1) is a
    per-channel multiply and add, without blocks to reduce."""
    n = x.shape[-2]
    taps = _fold_taps(kernel, n)
    rb, d = taps.shape
    if rb == 1:
        out = x * taps
        out += bias
        return out, (x[..., None, :], taps)
    j = -(-n // rb)  # ceil
    if j * rb > n:
        x = x.take(_pad_index(n, j * rb), axis=-2)
    xr = x.reshape(x.shape[:-2] + (j, rb, d))
    out = np.add.reduce(xr * taps, axis=-2)
    out += bias
    return out, (xr, taps)


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
