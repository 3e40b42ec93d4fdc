"""Tensor-core tests: primitives against hand oracles, graph semantics,
and finite-difference gradient validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import add, attention, edge_padded_conv1d, mean_all, mul, scale, slice_axis, sub, sum_all, transpose
from tstransformer import autodiff as ad
from tstransformer.autodiff import Tensor
from tstransformer.errors import ContractError, DimensionError, ParameterError
from tstransformer.model import _single_key_grads


def t(data, grad=False):
    return Tensor(data, requires_grad=grad)


# ---------------------------------------------------------------------------
# construction invariants


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        Tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        Tensor([np.inf])


def test_rejects_empty_extents():
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 0)))


def test_scalar_becomes_shape_one():
    assert Tensor(3.0).shape == (1,)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    out = ad.matmul(t(np.eye(2)), t([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_product():
    out = ad.matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(4, 3, 5)), rng.normal(size=(4, 5, 2))
    out = ad.matmul(t(a), t(b)).data
    for i in range(4):
        assert np.allclose(out[i], a[i] @ b[i], atol=1e-12)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    out = ad.softmax_last(t([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_closed_form():
    out = ad.softmax_last(t([0.0, np.log(2.0)]))
    assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    out = ad.softmax_last(t(rng.normal(size=(7, 9)) * 10.0))
    assert np.all(out.data >= 0.0)
    assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) <= 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 6))
    for c in (-3.0, 1e3):
        assert np.allclose(
            ad.softmax_last(t(x)).data, ad.softmax_last(t(x + c)).data, atol=1e-12
        )


def test_softmax_large_values_stable():
    out = ad.softmax_last(t([1e6, 1e6 + 1.0]))
    assert np.all(np.isfinite(out.data))


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_constant_slice_is_zero():
    out = ad.layer_norm(t([5.0, 5.0, 5.0, 5.0]))
    assert np.array_equal(out.data, np.zeros(4))


def test_layer_norm_two_point_slice():
    # mu=2, population sigma=1; the eps guard perturbs the output by
    # eps/(sigma+eps), so the bound is eps-driven.
    eps = 1e-5
    out = ad.layer_norm(t([1.0, 3.0]), eps=eps)
    assert np.allclose(out.data, [-1.0, 1.0], atol=1.1e-5)


def test_layer_norm_output_statistics():
    rng = np.random.default_rng(3)
    eps = 1e-5
    out = ad.layer_norm(t(rng.normal(size=(6, 32)) * 4.0), eps=eps).data
    assert np.max(np.abs(out.mean(axis=-1))) <= 1e-9
    sigma = out.std(axis=-1)
    assert np.max(np.abs(sigma - 1.0)) <= eps  # sigma/(sigma+eps) with sigma ~ O(1)


@pytest.mark.parametrize("shape", [(5, 16), (8, 5, 16), (3, 7)])
def test_layer_norm_sum_over_n_means_match_np_mean_bit_for_bit(shape):
    # the former layer_norm, whose means went through np.mean
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    z_a = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape[:-1] + (1,))
    g = rng.normal(size=shape)
    eps = 1e-5
    c = z_a - z_a.mean(axis=-1, keepdims=True)
    sigma = np.sqrt((c * c).mean(axis=-1, keepdims=True))
    s = sigma + eps
    inv_s = 1.0 / s
    coef = inv_s * inv_s / (shape[-1] * sigma)
    gc = g * inv_s - c * ((g * c).sum(axis=-1, keepdims=True) * coef)
    z = t(z_a, grad=True)
    out = ad.layer_norm(z, eps)
    ad.backward(sum_all(mul(out, Tensor(g))))
    assert np.array_equal(out.data, c / s)
    assert np.array_equal(z.grad, gc - gc.mean(axis=-1, keepdims=True))
    for value in (shape[-1], eps):  # the 0-d operands it divided and added by: shared, so read-only
        const = ad._const(value)
        assert const is ad._const(value) and const.shape == () and const == value
        assert not const.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            const[...] = 0.0


def test_layer_norm_eps_validation():
    with pytest.raises(ParameterError):
        ad.layer_norm(t([1.0, 2.0]), eps=0.0)


# ---------------------------------------------------------------------------
# depthwise conv


def test_conv_token_count():
    x = t(np.arange(8.0).reshape(8, 1))
    out = ad.depthwise_conv1d(x, t(np.full((4, 1), 0.25)), t(np.zeros(1)), 4)
    assert out.shape == (2, 1)


def test_conv_hand_average():
    x = t(np.arange(1.0, 9.0).reshape(8, 1))
    out = ad.depthwise_conv1d(x, t(np.full((4, 1), 0.25)), t(np.zeros(1)), 4)
    assert np.allclose(out.data.ravel(), [2.5, 6.5], atol=1e-15)


def test_conv_reduction_one_is_identity():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(9, 3))
    out = ad.depthwise_conv1d(t(x), t(np.ones((1, 3))), t(np.zeros(3)), 1)
    assert np.array_equal(out.data, x)


@pytest.mark.parametrize("n", [1, 2, 5, 19, 40])
@pytest.mark.parametrize("r", [1, 4, 16, 32])
def test_conv_ceil_count(n, r):
    x = t(np.random.default_rng(n * r).normal(size=(n, 2)))
    out = ad.depthwise_conv1d(x, t(np.full((r, 2), 1.0 / r)), t(np.zeros(2)), r)
    assert out.shape == (-(-n // r), 2)


def test_conv_edge_replication():
    # N=3, r=2: last window is [x2, x2] replicated.
    x = t(np.array([[1.0], [2.0], [5.0]]))
    out = ad.depthwise_conv1d(x, t(np.full((2, 1), 0.5)), t(np.zeros(1)), 2)
    assert np.allclose(out.data.ravel(), [1.5, 5.0], atol=1e-15)


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("n, r", [(5, 16), (5, 32), (3, 4), (1, 4), (1, 32), (4, 4), (32, 32), (5, 4), (19, 16),
                                  (6, 4), (7, 4), (17, 16), (33, 32), (5, 1), (1, 1)])
def test_conv_matches_edge_padded_reference(n, r, lead):
    # N < r (one partial block) folds the padding into the last tap: output and
    # x gradient within 2 r eps of the padded sums' magnitude (each side's
    # r-term sum, then the bias add, rounds within r eps of it), the kernel
    # gradient bit for bit; N >= r (no padding, or J > 1 blocks gathered by
    # one take over a cached index) is unchanged
    rng = np.random.default_rng(n * 100 + r)
    x_a, k_a, b_a = rng.normal(size=lead + (n, 5)), rng.normal(size=(r, 5)), rng.normal(size=5)
    cot = rng.normal(size=lead + (-(-n // r), 5))
    x, k, b = (t(a, grad=True) for a in (x_a, k_a, b_a))
    out = ad.depthwise_conv1d(x, k, b, r)
    ad.backward(sum_all(mul(out, Tensor(cot))))
    want_out, want_gx, want_gk, want_gb = edge_padded_conv1d(x_a, k_a, b_a, cot)
    assert ad._depthwise_conv1d(x_a, k_a, b_a)[1][0].shape[-2] == min(n, r)  # no padded rows built
    assert np.array_equal(k.grad, want_gk) and np.array_equal(b.grad, want_gb)
    if n >= r:
        assert np.array_equal(out.data, want_out) and np.array_equal(x.grad, want_gx)
        if n % r:  # the index the convolution gathered by: shared, so read-only, and unchanged
            rows = -(-n // r) * r
            index = ad._pad_index(n, rows)
            assert not index.flags.writeable
            assert np.array_equal(index, np.minimum(np.arange(rows), n - 1))
        return
    eps = np.finfo(np.float64).eps
    xp = np.concatenate([x_a, np.repeat(x_a[..., -1:, :], r - n, axis=-2)], axis=-2)
    out_bound = 2 * r * eps * ((np.abs(xp) * np.abs(k_a)).sum(axis=-2, keepdims=True) + np.abs(b_a))
    assert np.all(np.abs(out.data - want_out) <= out_bound)
    gx_bound = 2 * r * eps * np.abs(cot) * np.abs(k_a).sum(axis=0)
    assert np.all(np.abs(x.grad - want_gx) <= gx_bound)
    assert np.array_equal(x.grad[..., : n - 1, :], want_gx[..., : n - 1, :])  # only the last token's taps fold


@pytest.mark.parametrize("rows", [1, 5, 24, 64 * 5, 64 * 24])  # one token row, M, and a batch of 64 windows
def test_blas_rounds_each_column_block_as_its_own_product(rows):
    # The encoder stage reads q, k and v as column blocks of one product with
    # [q|k|v], or k and v of one with its [k|v] columns, and the model matches
    # the chain of primitives bit for bit only if this BLAS rounds each block as
    # the block's own (rows, 16) @ (16, 16) product. A build that breaks this
    # fails here by name, not as a puzzling mismatch of the composed chain.
    rng = np.random.default_rng(rows)
    d = 16
    x = rng.normal(size=(rows, d))
    parts = [rng.normal(size=(d, d)) for _ in range(3)]
    joined = np.concatenate(parts, axis=1)
    for cols, blocks in ((joined, parts), (joined[:, d:], parts[1:])):
        product = x @ cols
        for i, w in enumerate(blocks):
            if not np.array_equal(product[:, i * d : (i + 1) * d], x @ w):
                pytest.fail(f"BLAS premise broken: column block {i} of the ({rows}, {d}) @ {cols.shape} "
                            f"product rounds otherwise than its own ({rows}, {d}) @ ({d}, {d}) product")


def test_conv_rejects_bad_reduction():
    x = t(np.ones((4, 1)))
    with pytest.raises(ParameterError):
        ad.depthwise_conv1d(x, t(np.ones((1, 1))), t(np.zeros(1)), 0)


# ---------------------------------------------------------------------------
# attention


@pytest.mark.parametrize("q_shape, k_shape, v_shape, heads", [
    ((4, 6), (3, 6), (3, 6), 4),  # heads does not divide D
    ((4, 6), (3, 6), (3, 6), 0),
    ((4, 6), (3, 5), (3, 5), 1),  # widths differ
    ((4, 6), (3, 6), (2, 6), 1),  # keys and values differ
    ((2, 4, 6), (3, 3, 6), (3, 3, 6), 1),  # stack axes differ
    ((6,), (6,), (6,), 1),  # not a token matrix
])
def test_attention_rejects_bad_shapes(q_shape, k_shape, v_shape, heads):
    q, k, v = (t(np.ones(shape)) for shape in (q_shape, k_shape, v_shape))
    with pytest.raises(DimensionError):
        attention(q, k, v, heads)


def test_attention_multi_head_batched_gradient():
    rng = np.random.default_rng(9)
    q = t(rng.normal(size=(2, 4, 8)), grad=True)
    k = t(rng.normal(size=(2, 3, 8)), grad=True)
    v = t(rng.normal(size=(2, 3, 8)), grad=True)
    c = Tensor(rng.normal(size=(2, 4, 8)))
    f = lambda: sum_all(mul(attention(q, k, v, 4), c))
    assert ad.gradient_check(f, [q, k, v], h=1e-5) <= 1e-6


@pytest.mark.parametrize("d", [8, 16])  # a plain ones @ g sum differs in the last bit at d=8, heads=4
@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("n", [1, 2, 5, 6])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_single_key_attention_matches_attention_bit_for_bit(heads, n, lead, d):
    # the model's one-key stage shortcut against full attention over one key:
    # v repeated to n rows, _single_key_grads for v, and no q or k gradient
    rng = np.random.default_rng(heads * 10 + n)
    q_a, k_a, v_a = (rng.normal(size=lead + (rows, d)) for rows in (n, 1, 1))
    cot = Tensor(rng.normal(size=lead + (n, d)) * 10.0 ** rng.uniform(-3, 3, size=lead + (n, d)))
    q, k, v = (t(a, grad=True) for a in (q_a, k_a, v_a))
    full = attention(q, k, v, heads)
    ad.backward(sum_all(mul(full, cot)))
    assert np.array_equal(np.repeat(v_a, n, axis=-2), full.data)
    assert np.array_equal(_single_key_grads(cot.data, heads), v.grad)
    assert not q.grad.any() and not k.grad.any()  # what the shortcut leaves out


# ---------------------------------------------------------------------------
# relu / affine


def test_relu_definitional():
    out = ad.relu(t([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_affine_identity():
    x = np.random.default_rng(5).normal(size=(3, 4))
    out = ad.affine(t(x), t(np.eye(4)), t(np.zeros(4)))
    assert np.allclose(out.data, x, atol=1e-15)


def test_affine_hand():
    out = ad.affine(t([[1.0, 1.0]]), t(np.eye(2)), t([3.0, 3.0]))
    assert np.array_equal(out.data, [[4.0, 4.0]])


def test_affine_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.affine(t(np.ones((2, 3))), t(np.ones((4, 2))), t(np.zeros(2)))


@pytest.mark.parametrize("x_shape, n", [((64, 1, 16), 2000), ((64, 5, 16), 1), ((37, 9, 16), 50)])
def test_affine_with_leading_axes_is_one_flat_product(x_shape, n):
    # one (rows, k) product over every row, not a stack of per-window products
    rng = np.random.default_rng(17)
    k = x_shape[-1]
    x, w, b = rng.normal(size=x_shape), rng.normal(size=(k, n)), rng.normal(size=n)
    g = rng.normal(size=x_shape[:-1] + (n,))
    flat = x.reshape(-1, k) @ w
    flat += b
    assert np.array_equal(ad._affine(x, w, b), flat.reshape(x_shape[:-1] + (n,)))
    gx, gw, gb = ad._affine_grads(g, x, w, True)
    assert np.array_equal(gx, (g.reshape(-1, n) @ w.T).reshape(x_shape))
    assert np.array_equal(gw, x.reshape(-1, k).T @ g.reshape(-1, n))
    assert np.array_equal(gb, g.reshape(-1, n).sum(axis=0))


@pytest.mark.parametrize("x_shape", [(1, 16), (5, 16), (6, 32)])
def test_affine_of_a_matrix_is_the_plain_product(x_shape):
    rng = np.random.default_rng(18)
    x, w, b = rng.normal(size=x_shape), rng.normal(size=(x_shape[1], 7)), rng.normal(size=7)
    assert np.array_equal(ad._affine(x, w, b), x @ w + b)
    g = rng.normal(size=(x_shape[0], 7))
    assert np.array_equal(ad._affine_grads(g, x, w, True)[0], g @ w.T)


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_linear():
    x = t([1.0, 2.0, 3.0], grad=True)
    ad.backward(sum_all(x))
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    x = t([1.0, 2.0], grad=True)
    ad.backward(sum_all(mul(x, x)))
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_diamond_accumulates():
    # y = x^2 + 3x, dy/dx = 2x + 3
    x = t([2.0, -1.0], grad=True)
    ad.backward(sum_all(add(mul(x, x), scale(x, 3.0))))
    assert np.array_equal(x.grad, [7.0, 1.0])


def test_backward_add_of_itself():
    # add hands one gradient array to both inputs; a later sum must not write it
    x = t([1.0, -2.0], grad=True)
    y = add(x, x)
    ad.backward(sum_all(mul(y, t([3.0, 5.0]))))
    assert np.array_equal(x.grad, [6.0, 10.0])
    assert np.array_equal(y.grad, [3.0, 5.0])


def test_backward_second_consumer_leaves_the_other_add_input_alone():
    # a also feeds mul, recorded before add, so a.grad is summed again after
    # add's backward gave a and b the same array
    a, b = t([1.0, 2.0], grad=True), t([3.0, 4.0], grad=True)
    u = mul(a, t([10.0, 20.0]))
    s = add(a, b)
    ad.backward(sum_all(add(mul(s, t([2.0, 3.0])), u)))
    assert np.array_equal(b.grad, [2.0, 3.0])
    assert np.array_equal(a.grad, [12.0, 23.0])


@pytest.mark.parametrize("op", [
    lambda x: sub(x, t([[5.0, 7.0]])),  # hands on the upstream gradient itself
    transpose,  # hands on a view of it, C-contiguous for one row
])
def test_backward_first_write_keeps_the_upstream_gradient_intact(op):
    # x's first gradient comes from op (recorded last); mul's then accumulates into it
    x = t([[1.0, 2.0]], grad=True)
    u = sum_all(mul(x, t([[10.0, 20.0]])))
    y = op(x)
    w = t(np.arange(2.0).reshape(y.shape) + 3.0)
    ad.backward(add(sum_all(mul(y, w)), u))
    assert np.array_equal(y.grad, w.data)
    assert np.array_equal(x.grad, [[13.0, 24.0]])


def test_backward_copies_one_fresh_gradient_handed_to_two_inputs():
    # a node whose backward returns one new array for both inputs; a's
    # second consumer (mul, recorded first) accumulates into a.grad afterwards
    a, b = t([1.0, 2.0], grad=True), t([3.0, 4.0], grad=True)
    u = sum_all(mul(a, t([10.0, 20.0])))
    y = ad._result(a.data + b.data, (a, b), lambda g: (g * 2.0,) * 2)
    ad.backward(add(sum_all(y), u))
    assert np.array_equal(b.grad, [2.0, 2.0])
    assert np.array_equal(a.grad, [12.0, 22.0])


_PRIMITIVES = {  # every taped primitive, as (op over tensors, its input shapes)
    "add": (add, [(2, 3), (2, 3)]),
    "sub": (sub, [(2, 3), (2, 3)]),
    "mul": (mul, [(2, 3), (2, 3)]),
    "scale": (lambda x: scale(x, 1.5), [(2, 3)]),
    "relu": (ad.relu, [(2, 3)]),
    "transpose": (transpose, [(2, 3)]),
    "slice_axis": (lambda x: slice_axis(x, -1, 1, 3), [(2, 3)]),
    "sum_all": (sum_all, [(2, 3)]),
    "mean_all": (mean_all, [(2, 3)]),
    "matmul": (ad.matmul, [(2, 3), (3, 4)]),
    "affine": (ad.affine, [(2, 3), (3, 4), (4,)]),
    "softmax_last": (ad.softmax_last, [(2, 3)]),
    "attention": (lambda q, k, v: attention(q, k, v, 2), [(3, 4), (2, 4), (2, 4)]),
    "layer_norm": (ad.layer_norm, [(2, 3)]),
    "depthwise_conv1d": (lambda x, k, b: ad.depthwise_conv1d(x, k, b, 2), [(5, 3), (2, 3), (3,)]),
}


@pytest.mark.parametrize("name", sorted(_PRIMITIVES))
def test_backward_gives_no_gradient_to_a_constant_operand(name):
    # only backward reads requires_grad: the node computes a gradient for every
    # input, constant or not, and backward stores none on a constant
    op, shapes = _PRIMITIVES[name]
    rng = np.random.default_rng(0)
    for tracked in range(len(shapes)):
        inputs = [t(rng.normal(size=s), grad=i == tracked) for i, s in enumerate(shapes)]
        out = op(*inputs)
        grads = out._node[2](np.ones(out.shape))
        assert [g.shape for g in grads] == shapes
        ad.backward(sum_all(out))
        assert [x.grad is not None for x in inputs] == [i == tracked for i in range(len(shapes))]


def test_backward_requires_scalar():
    x = t([1.0, 2.0], grad=True)
    y = mul(x, x)
    with pytest.raises(ContractError):
        ad.backward(y)
    ad.backward(sum_all(mul(x, x)))  # a rejected call leaves backward usable


def test_backward_twice_without_forward():
    x = t([1.0, 2.0], grad=True)
    loss = sum_all(mul(x, x))
    ad.backward(loss)
    with pytest.raises(ContractError):
        ad.backward(loss)


def test_backward_runs_a_second_independent_loss():
    # each loss owns its graph, so running one leaves the other pending
    x = t([1.0, 2.0], grad=True)
    first = sum_all(mul(x, x))
    ad.backward(sum_all(scale(x, 3.0)))
    ad.backward(first)
    assert np.array_equal(x.grad, [5.0, 7.0])


def test_backward_reaching_a_consumed_node_writes_no_gradient():
    x, w = t([1.0, 2.0], grad=True), t([3.0, 4.0], grad=True)
    y = mul(x, x)
    ad.backward(sum_all(y))
    before = [(a, a.copy()) for a in (x.grad, y.grad)]
    loss = sum_all(mul(y, w))
    with pytest.raises(ContractError):
        ad.backward(loss)
    assert [x.grad, y.grad] == [a for a, _ in before]  # the same arrays, with the same values
    assert all(np.array_equal(a, copy) for a, copy in before)
    assert w.grad is None and loss.grad is None


def test_backward_on_untaped_leaf():
    x = t([1.0], grad=True)
    with pytest.raises(ContractError):
        ad.backward(x)


def test_no_grad_suppresses_tape():
    x = t([1.0, 2.0], grad=True)
    with ad.no_grad():
        y = sum_all(mul(x, x))
    assert not y.requires_grad
    with pytest.raises(ContractError):
        ad.backward(y)


def test_tape_replay_bit_identical():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(5, 5))
    xv = rng.normal(size=(3, 5))

    def run():
        wt = t(w.copy(), grad=True)
        loss = mean_all(ad.relu(ad.matmul(t(xv), wt)))
        ad.backward(loss)
        return wt.grad.copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# gradient checking


def test_gradient_check_quadratic_near_exact():
    x = t([1.0, -2.0, 0.5], grad=True)
    err = ad.gradient_check(lambda: sum_all(mul(x, x)), [x], h=1e-4)
    assert err <= 1e-8


def _zero_gradient_setup():
    rng = np.random.default_rng(2)
    return t(rng.normal(size=(2, 3)), grad=True), t(rng.normal(size=(2, 3))), t(rng.normal(size=(2, 3)))


def test_gradient_check_reads_an_exact_zero_gradient_as_agreement():
    # x's gradient, w - w, is exactly 0; its central difference is the loss's
    # roundoff over the step, which a bare 1e-8 denominator read as 2.2e-3
    x, w, c = _zero_gradient_setup()
    f = lambda: add(sum_all(mul(x, w)), sum_all(mul(sub(c, x), w)))
    ad.backward(f())
    assert not x.grad.any()
    ad.zero_grad([x])
    assert ad.gradient_check(f, [x], h=1e-5) <= 1e-6


def test_gradient_check_still_catches_a_gradient_one_percent_off():
    x, w, _ = _zero_gradient_setup()
    # the identity, with a backward 1.01 times too large
    too_large = lambda a: ad._result(a.data.copy(), (a,), lambda g: (1.01 * g,))
    assert ad.gradient_check(lambda: sum_all(mul(too_large(x), w)), [x], h=1e-5) > 1e-3


def test_gradient_check_rejects_bad_step():
    x = t([1.0], grad=True)
    with pytest.raises(ParameterError):
        ad.gradient_check(lambda: sum_all(x), [x], h=1e-2)


@pytest.mark.parametrize(
    "name",
    ["matmul", "affine", "softmax", "layer_norm", "conv", "relu", "mix"],
)
def test_gradient_check_each_primitive(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    c = Tensor(rng.normal(size=(4, 6)))  # fixed cotangent weights

    if name == "matmul":
        a = t(rng.normal(size=(4, 3)), grad=True)
        b = t(rng.normal(size=(3, 6)), grad=True)
        f = lambda: sum_all(mul(ad.matmul(a, b), c))
        params = [a, b]
    elif name == "affine":
        x = t(rng.normal(size=(4, 3)), grad=True)
        w = t(rng.normal(size=(3, 6)), grad=True)
        b = t(rng.normal(size=6), grad=True)
        f = lambda: sum_all(mul(ad.affine(x, w, b), c))
        params = [x, w, b]
    elif name == "softmax":
        x = t(rng.normal(size=(4, 6)), grad=True)
        f = lambda: sum_all(mul(ad.softmax_last(x), c))
        params = [x]
    elif name == "layer_norm":
        x = t(rng.normal(size=(4, 6)) * 2.0, grad=True)
        f = lambda: sum_all(mul(ad.layer_norm(x), c))
        params = [x]
    elif name == "conv":
        x = t(rng.normal(size=(7, 6)), grad=True)
        k = t(rng.normal(size=(3, 6)), grad=True)
        b = t(rng.normal(size=6), grad=True)
        c3 = Tensor(rng.normal(size=(3, 6)))
        f = lambda: sum_all(mul(ad.depthwise_conv1d(x, k, b, 3), c3))
        params = [x, k, b]
    elif name == "relu":
        # keep pre-activations away from the kink
        x = t(rng.normal(size=(4, 6)) + np.sign(rng.normal(size=(4, 6))) * 0.5, grad=True)
        f = lambda: sum_all(mul(ad.relu(x), c))
        params = [x]
    else:  # mix: transpose + slice + add + scale + sub + mean
        x = t(rng.normal(size=(4, 6)), grad=True)

        def f():
            y = transpose(x)  # (6, 4)
            a = slice_axis(y, -1, 0, 2)
            b = slice_axis(y, -1, 2, 4)
            z = add(a, scale(b, 2.0))
            return mean_all(mul(sub(z, Tensor(np.ones((6, 2)))), z))

        params = [x]

    assert ad.gradient_check(f, params, h=1e-5) <= 1e-4


# ---------------------------------------------------------------------------
# random graphs that reuse intermediate tensors

_GRAPH_OPS = {"add": add, "sub": sub, "mul": mul, "scale": scale, "matmul": ad.matmul, "transpose": transpose,
              "slice_axis": slice_axis, "sum_all": sum_all}
_LEAF_SHAPES = ((3, 2), (2, 3), (3, 2))  # two parameters, then a constant


def _draw_graph(data) -> list:
    """Steps ``(op, i, arg)``: op applied to tensor i (leaves first, then each
    step's output) and arg, a second tensor's index or the op's argument."""
    shapes, steps = list(_LEAF_SHAPES), []
    for _ in range(data.draw(st.integers(1, 7))):
        i = data.draw(st.integers(0, len(shapes) - 1))
        a = shapes[i]
        right = [j for j, s in enumerate(shapes) if len(a) == len(s) == 2 and s[0] == a[1]]
        ops = [op for op in _GRAPH_OPS if len(a) == 2 or op not in ("matmul", "transpose", "slice_axis")]
        op = data.draw(st.sampled_from([op for op in ops if op != "matmul" or right]))
        if op in ("add", "sub", "mul"):
            arg, out = data.draw(st.sampled_from([j for j, s in enumerate(shapes) if s == a])), a
        elif op == "matmul":
            arg = data.draw(st.sampled_from(right))
            out = (a[0], shapes[arg][1])
        elif op == "scale":
            arg, out = data.draw(st.sampled_from([-1.5, 0.5, 2.0])), a
        elif op == "slice_axis":
            axis = data.draw(st.integers(0, 1))
            start = data.draw(st.integers(0, a[axis] - 1))
            arg = (axis, start, data.draw(st.integers(start + 1, a[axis])))
            out = tuple(arg[2] - start if k == axis else n for k, n in enumerate(a))
        else:
            arg, out = None, (a[::-1] if op == "transpose" else (1,))
        steps.append((op, i, arg))
        shapes.append(out)
    return steps


def _graph_loss(steps, leaves, weights) -> Tensor:
    """The weighted sum of the parameters and every step's output."""
    ts = list(leaves)
    for op, i, arg in steps:
        if op in ("add", "sub", "mul", "matmul"):
            ts.append(_GRAPH_OPS[op](ts[i], ts[arg]))
        elif op == "scale":
            ts.append(scale(ts[i], arg))
        elif op == "slice_axis":
            ts.append(slice_axis(ts[i], *arg))
        else:
            ts.append(_GRAPH_OPS[op](ts[i]))
    terms = [sum_all(mul(x, t(w[: x.size].reshape(x.shape))))
             for x, w in zip(ts[:2] + ts[len(leaves):], weights)]
    loss = terms[0]
    for term in terms[1:]:
        loss = add(loss, term)
    return loss


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_random_graph_gradients(data, seed):
    steps = _draw_graph(data)
    rng = np.random.default_rng(seed)
    values = [rng.uniform(0.5, 1.5, s) for s in _LEAF_SHAPES]
    weights = rng.uniform(0.5, 1.5, (2 + len(steps), 9))

    def leaves():
        return [t(values[0], grad=True), t(values[1], grad=True), t(values[2])]

    first = leaves()
    assert ad.gradient_check(lambda: _graph_loss(steps, first, weights), first[:2]) <= 1e-6
    runs = []
    for params in (leaves()[:2], leaves()[:2]):
        ad.backward(_graph_loss(steps, params + [t(values[2])], weights))
        runs.append(params)
    for a, b in zip(*runs):
        assert np.array_equal(a.grad, b.grad)
    # a second backward into the same leaves leaves the first's arrays as they were
    params = runs[0]
    kept = [(p.grad, p.grad.copy()) for p in params]
    ad.backward(_graph_loss(steps, params + [t(values[2])], weights))
    for p, (array, copy) in zip(params, kept):
        assert np.array_equal(array, copy)
        assert np.allclose(p.grad, 2.0 * copy, rtol=1e-12, atol=0)
