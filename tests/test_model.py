"""Model tests: shape contracts, vanilla-attention equivalence,
permutation equivariance, parameter accounting, block gradients."""

import functools
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    add,
    attention,
    composed_forward,
    count_nodes,
    embed,
    mul,
    multi_scale_attention,
    per_head_attention_loop,
    reduce_kv,
    sum_all,
    vanilla_attention_reference,
)
from tstransformer import autodiff as ad
from tstransformer import model as tst_model
from tstransformer.autodiff import Tensor
from tstransformer.cli import load_run_config
from tstransformer.errors import DimensionError, ParameterError
from tstransformer.model import (
    ModelConfig,
    TSTransformerModel,
    _fuse_stage,
    _stage_forward,
    param_count,
    param_shapes,
)
from tstransformer.training import TrainConfig, adam_init, adam_step, mse_loss


def toy_config(**kw):
    base = dict(n_variates=6, lookback=32, horizon=1, width=16)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_default_ratio_schedule():
    cfg = toy_config()
    assert cfg.ratios == (1.0, 0.25, 0.0625, 0.03125)
    assert cfg.reduction_factors == (1, 4, 16, 32)


def test_vanilla_mode_forces_unit_factors():
    cfg = toy_config(mode="vanilla")
    assert cfg.reduction_factors == (1, 1, 1, 1)


def test_stage_count_follows_ratios():
    assert toy_config().stages == 4
    assert toy_config(ratios=(1.0, 0.25)).stages == 2
    with pytest.raises(TypeError):
        ModelConfig(6, 32, 1, stages=4)  # derived, not passed


def test_config_validation():
    with pytest.raises(ParameterError, match="at least one stage ratio"):
        toy_config(ratios=())
    with pytest.raises(ParameterError):
        toy_config(ratios=(1.0, 0.5, 0.25, 1.5))  # out of range
    with pytest.raises(ParameterError):
        toy_config(heads=3)  # must divide 16
    with pytest.raises(ParameterError):
        toy_config(mode="bidirectional")
    for eps in (0.0, float("nan")):
        with pytest.raises(ParameterError, match="eps"):
            toy_config(eps=eps)


def test_subnormal_ratio_is_a_parameter_error():
    # 1 / 5e-324 is inf, so round(1 / r) in reduction_factors would raise OverflowError
    with pytest.raises(ParameterError, match="finite 1 / ratio, got 5e-324"):
        toy_config(ratios=(1.0, 0.25, 0.0625, 5e-324))
    # 1 / 1e-300 is finite, but its reducer kernels would hold 1e300 rows
    with pytest.raises(ParameterError, match="parameter scalars, more than MAX_PARAMETERS"):
        toy_config(ratios=(1.0, 0.25, 0.0625, 1e-300))


def test_parameter_count_is_bounded_before_allocation(monkeypatch):
    # 1e-9 sizes a (1e9, 16) reducer kernel pair: 32 000 006 785 scalars, 238 GiB
    monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated"))
    message = "needs 32000006785 parameter scalars, more than MAX_PARAMETERS = 134217728 "
    with pytest.raises(ParameterError, match=message):
        ModelConfig(5, 32, 1, ratios=(1.0, 0.25, 0.0625, 1e-9))


# ---------------------------------------------------------------------------
# parameter accounting


def closed_form_param_count(cfg) -> int:
    """The parameter count written out per layer, independent of ``param_shapes``."""
    d, tw, s = cfg.width, cfg.lookback, cfg.horizon
    total = tw * d + d  # embedding
    for r in cfg.reduction_factors:
        total += 4 * (d * d + d)  # q, k, v, output projections
        total += 2 * (r * d + d)  # k and v reducers
        total += d * d + d  # feed-forward
    total += d * s + s  # projection head
    return total


def test_param_count_matches_model():
    for cfg in (toy_config(), toy_config(mode="vanilla"), toy_config(horizon=8, heads=4)):
        assert param_count(cfg) == closed_form_param_count(cfg)
        assert param_count(cfg) == TSTransformerModel(cfg, seed=0).parameter_count()


def test_param_count_superlinear_in_width():
    small = param_count(toy_config(width=16))
    assert param_count(toy_config(width=32)) > 2 * small


def test_vanilla_multi_scale_differ_only_by_reducers():
    ms, va = toy_config(), toy_config(mode="vanilla")
    # every reducer kernel has r*D scalars vs D in vanilla; biases match
    expected_gap = 2 * sum((r - 1) * ms.width for r in ms.reduction_factors)
    assert param_count(ms) - param_count(va) == expected_gap


def test_checkpoint_order_is_stable():
    cfg = toy_config()
    model = TSTransformerModel(cfg, seed=1)
    names = [name for name, _ in model.named_parameters()]
    assert names[0] == "embed.weight" and names[-1] == "project.bias"
    assert len(names) == len(set(names))
    assert [(name, p.shape) for name, p in model.named_parameters()] == param_shapes(cfg)


def test_initial_parameters_are_pinned():
    # the layout table's order is the order the seeded generator fills the
    # weights in, so reordering or reshaping it moves this digest
    model = TSTransformerModel(toy_config(horizon=3, heads=2), seed=0)
    digest = hashlib.sha256()
    for name, p in model.named_parameters():
        digest.update(f"{name}{p.shape}".encode())
        digest.update(p.data.astype("<f8").tobytes())
    assert digest.hexdigest() == "40e7915ffd9c48d8fedb0bb12ab1a071f114a4438c004d45d47d97ee7145acf7"


def test_parameters_are_views_of_one_flat_vector_in_checkpoint_order():
    cfg = toy_config(horizon=3)
    stepped = TSTransformerModel(cfg, seed=0)
    window = np.random.default_rng(4).normal(size=(2, 32, 6))
    ad.backward(mse_loss(stepped.forward(window), np.zeros((2, 6, 3))))
    adam_step(stepped.named_parameters(), adam_init(stepped.parameters()), TrainConfig())  # in-place updates
    copied = TSTransformerModel.from_arrays(cfg, [np.ones(shape) for _, shape in param_shapes(cfg)])
    for model in (TSTransformerModel(cfg, seed=0), stepped, copied):
        theta = model._theta
        assert theta.ndim == 1 and theta.flags["C_CONTIGUOUS"] and theta.size == model.parameter_count()
        pos = 0
        for _, p in model.named_parameters():
            assert p.data.flags["C_CONTIGUOUS"] and p.data.base is theta
            assert p.data.__array_interface__["data"][0] == theta.__array_interface__["data"][0] + 8 * pos
            pos += p.size
        assert pos == theta.size
        assert np.array_equal(theta, np.concatenate([p.data.reshape(-1) for p in model.parameters()]))
    assert not np.array_equal(stepped._theta, TSTransformerModel(cfg, seed=0)._theta)


def test_load_arrays_reaches_the_no_grad_forward_through_stage_arrays():
    cfg = toy_config(n_variates=5)
    model, donor = TSTransformerModel(cfg, seed=0), TSTransformerModel(cfg, seed=1)
    window = np.random.default_rng(3).normal(size=(32, 5))
    with ad.no_grad():
        want = donor.forward(window).data
        assert not np.array_equal(model.forward(window).data, want)
        model.load_arrays([p.data for p in donor.parameters()])
        assert np.array_equal(model.forward(window).data, want)
    stage_views = [a for arrays in model._stage_arrays for a in arrays]
    assert all(a.base is model._theta for a in stage_views)


def test_from_arrays_and_load_arrays_reject_a_wrong_count_or_shape():
    cfg = toy_config()
    arrays = [np.zeros(shape) for _, shape in param_shapes(cfg)]
    with pytest.raises(ParameterError, match="expected 60 parameter arrays, got 59"):
        TSTransformerModel.from_arrays(cfg, arrays[:-1])
    arrays[3] = np.zeros((2, 2))
    model = TSTransformerModel(cfg, seed=0)
    before = model._theta.copy()
    with pytest.raises(ParameterError, match="parameter 'stage0.q.bias' expects shape"):
        model.load_arrays(arrays)
    assert np.array_equal(model._theta, before)  # every array is checked before any is written


# ---------------------------------------------------------------------------
# embed


def test_embed_shape():
    model = TSTransformerModel(toy_config(), seed=1)
    out = embed(model, np.zeros((32, 6)))
    assert out.shape == (6, 16)


def test_embed_per_variate_independence():
    model = TSTransformerModel(toy_config(), seed=2)
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=(32, 6))
    w2 = w1.copy()
    w2[:, 3] += rng.normal(size=32)
    d = np.abs(embed(model, w1).data - embed(model, w2).data)
    assert d[3].max() > 0.0
    mask = np.ones(6, dtype=bool)
    mask[3] = False
    assert d[mask].max() == 0.0


def test_embed_zero_window_zero_bias():
    model = TSTransformerModel(toy_config(), seed=3)  # biases init to zero
    assert np.array_equal(embed(model, np.zeros((32, 6))).data, np.zeros((6, 16)))


def test_embed_rejects_wrong_shape():
    model = TSTransformerModel(toy_config(), seed=3)
    with pytest.raises(DimensionError):
        embed(model, np.zeros((30, 6)))


# ---------------------------------------------------------------------------
# K/V reduction and attention


def test_reduce_kv_token_counts():
    model = TSTransformerModel(toy_config(), seed=4)
    tokens = Tensor(np.random.default_rng(1).normal(size=(20, 16)))
    for stage, expected in ((0, 20), (1, 5), (3, 1)):
        k, v = reduce_kv(model, tokens, stage)
        assert k.shape == (expected, 16) and v.shape == (expected, 16)


def test_attention_preserves_shape_for_all_stages():
    model = TSTransformerModel(toy_config(), seed=5)
    tokens = Tensor(np.random.default_rng(2).normal(size=(11, 16)))
    for stage in range(4):
        assert multi_scale_attention(model, tokens, stage).shape == (11, 16)


def test_single_key_degeneracy():
    # stage 3 collapses 6 tokens to one K/V token: softmax over one key
    # is exactly 1, so all output rows coincide.
    model = TSTransformerModel(toy_config(), seed=6)
    tokens = Tensor(np.random.default_rng(3).normal(size=(6, 16)))
    out = multi_scale_attention(model, tokens, 3).data
    assert np.array_equal(out, np.tile(out[:1], (6, 1)))


def test_vanilla_equivalence_at_init():
    cfg = toy_config(mode="vanilla")
    model = TSTransformerModel(cfg, seed=7)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=(6, 16))
        for stage in range(4):
            got = multi_scale_attention(model, Tensor(x), stage).data
            ref = vanilla_attention_reference(x, model, stage)
            assert np.max(np.abs(got - ref)) <= 1e-9


def test_vanilla_equivalence_multihead():
    cfg = toy_config(mode="vanilla", heads=4)
    model = TSTransformerModel(cfg, seed=8)
    x = np.random.default_rng(5).normal(size=(6, 16))
    got = multi_scale_attention(model, Tensor(x), 0).data
    assert np.max(np.abs(got - vanilla_attention_reference(x, model, 0))) <= 1e-9


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("j", [1, 2, 6])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_matches_per_head_loop_bit_for_bit(heads, j, lead):
    rng = np.random.default_rng(heads * 10 + j)
    arrays = [rng.normal(size=lead + (rows, 16)) for rows in (6, j, j)]
    cot = rng.normal(size=lead + (6, 16))
    hd = 16 // heads

    def run(fused):
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
        if fused:
            out = attention(q, k, v, heads)
            ad.backward(sum_all(mul(out, Tensor(cot))))
            fwd = out.data
        else:
            outs = per_head_attention_loop(q, k, v, heads)
            losses = [sum_all(mul(o, Tensor(cot[..., h * hd:(h + 1) * hd])))
                      for h, o in enumerate(outs)]
            loss = losses[0]
            for extra in losses[1:]:
                loss = add(loss, extra)
            ad.backward(loss)
            fwd = np.concatenate([o.data for o in outs], axis=-1)
        return [fwd, q.grad, k.grad, v.grad]

    for got, want in zip(run(True), run(False)):
        assert np.array_equal(got, want)


def test_discarded_recorded_forwards_hold_no_memory():
    # a recorded forward never backpropagated frees its graph with its output
    cfg = load_run_config(None, ("horizon=2000",)).model_config(5)
    model = TSTransformerModel(cfg, seed=0)
    x = np.random.default_rng(0).normal(size=(64, cfg.lookback, 5))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            model.forward(x)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 1e6


@pytest.mark.parametrize("heads", [1, 4])
def test_recorded_forward_tape_nodes(heads):
    # the forward is one node; a training step adds mse_loss's one node
    cfg = load_run_config(None, (f"heads={heads}",)).model_config(5)
    model = TSTransformerModel(cfg, seed=0)
    x = np.random.default_rng(0).normal(size=(8, cfg.lookback, 5))
    out, nodes = count_nodes(lambda: model.forward(x))
    assert nodes == 1
    ad.backward(sum_all(out))
    loss, nodes = count_nodes(lambda: mse_loss(model.forward(x, channel=0), np.zeros((8, 1, cfg.horizon))))
    assert nodes == 2
    ad.backward(loss)


# ---------------------------------------------------------------------------
# encoder block


def perturbed_model(cfg, seed):
    model = TSTransformerModel(cfg, seed=seed)
    for p in model.parameters():  # move reducers off their averaging init
        p.data[...] += 0.3 * np.random.default_rng(p.size).normal(size=p.shape)
    return model


ONE_KEY_SKIPS = ("q.weight", "q.bias", "k.weight", "k.bias", "k_reduce.kernel", "k_reduce.bias")


def assert_forward_matches_composed(model, window, cot, channel=None, build=None):
    """The one-node forward, on ``build`` if given, against the chain of
    primitives: the output and every parameter gradient bit for bit, except
    that a one-key stage's q, k and k reducer get None where the chain gives
    exact zeros. A parameter that does not require a gradient gets none from
    either."""
    cfg = model.config
    outs, grads = [], []
    for forward in (functools.partial(TSTransformerModel.forward, _build=build), composed_forward):
        out = forward(model, window, channel)
        ad.backward(sum_all(mul(out, Tensor(cot))))
        outs.append(out.data)
        grads.append([p.grad for p in model.parameters()])
        ad.zero_grad(model.parameters())
    assert np.array_equal(*outs)
    for (name, p), got, want in zip(model.named_parameters(), *grads):
        stage, _, rest = name.partition(".")
        if not p.requires_grad:
            assert got is None and want is None, name
        elif (stage.startswith("stage") and cfg.n_variates <= cfg.reduction_factors[int(stage[5:])]
                and rest in ONE_KEY_SKIPS):
            assert got is None and not want.any(), name
        else:
            assert np.array_equal(got, want), name


@pytest.mark.parametrize("lead", [(), (8,)])
@pytest.mark.parametrize("mode", ["multi_scale", "vanilla"])
# single-key stages 1-3 at M=4, 2-3 at 5 and 6; at heads == width (head width
# 1) and 8 or more keys the joined K|V gradient came out as a strided view,
# whose reducer bias gradient summed in another order than the chain's
@pytest.mark.parametrize("heads, m", [(h, m) for h in (1, 2, 4) for m in (4, 5, 6)]
                         + [(16, m) for m in (8, 9, 12, 27)])
def test_encoder_stage_matches_composed_block_bit_for_bit(heads, m, mode, lead):
    # the stages inside the one-node forward against composed stages,
    # reducers off their averaging init
    model = perturbed_model(toy_config(n_variates=m, heads=heads, mode=mode), seed=3)
    rng = np.random.default_rng(heads * 10 + m)
    x, cot = rng.normal(size=lead + (32, m)), rng.normal(size=lead + (m, 1))
    assert_forward_matches_composed(model, x, cot)


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("m", [9, 24])  # 9 tokens pad the last stage's r = 4 blocks to 12; 24 fill six
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_two_key_last_stage_on_one_row_matches_composed_bit_for_bit(heads, m, lead):
    # the last stage's K and V from one product with its fused [k|v] columns and
    # one convolution, its q from the kept row's own product, against the chain
    model = perturbed_model(toy_config(n_variates=m, heads=heads, ratios=(1.0, 0.25)), seed=5)
    rng = np.random.default_rng(heads * 100 + m)
    x = rng.normal(size=lead + (32, m))
    for channel in (0, m - 1):
        assert_forward_matches_composed(model, x, rng.normal(size=lead + (1, 1)), channel)


def test_head_width_one_out_weight_gradient_matches_composed_bit_for_bit():
    # at heads == width the merged attention output was a strided view, whose
    # out weight gradient summed its 16 rows in another order than the chain's
    cfg = ModelConfig(n_variates=16, lookback=1, horizon=1, width=4, ratios=(1.0,), heads=4)
    model = TSTransformerModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    model.load_arrays([0.5 * rng.normal(size=p.shape) for p in model.parameters()])
    assert_forward_matches_composed(model, rng.normal(size=(1, 16)), rng.normal(size=(16, 1)))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_every_forward_path_matches_the_composed_chain_bit_for_bit(data):
    # one property over the paths a forward may mix: one- and two-key stages,
    # padded and one-tap reducers, one head or head width 1, a kept row, lead
    # axes, recorded or not, its own build or one handed to it
    draw = data.draw
    m = draw(st.integers(1, 40), label="m")
    width = draw(st.sampled_from([4, 8, 16]), label="width")
    heads = draw(st.sampled_from([h for h in range(1, width + 1) if width % h == 0]), label="heads")
    factors = draw(st.lists(st.integers(1, 48), min_size=1, max_size=4), label="factors")  # r > M too
    cfg = ModelConfig(n_variates=m, lookback=draw(st.integers(1, 24), label="lookback"),
                      horizon=draw(st.integers(1, 8), label="horizon"), width=width,
                      ratios=tuple(1.0 / r for r in factors), heads=heads,
                      mode=draw(st.sampled_from(["multi_scale", "vanilla"]), label="mode"))
    lead = draw(st.sampled_from([(), (1,), (3,)]), label="lead")
    channel = draw(st.none() | st.integers(0, m - 1), label="channel")
    recorded, inside = draw(st.booleans(), label="recorded"), draw(st.booleans(), label="inside")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    model = TSTransformerModel(cfg, seed=0)
    model.load_arrays([0.5 * rng.normal(size=p.shape) for p in model.parameters()])  # nonzero biases
    window = rng.normal(size=lead + (cfg.lookback, m))
    build = model._fuse_stages() if inside else None
    if recorded:
        cot = rng.normal(size=lead + (m if channel is None else 1, cfg.horizon))
        assert_forward_matches_composed(model, window, cot, channel, build)
    else:
        with ad.no_grad():
            got, want = model.forward(window, channel, _build=build), composed_forward(model, window, channel)
        assert np.array_equal(got.data, want.data)


EVERY_BIAS = tuple(name for name, _ in param_shapes(toy_config(n_variates=5)) if name.endswith(".bias"))


@pytest.mark.parametrize("frozen", [("embed.",), ("stage0.", "stage2."), ("project.",),
                                    ("embed.", "stage0.", "stage1.", "stage2.", "stage3."),
                                    ("stage1.k_reduce.kernel",), ("project.bias",), EVERY_BIAS])
def test_frozen_parameters_get_no_gradient_and_the_rest_match_the_chain(frozen):
    # only backward drops a frozen tensor's gradient, whichever tensors are frozen
    model = perturbed_model(toy_config(n_variates=5, heads=2), seed=3)
    for name, p in model.named_parameters():
        p.requires_grad = not name.startswith(frozen)
    rng = np.random.default_rng(0)
    assert_forward_matches_composed(model, rng.normal(size=(3, 32, 5)), rng.normal(size=(3, 5, 1)))


def test_trm_block_preserves_shape():
    model = TSTransformerModel(toy_config(), seed=9)
    cfg = model.config
    tokens = np.random.default_rng(6).normal(size=(9, 16))
    for arrays, r in zip(model._stage_arrays, cfg.reduction_factors):
        assert _stage_forward(tokens, _fuse_stage(arrays, r, 9), cfg.heads, cfg.eps)[0].shape == (9, 16)


def test_trm_block_residual_only_path():
    model = TSTransformerModel(toy_config(), seed=10)
    for name, p in model.named_parameters():
        if name.startswith("stage0."):
            p.data[...] = 0.0
    x = np.random.default_rng(7).normal(size=(5, 16))
    got, _ = _stage_forward(x, _fuse_stage(model._stage_arrays[0], 1, 5), model.config.heads, model.config.eps)
    want = ad.layer_norm(ad.layer_norm(Tensor(x), model.config.eps), model.config.eps).data
    assert np.allclose(got, want, atol=1e-12)


def one_stage_gradient_check(seed, heads, rng_seed):
    cfg = ModelConfig(n_variates=5, lookback=4, horizon=1, width=8, ratios=(0.5,),
                      heads=heads)
    model = TSTransformerModel(cfg, seed=seed)
    window = np.random.default_rng(rng_seed).normal(size=(4, 5))
    # small cotangent keeps the loss ulp fine enough for the FD probe of
    # coordinates whose true gradient is zero by softmax shift invariance
    cot = Tensor(0.05 * np.random.default_rng(rng_seed + 1).normal(size=(5, 1)))
    f = lambda: sum_all(mul(model.forward(window), cot))
    return ad.gradient_check(f, model.parameters(), h=1e-4)


def test_trm_block_gradient_check():
    assert one_stage_gradient_check(seed=11, heads=1, rng_seed=8) <= 1e-4


def test_trm_block_gradient_check_multi_head():
    assert one_stage_gradient_check(seed=13, heads=4, rng_seed=10) <= 1e-4


def test_stage_index_out_of_range():
    model = TSTransformerModel(toy_config(), seed=12)
    with pytest.raises(ParameterError):
        multi_scale_attention(model, Tensor(np.zeros((3, 16))), 4)


# ---------------------------------------------------------------------------
# forward


def test_forward_shape():
    model = TSTransformerModel(toy_config(), seed=13)
    out = model.forward(np.random.default_rng(10).normal(size=(32, 6)))
    assert out.shape == (6, 1)


def test_forward_deterministic_bitwise():
    model = TSTransformerModel(toy_config(), seed=14)
    w = np.random.default_rng(11).normal(size=(32, 6))
    assert np.array_equal(model.forward(w).data, model.forward(w).data)


def test_forward_batch_matches_single():
    model = TSTransformerModel(toy_config(horizon=3), seed=15)
    batch = np.random.default_rng(12).normal(size=(4, 32, 6))
    out = model.forward(batch).data
    assert out.shape == (4, 6, 3)
    for i in range(4):
        assert np.allclose(out[i], model.forward(batch[i]).data, atol=1e-12)


@pytest.mark.parametrize("lead", [(), (4,), (1,)])
def test_forward_channel_is_the_full_forward_row_within_ulps(lead):
    # a (1, width) product (one window, or a batch of one) runs as a BLAS
    # matrix-vector kernel and rounds differently from the M-row matrix-matrix one
    model = TSTransformerModel(toy_config(horizon=3), seed=15)
    x = np.random.default_rng(12).normal(size=lead + (32, 6))
    with ad.no_grad():
        full = model.forward(x).data
        for c in range(6):
            row = model.forward(x, channel=c).data
            assert row.shape == full[..., c : c + 1, :].shape
            assert np.allclose(row, full[..., c : c + 1, :], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("lead", [(), (4,)])
def test_recorded_channel_forward_runs_the_head_on_one_row(lead, monkeypatch):
    # the head's and the last stage's q, out and FFN affines see (..., 1, .)
    # arrays in the forward and in both backward products, not (..., M, .);
    # only K and V read every token: in the forward through one product with
    # the [k|v] columns of the stage's fused weight ("stage3.kv"), in the
    # backward through k's and v's own weights
    watched, fused = {}, []
    affine, affine_grads, fuse_stage = tst_model._affine, tst_model._affine_grads, tst_model._fuse_stage

    def watched_fuse_stage(arrays, r, n, *args):
        fused.append(fuse_stage(arrays, r, n, *args))
        return fused[-1]

    def name_of(w):
        if id(w) in watched:
            return watched[id(w)]
        # stages fuse in order, so the last stage's build comes last; a
        # one-key stage's w is v's own weight, which is watched by id
        return "stage3.kv" if fused and np.shares_memory(w, fused[-1].w) else None

    def watched_affine(x, w, b):
        out = affine(x, w, b)
        if (name := name_of(w)) is not None:
            rows[name].append(out.shape[-2])
        return out

    def watched_affine_grads(g, x, w, want_x):
        if (name := name_of(w)) is not None:
            rows[name].append(g.shape[-2])
        return affine_grads(g, x, w, want_x)

    monkeypatch.setattr(tst_model, "_fuse_stage", watched_fuse_stage)
    monkeypatch.setattr(tst_model, "_affine", watched_affine)
    monkeypatch.setattr(tst_model, "_affine_grads", watched_affine_grads)
    x = np.random.default_rng(12).normal(size=lead + (32, 5))
    for mode, q_rows in (("multi_scale", []), ("vanilla", [1, 1])):  # a one-key last stage runs no q
        model = TSTransformerModel(toy_config(n_variates=5, horizon=7, mode=mode), seed=15)
        names = ("project", "stage3.out", "stage3.ffn", "stage3.q", "stage3.k", "stage3.v")
        watched.clear()
        watched.update((id(model.param(f"{name}.weight").data), name) for name in names)
        rows = {name: [] for name in names + ("stage3.kv",)}
        ad.backward(sum_all(model.forward(x, channel=3)))
        assert rows == {"project": [1, 1], "stage3.out": [1, 1], "stage3.ffn": [1, 1], "stage3.q": q_rows,
                        "stage3.kv": [5] if q_rows else [], "stage3.k": [5] if q_rows else [],
                        "stage3.v": [5] if q_rows else [5, 5]}, mode


@pytest.mark.parametrize("channel", [-1, 6])
def test_forward_channel_out_of_range(channel):
    model = TSTransformerModel(toy_config(), seed=15)
    with pytest.raises(ParameterError):
        model.forward(np.zeros((32, 6)), channel=channel)


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("horizon", [1, 7])
@pytest.mark.parametrize("m", [1, 5, 9])  # every stage one-key at M=1; stages 2-3 at 5, 9
@pytest.mark.parametrize("mode", ["multi_scale", "vanilla"])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_untaped_forward_matches_recorded_bit_for_bit(heads, mode, m, horizon, lead):
    # the untaped forward against the recorded one, and the recorded one against
    # the chain of primitives (output and every parameter gradient)
    model = TSTransformerModel(toy_config(n_variates=m, horizon=horizon, heads=heads, mode=mode), seed=m)
    rng = np.random.default_rng(heads * 100 + m * 10 + horizon)
    model.load_arrays([0.5 * rng.normal(size=p.shape) for p in model.parameters()])  # nonzero biases
    x = rng.normal(size=lead + (32, m))
    for channel in (None, m - 1):
        recorded = model.forward(x, channel=channel)
        ad.backward(sum_all(recorded))  # consumes its graph
        ad.zero_grad(model.parameters())
        with ad.no_grad():
            untaped = model.forward(x, channel=channel)
        assert not untaped.requires_grad
        assert untaped.shape == recorded.shape
        assert np.array_equal(untaped.data, recorded.data)
        assert_forward_matches_composed(model, x, rng.normal(size=recorded.shape), channel)


def test_untaped_forward_tapes_nothing_and_calls_no_primitive(monkeypatch):
    model = TSTransformerModel(toy_config(horizon=3), seed=15)
    x = np.random.default_rng(12).normal(size=(4, 32, 6))

    def no_primitive(*args):
        raise AssertionError("a taped primitive ran under no_grad")

    for module in (ad, tst_model):  # the model calls autodiff's _result by its own name
        monkeypatch.setattr(module, "_result", no_primitive)
    with ad.no_grad():
        _, nodes = count_nodes(lambda: (model.forward(x), model.forward(x[0], channel=2)))
    assert nodes == 0


@pytest.mark.parametrize("window, channel, error", [
    (np.zeros((30, 6)), None, DimensionError),  # wrong lookback
    (np.zeros((32, 5)), None, DimensionError),  # wrong variate count
    (np.zeros(32), None, DimensionError),  # no variate axis
    (np.zeros((0, 32, 6)), None, DimensionError),  # empty batch
    (np.where(np.eye(32, 6) > 0, np.nan, 0.0), None, ValueError),
    (np.full((32, 6), np.inf), None, ValueError),
    (np.zeros((32, 6)), 6, ParameterError),
    (np.full((32, 6), 1e307), None, ValueError),  # finite, but the window sum overflows
])
def test_forward_rejects_bad_input_alike_recorded_and_untaped(window, channel, error):
    model = TSTransformerModel(toy_config(), seed=15)

    def rejected():
        with pytest.raises(error):
            model.forward(window, channel=channel)
        with ad.no_grad(), pytest.raises(error):
            model.forward(window, channel=channel)

    assert count_nodes(rejected)[1] == 0


def test_vanilla_forward_permutation_equivariant():
    model = TSTransformerModel(toy_config(mode="vanilla"), seed=16)
    rng = np.random.default_rng(13)
    w = rng.normal(size=(32, 6))
    base = model.forward(w).data
    for _ in range(5):
        perm = rng.permutation(6)
        assert np.allclose(model.forward(w[:, perm]).data, base[perm], atol=1e-9)


def test_multi_scale_forward_not_permutation_equivariant():
    # token-axis convolution is order sensitive once any factor exceeds 1
    model = TSTransformerModel(toy_config(), seed=17)
    w = np.random.default_rng(14).normal(size=(32, 6))
    base = model.forward(w).data
    perm = np.array([5, 4, 3, 2, 1, 0])
    assert not np.allclose(model.forward(w[:, perm]).data, base[perm], atol=1e-9)


def test_full_model_gradient_check_small():
    cfg = ModelConfig(n_variates=3, lookback=6, horizon=2, width=8, ratios=(1.0, 0.25))
    model = TSTransformerModel(cfg, seed=18)
    rng = np.random.default_rng(15)
    window = rng.normal(size=(6, 3))
    with ad.no_grad():
        base = model.forward(window).data.copy()
    target = base + 0.1 * rng.normal(size=base.shape)
    f = lambda: mse_loss(model.forward(window), target)
    assert ad.gradient_check(f, model.parameters(), h=1e-4) <= 1e-4


def test_load_arrays_shape_guard():
    model = TSTransformerModel(toy_config(), seed=19)
    arrays = [p.data.copy() for _, p in model.named_parameters()]
    arrays[0] = arrays[0][:-1]
    with pytest.raises(ParameterError):
        model.load_arrays(arrays)
