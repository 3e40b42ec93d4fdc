"""Model tests: shape contracts, vanilla-attention equivalence,
permutation equivariance, parameter accounting, block gradients."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from helpers import composed_forward, count_nodes, per_head_attention_loop, vanilla_attention_reference
from tstransformer import autodiff as ad
from tstransformer.autodiff import Tensor
from tstransformer.cli import load_run_config
from tstransformer.errors import DimensionError, ParameterError
from tstransformer.model import (
    ModelConfig,
    TSTransformerModel,
    param_count,
    param_shapes,
)
from tstransformer.training import mse_loss


def toy_config(**kw):
    base = dict(n_variates=6, lookback=32, horizon=1, width=16, stages=4)
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


def test_config_validation():
    with pytest.raises(ParameterError):
        toy_config(ratios=(1.0, 0.5))  # wrong length
    with pytest.raises(ParameterError):
        toy_config(ratios=(1.0, 0.5, 0.25, 1.5))  # out of range
    with pytest.raises(ParameterError):
        toy_config(heads=3)  # must divide 16
    with pytest.raises(ParameterError):
        toy_config(mode="bidirectional")
    for eps in (0.0, float("nan")):
        with pytest.raises(ParameterError, match="eps"):
            toy_config(eps=eps)


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


def test_from_arrays_and_load_arrays_reject_a_wrong_count_or_shape():
    cfg = toy_config()
    arrays = [np.zeros(shape) for _, shape in param_shapes(cfg)]
    with pytest.raises(ParameterError, match="expected 60 parameter arrays, got 59"):
        TSTransformerModel.from_arrays(cfg, arrays[:-1])
    arrays[3] = np.zeros((2, 2))
    with pytest.raises(ParameterError, match="parameter 'stage0.q.bias' expects shape"):
        TSTransformerModel(cfg, seed=0).load_arrays(arrays)


# ---------------------------------------------------------------------------
# embed


def test_embed_shape():
    model = TSTransformerModel(toy_config(), seed=1)
    out = model.embed(np.zeros((32, 6)))
    assert out.shape == (6, 16)


def test_embed_per_variate_independence():
    model = TSTransformerModel(toy_config(), seed=2)
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=(32, 6))
    w2 = w1.copy()
    w2[:, 3] += rng.normal(size=32)
    d = np.abs(model.embed(w1).data - model.embed(w2).data)
    assert d[3].max() > 0.0
    mask = np.ones(6, dtype=bool)
    mask[3] = False
    assert d[mask].max() == 0.0


def test_embed_zero_window_zero_bias():
    model = TSTransformerModel(toy_config(), seed=3)  # biases init to zero
    assert np.array_equal(model.embed(np.zeros((32, 6))).data, np.zeros((6, 16)))


def test_embed_rejects_wrong_shape():
    model = TSTransformerModel(toy_config(), seed=3)
    with pytest.raises(DimensionError):
        model.embed(np.zeros((30, 6)))


# ---------------------------------------------------------------------------
# K/V reduction and attention


def test_reduce_kv_token_counts():
    model = TSTransformerModel(toy_config(), seed=4)
    tokens = Tensor(np.random.default_rng(1).normal(size=(20, 16)))
    for stage, expected in ((0, 20), (1, 5), (3, 1)):
        k, v = model.reduce_kv(tokens, stage)
        assert k.shape == (expected, 16) and v.shape == (expected, 16)


def test_attention_preserves_shape_for_all_stages():
    model = TSTransformerModel(toy_config(), seed=5)
    tokens = Tensor(np.random.default_rng(2).normal(size=(11, 16)))
    for stage in range(4):
        assert model.multi_scale_attention(tokens, stage).shape == (11, 16)


def test_single_key_degeneracy():
    # stage 3 collapses 6 tokens to one K/V token: softmax over one key
    # is exactly 1, so all output rows coincide.
    model = TSTransformerModel(toy_config(), seed=6)
    tokens = Tensor(np.random.default_rng(3).normal(size=(6, 16)))
    out = model.multi_scale_attention(tokens, 3).data
    assert np.array_equal(out, np.tile(out[:1], (6, 1)))


def test_vanilla_equivalence_at_init():
    cfg = toy_config(mode="vanilla")
    model = TSTransformerModel(cfg, seed=7)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=(6, 16))
        for stage in range(4):
            got = model.multi_scale_attention(Tensor(x), stage).data
            ref = vanilla_attention_reference(x, model, stage)
            assert np.max(np.abs(got - ref)) <= 1e-9


def test_vanilla_equivalence_multihead():
    cfg = toy_config(mode="vanilla", heads=4)
    model = TSTransformerModel(cfg, seed=8)
    x = np.random.default_rng(5).normal(size=(6, 16))
    got = model.multi_scale_attention(Tensor(x), 0).data
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
            out = ad.attention(q, k, v, heads)
            ad.backward(ad.sum_all(ad.mul(out, Tensor(cot))))
            fwd = out.data
        else:
            outs = per_head_attention_loop(q, k, v, heads)
            losses = [ad.sum_all(ad.mul(o, Tensor(cot[..., h * hd:(h + 1) * hd])))
                      for h, o in enumerate(outs)]
            loss = losses[0]
            for extra in losses[1:]:
                loss = ad.add(loss, extra)
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
    # the forward is one node; a training step adds mse_loss's sub, mul, mean_all
    cfg = load_run_config(None, (f"heads={heads}",)).model_config(5)
    model = TSTransformerModel(cfg, seed=0)
    x = np.random.default_rng(0).normal(size=(8, cfg.lookback, 5))
    out, nodes = count_nodes(lambda: model.forward(x))
    assert nodes == 1
    ad.backward(ad.sum_all(out))
    loss, nodes = count_nodes(lambda: mse_loss(model.forward(x, channel=0), np.zeros((8, 1, cfg.horizon))))
    assert nodes == 4
    ad.backward(loss)


# ---------------------------------------------------------------------------
# encoder block


def perturbed_model(cfg, seed):
    model = TSTransformerModel(cfg, seed=seed)
    for p in model.parameters():  # move reducers off their averaging init
        p.data[...] += 0.3 * np.random.default_rng(p.size).normal(size=p.shape)
    return model


ONE_KEY_SKIPS = ("q.weight", "q.bias", "k.weight", "k.bias", "k_reduce.kernel", "k_reduce.bias")


def assert_forward_matches_composed(model, window, cot, channel=None):
    """The one-node forward against the chain of primitives: the output and
    every parameter gradient bit for bit, except that a one-key stage's q, k
    and k reducer get None where the chain gives exact zeros. A parameter
    that does not require a gradient gets none from either."""
    cfg = model.config
    outs, grads = [], []
    for forward in (TSTransformerModel.forward, composed_forward):
        out = forward(model, window, channel)
        ad.backward(ad.sum_all(ad.mul(out, Tensor(cot))))
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
@pytest.mark.parametrize("m", [4, 5, 6])  # single-key stages 1-3 at M=4, 2-3 at 5 and 6
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_encoder_stage_matches_composed_block_bit_for_bit(heads, m, mode, lead):
    # the stages inside the one-node forward against composed stages,
    # reducers off their averaging init
    model = perturbed_model(toy_config(n_variates=m, heads=heads, mode=mode), seed=3)
    rng = np.random.default_rng(heads * 10 + m)
    x, cot = rng.normal(size=lead + (32, m)), rng.normal(size=lead + (m, 1))
    assert_forward_matches_composed(model, x, cot)


@pytest.mark.parametrize("frozen", [("embed.",), ("stage0.", "stage2."), ("project.",),
                                    ("embed.", "stage0.", "stage1.", "stage2.", "stage3.")])
def test_frozen_parameters_get_no_gradient_and_the_rest_match_the_chain(frozen):
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
        assert ad._stage_forward(tokens, arrays, r, cfg.heads, cfg.eps)[0].shape == (9, 16)


def test_trm_block_residual_only_path():
    model = TSTransformerModel(toy_config(), seed=10)
    for name, p in model.named_parameters():
        if name.startswith("stage0."):
            p.data[...] = 0.0
    x = np.random.default_rng(7).normal(size=(5, 16))
    got, _ = ad._stage_forward(x, model._stage_arrays[0], 1, model.config.heads, model.config.eps)
    want = ad.layer_norm(ad.layer_norm(Tensor(x), model.config.eps), model.config.eps).data
    assert np.allclose(got, want, atol=1e-12)


def one_stage_gradient_check(seed, heads, rng_seed):
    cfg = ModelConfig(n_variates=5, lookback=4, horizon=1, width=8, stages=1, ratios=(0.5,),
                      heads=heads)
    model = TSTransformerModel(cfg, seed=seed)
    window = np.random.default_rng(rng_seed).normal(size=(4, 5))
    # small cotangent keeps the loss ulp fine enough for the FD probe of
    # coordinates whose true gradient is zero by softmax shift invariance
    cot = Tensor(0.05 * np.random.default_rng(rng_seed + 1).normal(size=(5, 1)))
    f = lambda: ad.sum_all(ad.mul(model.forward(window), cot))
    return ad.gradient_check(f, model.parameters(), h=1e-4)


def test_trm_block_gradient_check():
    assert one_stage_gradient_check(seed=11, heads=1, rng_seed=8) <= 1e-4


def test_trm_block_gradient_check_multi_head():
    assert one_stage_gradient_check(seed=13, heads=4, rng_seed=10) <= 1e-4


def test_stage_index_out_of_range():
    model = TSTransformerModel(toy_config(), seed=12)
    with pytest.raises(ParameterError):
        model.multi_scale_attention(Tensor(np.zeros((3, 16))), 4)


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


@pytest.mark.parametrize("lead", [(), (4,)])
def test_forward_channel_is_the_full_forward_row_within_ulps(lead):
    # a one-row head product rounds differently from the M-row one
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
    # the head's forward and both backward products see (..., 1, .) arrays, not (..., M, .)
    model = TSTransformerModel(toy_config(n_variates=5, horizon=7), seed=15)
    head = model.param("project.weight").data
    rows = []
    affine, affine_grads = ad._affine, ad._affine_grads

    def watched_affine(x, w, b):
        out = affine(x, w, b)
        if w is head:
            rows.append(out.shape[-2])
        return out

    def watched_affine_grads(g, x, w, *want):
        if w is head:
            rows.append(g.shape[-2])
        return affine_grads(g, x, w, *want)

    monkeypatch.setattr(ad, "_affine", watched_affine)
    monkeypatch.setattr(ad, "_affine_grads", watched_affine_grads)
    x = np.random.default_rng(12).normal(size=lead + (32, 5))
    ad.backward(ad.sum_all(model.forward(x, channel=3)))
    assert rows == [1, 1]


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
        ad.backward(ad.sum_all(recorded))  # consumes its graph
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

    monkeypatch.setattr(ad, "_result", no_primitive)
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
    cfg = ModelConfig(n_variates=3, lookback=6, horizon=2, width=8, stages=2, ratios=(1.0, 0.25))
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
