"""Training tests: loss, Adam, the loop's determinism and abort paths,
checkpoint round-trips, and the rolling forecast."""

import dataclasses
import math
import os
import threading

import numpy as np
import pytest

from helpers import (
    adam_step_per_parameter,
    add,
    composed_forward,
    composed_mse_loss,
    edit_checkpoint_header,
    mul,
    stacked_windows,
    sum_all,
)
from tstransformer import autodiff as ad
from tstransformer import training
from tstransformer.autodiff import Tensor
from tstransformer.data import (
    DegradationSpec,
    NormStats,
    TimeSeries,
    make_windows,
    split_at,
    synth_degradation,
    zscore_apply,
    zscore_fit,
)
from tstransformer.errors import ContractError, CorruptionError, DimensionError, NumericalError, ParameterError
from tstransformer.metrics import rmse
from tstransformer.model import DEFAULT_RATIOS, MULTI_SCALE, VANILLA, ModelConfig, TSTransformerModel
from tstransformer.training import (
    TrainConfig,
    adam_init,
    adam_step,
    load_checkpoint,
    loss_history_csv,
    mse_loss,
    rolling_forecast,
    save_checkpoint,
    series_csv,
    train,
    write_atomic,
)


def tiny_setup(epochs=5, horizon=1, seed=0, n=260, noise=0.0):
    spec = DegradationSpec(noise_std_volts=noise)
    series = synth_degradation(3, n * 0.1, 3, spec)
    train_ts, _ = split_at(series, (n - 60) * 0.1)
    stats = zscore_fit(train_ts)
    windows = make_windows(zscore_apply(train_ts, stats), 16, horizon)
    cfg = ModelConfig(n_variates=3, lookback=16, horizon=horizon, width=8, ratios=(1.0, 0.25))
    model = TSTransformerModel(cfg, seed=seed)
    return series, stats, windows, model, TrainConfig(epochs=epochs, seed=seed, batch_size=32)


# ---------------------------------------------------------------------------
# loss


def test_mse_zero_for_exact():
    p = Tensor([[1.0, 2.0]])
    assert mse_loss(p, np.array([[1.0, 2.0]])).item() == 0.0


def test_mse_hand_value():
    assert mse_loss(Tensor([1.0, 2.0]), np.array([0.0, 0.0])).item() == pytest.approx(2.5, abs=1e-15)


def test_mse_gradient_is_two_diff_over_n():
    p = Tensor([1.0, 2.0, 5.0], requires_grad=True)
    truth = np.array([0.0, 1.0, 2.0])
    ad.backward(mse_loss(p, truth))
    assert np.allclose(p.grad, 2.0 * (p.data - truth) / 3.0, atol=1e-15)


def test_mse_shape_contract():
    with pytest.raises(ContractError):
        mse_loss(Tensor([1.0, 2.0]), np.array([[1.0, 2.0]]))


@pytest.mark.parametrize("truth, error", [
    (Tensor([0.0, 1.0], requires_grad=True), ContractError),  # the truth is a constant
    (np.array([0.0, np.nan]), ValueError),
    (np.array([0.0, np.inf]), ValueError),
    (np.zeros((2, 0)), DimensionError),
])
def test_mse_rejects_a_truth_that_is_not_constant_finite_data(truth, error):
    with pytest.raises(error):
        mse_loss(Tensor([1.0, 2.0], requires_grad=True), truth)


def _strided_truth(rng):
    # the gather train builds for loss_channels=all: (B, M, S) rows of (n, S, M) targets
    truth = rng.normal(size=(100, 7, 5)).swapaxes(1, 2)[rng.permutation(100)[:64]]
    assert truth.strides == (280, 8, 40)
    return truth


@pytest.mark.parametrize("make_truth", [
    lambda rng: rng.normal(size=(64, 1, 1)),
    lambda rng: rng.normal(size=(64, 1, 2000)),
    _strided_truth,
    lambda rng: rng.normal(size=13),
    lambda rng: Tensor(rng.normal(size=(64, 1, 7))),
], ids=["h1", "h2000", "strided-all-channels", "1d", "tensor"])
def test_mse_node_equals_the_composed_chain(make_truth):
    rng = np.random.default_rng(3)
    truth = make_truth(rng)
    runs = []
    for loss_fn in (mse_loss, composed_mse_loss):
        pred = Tensor(np.random.default_rng(4).normal(size=truth.shape) * 7.0, requires_grad=True)
        loss = loss_fn(pred, truth)
        ad.backward(loss)
        runs.append((loss.data, pred.grad))
    (loss, grad), (loss_ref, grad_ref) = runs
    assert np.array_equal(loss, loss_ref)
    assert np.array_equal(grad, grad_ref)


# ---------------------------------------------------------------------------
# adam


def test_adam_first_step_magnitude_is_lr():
    cfg = TrainConfig(learning_rate=0.01)
    p = Tensor([5.0, -3.0], requires_grad=True)
    p.grad = np.array([1.0, -2.0])
    state = adam_init([p])
    before = p.data.copy()
    adam_step([("p", p)], state, cfg)
    step = p.data - before
    assert np.allclose(np.abs(step), cfg.learning_rate, rtol=1e-6)
    assert step[0] < 0 < step[1]


def test_adam_zero_gradient_no_move():
    cfg = TrainConfig()
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.zeros(1)
    adam_step([("p", p)], adam_init([p]), cfg)
    assert p.data[0] == 1.0


def test_adam_minimizes_quadratic():
    cfg = TrainConfig(learning_rate=0.1)
    x = Tensor([5.0], requires_grad=True)
    state = adam_init([x])
    for _ in range(500):
        ad.zero_grad([x])
        ad.backward(sum_all(mul(x, x)))
        adam_step([("x", x)], state, cfg)
    assert abs(x.data[0]) < 0.01


def test_adam_aborts_on_nan_grad():
    cfg = TrainConfig()
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([np.nan])
    with pytest.raises(NumericalError, match="embedding"):
        adam_step([("embedding", p)], adam_init([p]), cfg)


def test_adam_checks_every_gradient_before_updating():
    cfg = TrainConfig()
    a, b = Tensor([1.0], requires_grad=True), Tensor([2.0, 3.0], requires_grad=True)
    a.grad, b.grad = np.array([0.5]), np.array([1.0, np.inf])
    state = adam_init([a, b])
    with pytest.raises(NumericalError, match="'b'"):
        adam_step([("a", a), ("b", b)], state, cfg)
    assert a.data[0] == 1.0 and np.array_equal(b.data, [2.0, 3.0])
    assert state.step == 0 and not state.m.any() and not state.v.any()


def test_flat_adam_matches_per_parameter_loop_bit_for_bit():
    cfg = TrainConfig(learning_rate=0.01)
    shapes = [(3, 4), (5,), (2, 2, 2), (1,)]
    rng = np.random.default_rng(31)
    init = [rng.normal(size=s) for s in shapes]
    grads = [[rng.normal(size=s) * 10.0 ** rng.uniform(-4, 2) for s in shapes] for _ in range(6)]

    def run(flat):
        params = [Tensor(x, requires_grad=True) for x in init]
        named = [(f"p{i}", p) for i, p in enumerate(params)]
        state = adam_init(params)
        m, v = [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
        norms = []
        for step, gs in enumerate(grads, start=1):
            for i, (p, g) in enumerate(zip(params, gs)):
                p.grad = None if (i + step) % 3 == 0 else g.copy()  # None counts as zero
            if flat:
                norms.append(adam_step(named, state, cfg))
            else:
                norms.append(adam_step_per_parameter(named, m, v, step, cfg))
        return norms, [p.data for p in params]

    (norms, got), (want_norms, want) = run(True), run(False)
    assert norms == want_norms and sum(n > cfg.clip_norm for n in norms) == 4  # 4 of the 6 steps clip
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("loss_channels", ["target", "all"])
@pytest.mark.parametrize("m", [4, 5, 6])  # single-key stages 1-3 at M=4, 2-3 at 5 and 6
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_training_steps_match_former_paths_bit_for_bit(heads, m, loss_channels, monkeypatch):
    # The one-node forward with single-key stages, the target-only head and
    # the flat Adam update against the chain of primitives with q/k/attention
    # in every stage and the target token sliced before the head, and the
    # per-parameter loop: every forward and the parameters after 5 steps,
    # each clipped to clip_norm by one norm over the joined gradient.
    cfg = ModelConfig(n_variates=m, lookback=8, horizon=3, heads=heads)
    tcfg = TrainConfig(learning_rate=0.05, clip_norm=0.5)
    rng = np.random.default_rng(heads * 10 + m)
    xs = rng.normal(size=(5, 8, 8, m))
    ys = rng.normal(size=(5, 8, m, 3))
    row = 2

    def run(former):
        model = TSTransformerModel(cfg, seed=4)
        named = model.named_parameters()
        params = [p for _, p in named]
        state = adam_init(params)
        moments = ([np.zeros_like(p.data) for p in params], [np.zeros_like(p.data) for p in params])
        seen, norms = [], []
        for step, (x, y) in enumerate(zip(xs, ys), start=1):
            if loss_channels == "all":
                pred, truth = model.forward(x), y
            else:
                pred, truth = model.forward(x, channel=row), y[:, row : row + 1]
            seen.append(pred.data)
            ad.backward(mse_loss(pred, truth))
            if not former:
                assert model.param("stage2.q.weight").grad is None  # the single-key path ran
            if former:
                norms.append(adam_step_per_parameter(named, *moments, step, tcfg))
            else:
                norms.append(adam_step(named, state, tcfg))
            ad.zero_grad(params)
        return seen + [p.data for p in params], norms

    new, norms = run(False)
    monkeypatch.setattr(TSTransformerModel, "forward", composed_forward)
    old, former_norms = run(True)
    assert norms == former_norms and all(n > tcfg.clip_norm for n in norms)  # every step clips
    assert len(new) == len(old) == 5 + len(TSTransformerModel(cfg).parameters())
    for got, want in zip(new, old):
        assert np.array_equal(got, want)


def test_adam_step_clips_by_the_global_norm():
    # Adam on the gradient scaled by clip_norm / norm when the norm exceeds
    # clip_norm, else on the gradient as it is; clip_norm=0 never scales.
    for clip_norm, factor in [(1.0, 1.0 / 5.0), (5.0, 1.0), (10.0, 1.0), (0.0, 1.0)]:
        a, b = Tensor([3.0], requires_grad=True), Tensor([4.0], requires_grad=True)
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        state = adam_init([a, b])
        norm = adam_step([("a", a), ("b", b)], state, TrainConfig(clip_norm=clip_norm))
        assert norm == 5.0  # before scaling
        assert a.grad[0] == 3.0 and b.grad[0] == 4.0
        ra, rb = Tensor([3.0], requires_grad=True), Tensor([4.0], requires_grad=True)
        ra.grad, rb.grad = np.array([3.0]) * factor, np.array([4.0]) * factor
        ref = adam_init([ra, rb])
        adam_step([("a", ra), ("b", rb)], ref, TrainConfig(clip_norm=0.0))
        assert np.array_equal(state.m, ref.m) and np.array_equal(state.v, ref.v)
        assert (a.data[0], b.data[0]) == (ra.data[0], rb.data[0])
        assert np.array_equal(state.m, (1.0 - TrainConfig.beta1) * (np.array([3.0, 4.0]) * factor))


def test_adam_step_clips_a_shared_gradient_without_writing_it():
    # add hands its one upstream gradient array to both inputs
    a, b = Tensor([1.0, 2.0], requires_grad=True), Tensor([3.0, 4.0], requires_grad=True)
    ad.backward(sum_all(mul(add(a, b), Tensor([3.0, 4.0]))))
    assert np.shares_memory(a.grad, b.grad)
    upstream = a.grad
    state = adam_init([a, b])
    norm = adam_step([("a", a), ("b", b)], state, TrainConfig(clip_norm=1.0))
    assert norm == math.sqrt(50.0)
    assert a.grad is upstream and b.grad is upstream and np.array_equal(upstream, [3.0, 4.0])
    assert np.array_equal(state.m, (1.0 - TrainConfig.beta1) * (np.array([3.0, 4.0, 3.0, 4.0]) * (1.0 / norm)))


# ---------------------------------------------------------------------------
# training loop


def test_train_loss_decreases():
    _, _, windows, model, cfg = tiny_setup(epochs=10)
    history = train(model, windows, cfg)
    assert len(history) == 10
    assert history[-1] < history[0]


def test_train_deterministic_history():
    _, _, windows, m1, cfg = tiny_setup(epochs=4, seed=5)
    _, _, _, m2, _ = tiny_setup(epochs=4, seed=5)
    assert train(m1, windows, cfg) == train(m2, windows, cfg)
    for (_, p1), (_, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert np.array_equal(p1.data, p2.data)
        assert np.all(np.isfinite(p1.data))  # parameters finite after every step


@pytest.mark.parametrize("epochs, rates", [
    (10, lambda lr: [lr] * 8 + [lr * 2 / 3, lr * 1 / 3]),  # a tail of 10 // 5 = 2 epochs
    (4, lambda lr: [lr] * 4),  # 4 // 5 = 0: no tail
], ids=["10-epochs", "4-epochs"])
def test_train_decays_the_learning_rate_over_the_last_fifth_of_epochs(epochs, rates, monkeypatch):
    _, _, windows, model, cfg = tiny_setup(epochs=epochs)
    seen = []

    def recording(named, state, config):
        seen.append(config.learning_rate)
        adam_step(named, state, config)

    monkeypatch.setattr(training, "adam_step", recording)
    train(model, windows, cfg)
    batches = math.ceil(len(windows) / cfg.batch_size)
    assert batches > 1
    assert seen == [rate for rate in rates(cfg.learning_rate) for _ in range(batches)]


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("loss_channels", ["target", "all"])
def test_train_on_window_views_matches_stacked_copies_bit_for_bit(loss_channels, stride):
    series, stats, _, _, _ = tiny_setup(noise=0.002)
    train_norm = zscore_apply(split_at(series, 20.0)[0], stats)
    args = (train_norm, 16, 2, stride)
    cfg = ModelConfig(n_variates=3, lookback=16, horizon=2, width=8, ratios=(1.0, 0.25))
    tcfg = TrainConfig(epochs=2, seed=3, batch_size=7, loss_channels=loss_channels)
    runs = []
    for windows in (make_windows(*args), stacked_windows(*args)):
        model = TSTransformerModel(cfg, seed=1)
        runs.append((train(model, windows, tcfg), [p.data for p in model.parameters()]))
    (history, params), (ref_history, ref_params) = runs
    assert history == ref_history and len(history) == 2
    assert all(np.array_equal(got, want) for got, want in zip(params, ref_params, strict=True))


def test_train_empty_dataset_contract():
    _, _, windows, model, cfg = tiny_setup()
    windows.inputs = windows.inputs[:0]
    with pytest.raises(ContractError):
        train(model, windows, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_divergence():
    # the normalization stages absorb almost any blow-up, so overflow to
    # inf needs an absurd learning rate; the abort names epoch and batch
    _, _, windows, model, _ = tiny_setup()
    cfg = TrainConfig(learning_rate=1e200, clip_norm=0.0, epochs=50, seed=0)
    with pytest.raises(NumericalError, match=r"epoch \d+, batch \d+"):
        train(model, windows, cfg)


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ParameterError):
        TrainConfig(batch_size=0)
    with pytest.raises(ParameterError):
        TrainConfig(loss_channels="some")


@pytest.mark.parametrize("field, value", [
    ("learning_rate", math.nan),
    ("beta1", math.nan), ("beta1", 1.0), ("beta1", 2.0), ("beta1", -0.1),
    ("beta2", math.nan), ("beta2", 1.0),
    ("adam_eps", math.nan), ("adam_eps", 0.0), ("adam_eps", -1.0),
    ("clip_norm", math.nan), ("clip_norm", -1.0),
    ("patience", -1),
    ("seed", -1),
])
def test_train_config_rejects_nan_and_out_of_range(field, value):
    with pytest.raises(ParameterError, match=field):
        TrainConfig(**{field: value})
    TrainConfig(beta1=0.0, clip_norm=0.0, patience=0)  # the bounds that stay allowed


@pytest.mark.parametrize("bad", ["2d-targets", "wrong-horizon"])
def test_train_checks_target_rank_once_before_any_forward(monkeypatch, bad):
    # hand-built windows whose targets are not (n, horizon, n_variates), under either loss
    series, stats, _, model, cfg = tiny_setup(epochs=3)  # a horizon-1 model over 3 variates
    windows = make_windows(zscore_apply(series, stats), 16, 1 if bad == "2d-targets" else 2)
    if bad == "2d-targets":  # the target column alone
        windows = dataclasses.replace(windows, targets=windows.targets[:, :, 0])
    calls = []
    monkeypatch.setattr(model, "forward", lambda *a, **kw: calls.append(a))
    for loss_channels in ("target", "all"):
        with pytest.raises(ContractError, match=r"targets \(.*\) are not \(windows="):
            train(model, windows, TrainConfig(epochs=3, loss_channels=loss_channels))
    assert calls == []


def test_one_window_set_trains_under_both_loss_channels():
    # the same make_windows result serves both losses: the target loss reads
    # only the target's rows (other channels' targets zeroed train alike, bit
    # for bit), the all-channel loss reads every row
    _, _, windows, _, _ = tiny_setup()
    ti = windows.channel_names.index(windows.target_channel)
    zeroed = np.zeros(windows.targets.shape)
    zeroed[:, :, ti] = windows.targets[:, :, ti]
    runs = {}
    for loss_channels in ("target", "all"):
        tcfg = TrainConfig(epochs=2, seed=0, batch_size=32, loss_channels=loss_channels)
        for name, ws in (("views", windows), ("zeroed", dataclasses.replace(windows, targets=zeroed))):
            model = tiny_setup()[3]
            runs[loss_channels, name] = train(model, ws, tcfg), [p.data for p in model.parameters()]
    (history, params), (ref_history, ref_params) = runs["target", "views"], runs["target", "zeroed"]
    assert history == ref_history and all(map(np.array_equal, params, ref_params))
    assert runs["all", "views"][0] != runs["all", "zeroed"][0]
    assert all(math.isfinite(h) for run, _ in runs.values() for h in run)


def test_train_all_channels_mode():
    series, stats, _, model, cfg = tiny_setup(epochs=2)
    train_ts, _ = split_at(series, 20.0)
    windows = make_windows(zscore_apply(train_ts, zscore_fit(train_ts)), 16, 1)
    cfg = TrainConfig(epochs=2, seed=0, loss_channels="all")
    history = train(model, windows, cfg)
    assert len(history) == 2 and all(math.isfinite(h) for h in history)


def test_early_stopping_patience():
    # constant data: loss is exactly zero every epoch, so the best loss
    # never improves and patience cuts the run short
    t = np.arange(60.0)
    feats = np.column_stack([np.full(60, 3.3), np.full(60, 70.0)])
    series = TimeSeries(t, feats, ("Utot_V", "I_A"))
    stats = zscore_fit(series)
    windows = make_windows(zscore_apply(series, stats), 8, 1)
    cfg_m = ModelConfig(n_variates=2, lookback=8, horizon=1, width=8, ratios=(1.0,))
    model = TSTransformerModel(cfg_m, seed=0)
    history = train(model, windows, TrainConfig(epochs=200, seed=0, patience=3))
    assert len(history) == 4  # first epoch sets the best, then 3 stale epochs
    assert all(h == 0.0 for h in history)


# ---------------------------------------------------------------------------
# rolling forecast


def test_rolling_covers_test_span_exactly():
    series, stats, windows, model, cfg = tiny_setup(epochs=2)
    train(model, windows, cfg)
    boundary = 20.0
    fc = rolling_forecast(model, series, stats, boundary)
    expected_times = series.time[series.time >= boundary]
    assert np.array_equal(fc.time, expected_times)
    assert len(fc.pred) == len(expected_times)


@pytest.mark.parametrize("step", [1, 4])
def test_rolling_calls_forward_once_per_round(step, monkeypatch):
    # the benchmark's tracer counts rollout rounds as model.forward calls; the
    # rollout hands every round its one build of the fused stage arrays, which
    # a forward given none builds for itself, with or without a kept row
    series, stats, _, model, _ = tiny_setup(horizon=4)
    calls, handed, builds = [], [], []
    forward, fuse_stages = TSTransformerModel.forward, TSTransformerModel._fuse_stages

    def counted(self, window, channel=None, **kwargs):
        calls.append(window.shape)
        handed.append(kwargs.get("_build"))
        return forward(self, window, channel, **kwargs)

    monkeypatch.setattr(TSTransformerModel, "forward", counted)
    monkeypatch.setattr(TSTransformerModel, "_fuse_stages",
                        lambda self, *args, **kwargs: builds.append(self) or fuse_stages(self, *args, **kwargs))
    boundary = 20.0
    fc = rolling_forecast(model, series, stats, boundary, step=step)
    assert len(calls) == math.ceil(len(fc.pred) / step) > 1
    assert set(calls) == {(16, 3)}
    assert builds == [model]
    assert handed[0] is not None and all(build is handed[0] for build in handed)
    window = np.random.default_rng(1).normal(size=(16, 3))
    with ad.no_grad():
        outside = model.forward(window, channel=1).data
        assert builds == [model, model]
        build = model._fuse_stages()
        inside = model.forward(window, channel=1, _build=build).data
    assert builds == [model] * 3
    assert inside.tobytes() == outside.tobytes()


def test_rollout_after_an_in_place_update_runs_the_updated_parameters():
    # nothing a rollout builds outlives it: after load_arrays the next rollout
    # is a loop of full-row forwards of the updated model, and the rollout of
    # a model that never ran one, bit for bit
    series = synth_degradation(3, 60.0, 5, DegradationSpec(noise_std_volts=0.0))
    boundary = 20.0
    stats = zscore_fit(split_at(series, boundary)[0])
    cfg = ModelConfig(n_variates=5, lookback=16, horizon=1, ratios=(1.0, 0.25, 0.125))  # two, two, one key
    model, donor = TSTransformerModel(cfg, seed=2), TSTransformerModel(cfg, seed=3)
    before = rolling_forecast(model, series, stats, boundary)
    model.load_arrays([p.data for p in donor.parameters()])
    after = rolling_forecast(model, series, stats, boundary)
    assert after.pred.tobytes() == rolling_forecast(donor, series, stats, boundary).pred.tobytes()

    work = zscore_apply(series, stats).features.copy()
    origin, ti = int(np.searchsorted(series.time, boundary)), series.target_index
    with ad.no_grad():
        for pos in range(origin, len(series)):
            work[pos, ti] = model.forward(work[pos - cfg.lookback : pos]).data[ti, 0]
    mean, std = stats.channel(series.target_channel)
    assert after.pred.tobytes() == (work[origin:, ti] * std + mean).tobytes()
    assert not np.array_equal(after.pred, before.pred)


def test_overlapping_rollouts_on_two_threads_leave_no_stale_build(monkeypatch):
    # Two rollouts of one model overlap as A enters, B enters, A exits, B
    # exits. Neither may leave behind a build that a later forward reads: after
    # load_arrays, forward runs the new parameters.
    series = synth_degradation(3, 40.0, 3)
    boundary = 20.0
    stats = zscore_fit(split_at(series, boundary)[0])
    cfg = ModelConfig(n_variates=3, lookback=16, horizon=4)
    model, donor = TSTransformerModel(cfg, seed=0), TSTransformerModel(cfg, seed=1)
    alone = rolling_forecast(model, series, stats, boundary).pred
    forward = TSTransformerModel.forward
    a_entered, b_entered, a_exited = threading.Event(), threading.Event(), threading.Event()
    waits, results = [], {}

    def ordered(self, window, *args, **kwargs):
        name = threading.current_thread().name
        if name == "A" and not a_entered.is_set():
            a_entered.set()
            waits.append(b_entered.wait(timeout=30))
        elif name == "B" and not b_entered.is_set():
            b_entered.set()
            waits.append(a_exited.wait(timeout=30))
        return forward(self, window, *args, **kwargs)

    def run():
        try:
            results[threading.current_thread().name] = rolling_forecast(model, series, stats, boundary).pred
        except Exception as exc:  # reported by the main thread
            results[threading.current_thread().name] = exc
        finally:
            if threading.current_thread().name == "A":
                a_exited.set()

    monkeypatch.setattr(TSTransformerModel, "forward", ordered)
    a, b = threading.Thread(target=run, name="A"), threading.Thread(target=run, name="B")
    a.start()
    waits.append(a_entered.wait(timeout=30))
    b.start()
    a.join(timeout=60)
    b.join(timeout=60)
    assert waits == [True, True, True] and not a.is_alive() and not b.is_alive()
    assert all(isinstance(results[name], np.ndarray) for name in "AB"), results
    assert [results[name].tobytes() for name in "AB"] == [alone.tobytes()] * 2

    model.load_arrays([p.data for p in donor.parameters()])
    window = np.random.default_rng(5).normal(size=(16, 3))
    with ad.no_grad():
        assert model.forward(window).data.tobytes() == donor.forward(window).data.tobytes()


def test_rolling_perfect_on_constant_series():
    # constant series: a freshly initialized model (zero biases) predicts
    # the window mean exactly, so the rollout reproduces the series
    t = np.arange(100.0)
    feats = np.column_stack([np.full(100, 3.3), np.full(100, 70.0)])
    series = TimeSeries(t, feats, ("Utot_V", "I_A"))
    train_ts, _ = split_at(series, 50.0)
    stats = zscore_fit(train_ts)
    cfg = ModelConfig(n_variates=2, lookback=8, horizon=1, width=8, ratios=(1.0,))
    model = TSTransformerModel(cfg, seed=0)
    fc = rolling_forecast(model, series, stats, 50.0)
    assert rmse(fc.pred, fc.true) == 0.0


def test_rolling_step_validation():
    series, stats, windows, model, cfg = tiny_setup(epochs=1, horizon=4)
    train(model, windows, cfg)
    with pytest.raises(ParameterError):
        rolling_forecast(model, series, stats, 20.0, step=9)


def test_rolling_needs_history():
    series, stats, _, model, _ = tiny_setup()
    with pytest.raises(ContractError):
        rolling_forecast(model, series, stats, series.time[2])


def test_rolling_covariate_modes_differ_only_with_varying_covariates():
    # constant covariates: oracle and hold_last see identical inputs
    t = np.arange(200.0) * 0.1
    rng = np.random.default_rng(4)
    target = 3.3 - 1e-3 * t + 1e-4 * rng.normal(size=200)
    feats = np.column_stack([target, np.full(200, 70.0)])
    series = TimeSeries(t, feats, ("Utot_V", "I_A"))
    train_ts, _ = split_at(series, 15.0)
    stats = zscore_fit(train_ts)
    cfg = ModelConfig(n_variates=2, lookback=8, horizon=1, width=8, ratios=(1.0,))
    model = TSTransformerModel(cfg, seed=1)
    a = rolling_forecast(model, series, stats, 15.0, covariate_mode="oracle")
    b = rolling_forecast(model, series, stats, 15.0, covariate_mode="hold_last")
    assert np.array_equal(a.pred, b.pred)

    varying = series.features.copy()
    varying[:, 1] = 70.0 + np.sin(t)
    series2 = TimeSeries(t, varying, ("Utot_V", "I_A"))
    stats2 = zscore_fit(split_at(series2, 15.0)[0])
    a2 = rolling_forecast(model, series2, stats2, 15.0, covariate_mode="oracle")
    b2 = rolling_forecast(model, series2, stats2, 15.0, covariate_mode="hold_last")
    assert not np.array_equal(a2.pred, b2.pred)


@pytest.mark.parametrize("mode, horizon, step, m, heads, vanilla", [
    pytest.param("hold_last", 1, None, 5, 1, False, id="hold_last-1-None"),
    pytest.param("hold_last", 4, 2, 5, 1, False, id="hold_last-4-2"),
    pytest.param("oracle", 1, None, 5, 1, False, id="oracle-1-None"),
    pytest.param("oracle", 4, 2, 5, 1, False, id="oracle-4-2"),
    # the default ratios: padded two-key blocks and one-key last stages
    pytest.param("oracle", 1, None, 9, 1, False, id="oracle-1-None-m9"),
    pytest.param("oracle", 4, 2, 9, 2, False, id="oracle-4-2-m9-heads2"),
    pytest.param("hold_last", 7, 3, 24, 2, False, id="hold_last-7-3-m24-heads2"),
    pytest.param("oracle", 1, None, 24, 1, False, id="oracle-1-None-m24"),
    # every stage r = 1
    pytest.param("oracle", 1, None, 5, 1, True, id="oracle-1-None-vanilla"),
    pytest.param("hold_last", 7, 3, 5, 2, True, id="hold_last-7-3-vanilla-heads2"),
])
def test_rollout_is_a_loop_of_full_forwards_bit_for_bit(mode, horizon, step, m, heads, vanilla):
    # The benchmark checks the first forecast value against a full-row forward
    # of the reloaded model, bit for bit: a rollout that runs another product
    # (one row, say) must change that check with it. At five variates a
    # one-row rollout differs from this one in the last bit of some values.
    # Every build holds every bias at its output's shape; a batched forward
    # broadcasts over them and a channel forward reads its row of them.
    series = synth_degradation(3, 60.0, min(m, 9), DegradationSpec(noise_std_volts=0.0))
    if m > 9:  # the synthetic series has at most 9 channels: add covariates with their own wobble
        extra = [series.features[:, 1 + k % 8] + 0.05 * np.sin(series.time / (3.0 + k)) for k in range(m - 9)]
        series = TimeSeries(series.time, np.column_stack([series.features, *extra]),
                            series.channel_names + tuple(f"extra{k}" for k in range(m - 9)))
    boundary = 20.0
    train_ts = split_at(series, boundary)[0]
    stats = zscore_fit(train_ts)
    ratios = (1.0, 0.5, 0.25) if m == 5 else DEFAULT_RATIOS  # at M = 5 r = 2 and r = 4 pad the tokens
    cfg = ModelConfig(n_variates=m, lookback=16, horizon=horizon, ratios=ratios, heads=heads,
                      mode=VANILLA if vanilla else MULTI_SCALE)
    model = TSTransformerModel(cfg, seed=2)
    train(model, make_windows(zscore_apply(train_ts, stats), 16, horizon), TrainConfig(epochs=1, batch_size=32))
    fc = rolling_forecast(model, series, stats, boundary, step=step, covariate_mode=mode)

    normed = zscore_apply(series, stats).features
    work = normed.copy()
    origin, ti = int(np.searchsorted(series.time, boundary)), series.target_index
    if mode == "hold_last":
        covariates = [c for c in range(work.shape[1]) if c != ti]
        work[origin:, covariates] = work[origin - 1, covariates]
    preds = []
    with ad.no_grad():
        for pos in range(origin, len(series), step or horizon):
            out = model.forward(work[pos - cfg.lookback : pos]).data
            take = min(step or horizon, len(series) - pos)
            work[pos : pos + take, ti] = out[ti, :take]
            preds.extend(out[ti, :take])
        fresh = TSTransformerModel.from_arrays(cfg, [p.data for p in model.parameters()])
        first = fresh.forward(normed[origin - cfg.lookback : origin]).data[ti, 0]
    mean, std = stats.channel(series.target_channel)
    assert fc.pred.tobytes() == (np.array(preds) * std + mean).tobytes()
    assert fc.pred[0] == first * std + mean

    batch = np.stack([normed[p - cfg.lookback : p] for p in (origin, origin + 1, origin + 2)])
    build = model._fuse_stages()
    with ad.no_grad():
        outside = model.forward(batch).data, model.forward(batch[0], channel=m - 1).data
        inside = model.forward(batch, _build=build).data, model.forward(batch[0], channel=m - 1, _build=build).data
    assert [a.tobytes() for a in inside] == [a.tobytes() for a in outside]
    d = cfg.width
    be, bp, stages = build
    biases = [(be, (m, d)), (bp, (m, horizon))]
    for r, fused in zip(cfg.reduction_factors, stages):
        keys = -(-m // r)
        width, kv_width = (d, d) if keys == 1 else (3 * d, 2 * d)  # a one-key stage runs v alone
        biases += zip(fused[1:2] + fused[3:], [(m, width), (keys, kv_width), (m, d), (m, d)])
    for bias, shape in biases:  # shared by the forwards of a build: read-only
        assert bias.shape == shape and not bias.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            bias[...] = 0.0


def test_rollout_lets_a_forward_error_that_is_not_non_finite_data_propagate(monkeypatch):
    # only forward's non-finite data error is a numerical failure of the data;
    # any other, such as an operand of the wrong shape, is raised as it is
    series, stats, _, model, _ = tiny_setup()
    forward, calls = TSTransformerModel.forward, []

    def failing(self, window, channel=None, **kwargs):
        calls.append(window.shape)
        if len(calls) == 2:
            raise ValueError("operands could not be broadcast together")
        return forward(self, window, channel, **kwargs)

    monkeypatch.setattr(TSTransformerModel, "forward", failing)
    with pytest.raises(ValueError, match="could not be broadcast"):
        rolling_forecast(model, series, stats, 20.0)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bitwise(tmp_path):
    series, stats, windows, model, cfg = tiny_setup(epochs=2)
    train(model, windows, cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, stats, "Utot_V", {"train.split_hours": "20.0"})
    ckpt = load_checkpoint(path)
    restored = ckpt.to_model()
    w = np.random.default_rng(2).normal(size=(16, 3))
    assert np.array_equal(model.forward(w).data, restored.forward(w).data)
    assert ckpt.header["train.split_hours"] == "20.0"
    assert ckpt.stats.channel_names == stats.channel_names
    assert np.array_equal(ckpt.stats.mean, stats.mean)


def test_checkpoint_payload_is_the_flat_parameter_vector(tmp_path):
    series, stats, windows, model, cfg = tiny_setup(epochs=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, stats, "Utot_V")
    blob = path.read_bytes()
    payload = model._theta.astype("<f8").tobytes()
    assert blob.endswith(payload) and len(blob) == 12 + int.from_bytes(blob[8:12], "little") + len(payload)


def test_checkpoint_arrays_are_read_only_views_of_one_payload_vector(tmp_path):
    series, stats, windows, model, cfg = tiny_setup(epochs=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, stats, "Utot_V")
    arrays = load_checkpoint(path).arrays
    payload = arrays[0].base
    assert payload.ndim == 1 and payload.size == model.parameter_count()
    assert np.array_equal(payload, model._theta)
    pos = 0
    for a, (_, p) in zip(arrays, model.named_parameters(), strict=True):
        assert a.base is payload and not a.flags.writeable and a.shape == p.shape
        assert a.__array_interface__["data"][0] == payload.__array_interface__["data"][0] + 8 * pos
        pos += a.size


def test_checkpoint_to_model_draws_no_random_init(tmp_path, monkeypatch):
    series, stats, windows, model, cfg = tiny_setup(epochs=2)
    train(model, windows, cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, stats, "Utot_V")
    ckpt = load_checkpoint(path)
    former = TSTransformerModel(ckpt.config, seed=0)  # the former to_model: an init, then overwritten
    former.load_arrays(ckpt.arrays)

    def no_rng(*args, **kwargs):
        raise AssertionError("to_model drew a random initialisation")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    restored = ckpt.to_model()
    monkeypatch.undo()
    assert not any(np.shares_memory(p.data, a) for p, a in zip(restored.parameters(), ckpt.arrays))
    w = np.random.default_rng(2).normal(size=(8, 16, 3))
    with ad.no_grad():
        assert np.array_equal(former.forward(w).data, restored.forward(w).data)


def test_checkpoint_truncation_detected(tmp_path):
    series, stats, windows, model, cfg = tiny_setup(epochs=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, stats, "Utot_V")
    blob = path.read_bytes()
    for cut in (2, 10, len(blob) - 9):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:cut])
        with pytest.raises(CorruptionError):
            load_checkpoint(bad)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CorruptionError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_header_width_edit_breaks_scalar_count(tmp_path):
    series, stats, windows, model, cfg = tiny_setup(epochs=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, stats, "Utot_V")
    blob = bytearray(path.read_bytes())
    header_len = int.from_bytes(blob[8:12], "little")
    header = blob[12 : 12 + header_len].decode("utf-8").replace("model.width=8", "model.width=9")
    new = blob[:8] + len(header.encode()).to_bytes(4, "little") + header.encode() + blob[12 + header_len :]
    bad = tmp_path / "edited.ckpt"
    bad.write_bytes(new)
    with pytest.raises(CorruptionError, match="scalar count"):
        load_checkpoint(bad)


def test_checkpoint_header_not_utf8_is_corruption(tmp_path):
    series, stats, windows, model, cfg = tiny_setup(epochs=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, stats, "Utot_V")
    blob = bytearray(path.read_bytes())
    blob[20] = 0xFF  # inside the header text
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError, match="utf-8"):
        load_checkpoint(path)


def test_checkpoint_non_finite_scalar_is_corruption(tmp_path):
    series, stats, windows, model, cfg = tiny_setup(epochs=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, stats, "Utot_V")
    blob = bytearray(path.read_bytes())
    payload = 12 + int.from_bytes(blob[8:12], "little")
    blob[payload : payload + 8] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError, match="non-finite"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, edit, message", [
    ("stats.mean", lambda v: v.rsplit(",", 1)[0], "2 means"),
    ("stats.std", lambda v: v + ",1.0", "4 stds"),
    ("stats.channels", lambda v: v + ",extra", "4 channels"),
    ("model.n_variates", lambda v: "4", "model.n_variates=4"),
    ("stats.std", lambda v: "0.0," + v.split(",", 1)[1], "<= 0"),
    ("stats.std", lambda v: "-1.0," + v.split(",", 1)[1], "<= 0"),
    ("stats.std", lambda v: "inf," + v.split(",", 1)[1], "finite"),
    ("stats.mean", lambda v: "nan," + v.split(",", 1)[1], "finite"),
    ("stats.target", lambda v: "missing", "'missing'"),
    ("stats.target", lambda v: None, "'stats.target'"),
    ("model.eps", lambda v: "nan", "finite"),
    ("model.ratios", lambda v: "1.0,inf", "finite"),
    ("model.stages", lambda v: "3", "model.stages=3 disagrees"),
    ("model.ratios", lambda v: "1.0", "model.stages=2 disagrees"),
    ("stats.channels", lambda v: ",".join(v.split(",")[:1] * 2 + v.split(",")[2:]), "twice"),
], ids=["short-mean", "long-std", "long-channels", "n-variates", "zero-std", "negative-std",
        "inf-std", "nan-mean", "target", "no-target", "nan-eps", "inf-ratio", "stages", "short-ratios",
        "duplicate-channel"])
def test_checkpoint_inconsistent_stats_or_non_finite_header_is_corruption(tmp_path, key, edit, message):
    series, stats, windows, model, cfg = tiny_setup(epochs=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, stats, "Utot_V")
    load_checkpoint(path)
    edit_checkpoint_header(path, key, edit)
    with pytest.raises(CorruptionError, match=message):
        load_checkpoint(path)


def test_field_codec_floats_reject_non_finite_text():
    decode_float, decode_floats = training.FIELD_CODECS["float"][1], training.FIELD_CODECS["tuple"][1]
    for text in ("nan", "inf", "-inf", "NaN", "1e999"):
        with pytest.raises(ValueError):
            decode_float(text)
        with pytest.raises(ValueError):
            decode_floats(f"1.0,{text}")
    assert decode_float("1e-05") == 1e-05 and decode_floats("1.0,0.25") == (1.0, 0.25)


def test_checkpoint_header_model_lines_follow_config_fields(tmp_path):
    cfg = ModelConfig(n_variates=3, lookback=16, horizon=4, width=8,
                      ratios=(1.0, 0.25), heads=2, mode="vanilla", eps=1e-6)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, TSTransformerModel(cfg, seed=0), tiny_setup()[1], "Utot_V")
    blob = path.read_bytes()
    header = blob[12 : 12 + int.from_bytes(blob[8:12], "little")].decode("utf-8")
    assert header.splitlines()[:9] == [
        "model.n_variates=3", "model.lookback=16", "model.horizon=4", "model.width=8",
        "model.stages=2", "model.ratios=1.0,0.25", "model.heads=2", "model.mode=vanilla",
        "model.eps=1e-06",
    ]
    assert load_checkpoint(path).config == cfg


@pytest.mark.parametrize("extra", [
    {"train.a=b": "1"},
    {"train.a\nmodel.width": "8"},
    {"train.a\r": "1"},
    {"train.covariate_mode": "oracle\nmodel.width=8"},
    {"train.covariate_mode": "oracle\rmodel.width=8"},
])
def test_checkpoint_header_rejects_unstorable_extra(tmp_path, extra):
    series, stats, windows, model, cfg = tiny_setup(epochs=1)
    path = tmp_path / "model.ckpt"
    with pytest.raises(ParameterError, match="checkpoint header entry"):
        save_checkpoint(path, model, stats, "Utot_V", extra)
    assert not path.exists()


@pytest.mark.parametrize("extra", [{"stats.target": "I_A"}, {"model.width": "8"}, {"stats.note": "x"}])
def test_checkpoint_header_rejects_extra_keys_it_owns(tmp_path, extra):
    # Extra entries were written after the model.* and stats.* lines, and the
    # last of a repeated key won: stats.target=I_A reloaded with target I_A,
    # and model.width=8 wrote a checkpoint that could not be loaded.
    series, stats, windows, model, cfg = tiny_setup(epochs=1)
    path = tmp_path / "model.ckpt"
    with pytest.raises(ParameterError, match=f"{next(iter(extra))!r} is under 'model.' or 'stats.'"):
        save_checkpoint(path, model, stats, "Utot_V", extra)
    assert not path.exists()


@pytest.mark.parametrize("key, repeat", [
    ("stats.target", "I_A"),
    ("model.width", "8"),
    ("train.seed", "1"),
])
def test_checkpoint_header_with_a_repeated_key_is_corruption(tmp_path, key, repeat):
    series, stats, windows, model, cfg = tiny_setup(epochs=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, stats, "Utot_V", {"train.seed": "0"})
    edit_checkpoint_header(path, key, lambda v: f"{v}\n{key}={repeat}")
    with pytest.raises(CorruptionError, match=f"names {key!r} twice"):
        load_checkpoint(path)


def test_save_checkpoint_writes_the_given_target_and_requires_one(tmp_path):
    # Channels ordered (I_A, Utot_V) with target Utot_V: a save without a
    # target once wrote the first channel, I_A, as stats.target.
    t = np.arange(40.0) * 0.1
    series = TimeSeries(t, np.column_stack([70.0 + np.sin(t), 3.3 - 1e-3 * t]), ("I_A", "Utot_V"), "Utot_V")
    stats = zscore_fit(series)
    model = TSTransformerModel(ModelConfig(n_variates=2, lookback=4, horizon=1), seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, stats, series.target_channel)
    assert load_checkpoint(path).header["stats.target"] == "Utot_V"
    bad = tmp_path / "bad.ckpt"
    for target in (None, "", "Pcell_W", {"target_channel": "Utot_V"}):  # the last is the former call
        with pytest.raises(ParameterError, match="checkpoint target"):
            save_checkpoint(bad, model, stats, target)
    with pytest.raises(TypeError, match="target"):
        save_checkpoint(bad, model, stats)
    assert not bad.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rolling_forecast_non_finite_round_is_numerical_error():
    series, stats, windows, model, cfg = tiny_setup(epochs=1)
    model.param("embed.weight").data *= 1e306
    with pytest.raises(NumericalError, match="non-finite forecast"):
        rolling_forecast(model, series, stats, 20.0)


# ---------------------------------------------------------------------------
# csv helpers


@pytest.mark.parametrize("failure", ["write", "rename"])
def test_write_atomic_failure_keeps_the_old_file(tmp_path, monkeypatch, failure):
    path = tmp_path / "model.ckpt"
    model = TSTransformerModel(ModelConfig(n_variates=2, lookback=4, horizon=1), seed=1)
    stats = NormStats(("a", "b"), np.zeros(2), np.ones(2), ())
    save_checkpoint(path, model, stats, "b")
    before = path.read_bytes()
    model.param("project.bias").data[...] = 1.0
    if failure == "write":
        with pytest.raises(TypeError):
            write_atomic(path, 12345)  # the temporary file exists when write() fails
    else:
        def refuse(src, dst):
            raise OSError("rename refused")
        monkeypatch.setattr(training.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            save_checkpoint(path, model, stats, "b")
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]


def test_write_atomic_replaces_with_the_usual_file_mode(tmp_path):
    plain, atomic = tmp_path / "plain.csv", tmp_path / "atomic.csv"
    plain.write_text("old\n")
    atomic.write_text("old\n")
    write_atomic(atomic, "new\n")
    assert atomic.read_text() == "new\n"
    assert os.stat(atomic).st_mode == os.stat(plain).st_mode
    assert sorted(os.listdir(tmp_path)) == ["atomic.csv", "plain.csv"]


def test_loss_history_csv_shape():
    text = loss_history_csv([0.5, 0.25])
    assert text.splitlines() == ["epoch,mean_loss", "1,0.5", "2,0.25"]


def test_forecast_csv_round_trip_floats():
    from tstransformer.training import ForecastResult

    fc = ForecastResult(
        time=np.array([500.05]), true=np.array([3.2987654321012345]),
        pred=np.array([3.2991]), target_channel="Utot_V",
    )
    text = series_csv(("time_h", "true_V", "pred_V"), fc.time, np.column_stack((fc.true, fc.pred)))
    line = text.splitlines()[1]
    t, y, p = (float(v) for v in line.split(","))
    assert (t, y, p) == (500.05, 3.2987654321012345, 3.2991)
