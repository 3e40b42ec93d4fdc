"""Temporal-scale transformer with variate tokens and reduced K/V attention.

Each variate's whole lookback window embeds to one token, so attention
runs across channels rather than across time steps. Every encoder stage
shrinks its key/value token axis by a per-stage reduction factor using
two independent strided depthwise convolutions while queries stay at
the original resolution; the vanilla mode (all ratios 1) recovers plain
inverted-transformer attention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
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
        self._factors = config.reduction_factors
        self._theta = np.zeros(param_count(config))  # at most MAX_PARAMETERS, which the config checked
        views = _param_views(config, self._theta)
        self._params = {name: Tensor._wrap(view, True) for name, view in views}
        # forward's per-stage arrays: views of the vector, so in-place updates reach them
        self._stage_arrays = tuple(tuple(view for name, view in views if name.startswith(f"stage{i}."))
                                   for i in range(config.stages))

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

    # -- forward pieces -----------------------------------------------------

    def _affine(self, x, prefix: str) -> Tensor:
        return ad.affine(x, self.param(f"{prefix}.weight"), self.param(f"{prefix}.bias"))

    def embed(self, window) -> Tensor:
        """Map a (lookback, n_variates) window to one token per variate.

        Every variate's full history passes through the same affine, so
        the output row f depends only on input column f.
        """
        win = window if isinstance(window, Tensor) else Tensor(window)
        self._check_window(win.shape)
        return self._affine(ad.transpose(win), "embed")

    def reduce_kv(self, tokens: Tensor, stage: int) -> tuple:
        """Project tokens to K and V and shrink each along the token axis."""
        self._check_stage(stage)
        p = f"stage{stage}."
        return tuple(ad.depthwise_conv1d(self._affine(tokens, p + name), self.param(f"{p}{name}_reduce.kernel"),
                                         self.param(f"{p}{name}_reduce.bias"), self._factors[stage])
                     for name in ("k", "v"))

    def multi_scale_attention(self, tokens: Tensor, stage: int) -> Tensor:
        """Attention with full-resolution queries over reduced keys/values.

        Output token count always matches the input, whatever the
        stage's reduction factor. Built from the generic primitives, with q,
        k and attention in every stage, as the reference for :meth:`forward`.
        """
        self._check_stage(stage)
        q = self._affine(tokens, f"stage{stage}.q")
        attended = ad.attention(q, *self.reduce_kv(tokens, stage), self.config.heads)
        return self._affine(attended, f"stage{stage}.out")

    def forward(self, window, channel: int | None = None) -> Tensor:
        """(lookback, n_variates) -> (n_variates, horizon) forecast.

        A leading batch axis is accepted: (B, lookback, n_variates)
        yields (B, n_variates, horizon). With ``channel`` set, the last
        stage keeps only that variate's token: its K and V still read every
        token, but its q, out projection, layer norms and FFN, then the head
        and the mean add, run on that row alone: shape (..., 1, horizon).
        The row is the same maths as that row of the full output, but its
        products run on fewer rows, and BLAS may pick another kernel for them.
        With OpenBLAS a (1, width) product, as for one window or a batch of
        one, runs as a matrix-vector kernel and rounds differently from the
        (M, width) matrix-matrix one, a few ulps apart; so does a horizon-1
        head at any batch size. Batches of several windows at a longer
        horizon matched bit for bit in trials, which is not a guarantee.

        It runs on arrays and records nothing under ``ad.no_grad()``; outside
        it records one graph node over every parameter, whose backward computes
        every parameter's gradient and leaves dropping those of frozen parameters
        to ``ad.backward``. Outputs and gradients equal the chain of primitives'
        (``embed``, post-norm stages, the last with ``slice_axis`` before its q
        and residual when ``channel`` is set, head affine, mean add) bit for
        bit, but a one-key stage's q, k and k reducer get None, not zeros.

        Each variate is centered on its own window mean before embedding
        and the forecast adds that mean back, so the network models
        window-relative movement while the level rides the window
        statistic. Without this the stacked normalizations pin outputs
        to the training range, and monotone degradation, which always
        exits that range, cannot be tracked over long rollouts.
        """
        cfg = self.config
        arr = window.data if isinstance(window, Tensor) else np.asarray(window, dtype=np.float64)
        self._check_window(arr.shape)
        if channel is not None and not 0 <= channel < cfg.n_variates:
            raise ParameterError(f"channel {channel} out of range [0, {cfg.n_variates})")
        ad._check_data(arr)  # before centring, which would compute inf - inf
        with np.errstate(over="ignore"):  # a finite window's sum can overflow; the check below raises
            mu = np.add.reduce(arr, axis=-2, keepdims=True) / arr.shape[-2]  # (..., 1, M) window mean
            centered = arr - mu
        ad._check_data(centered)
        mu_rows = mu.swapaxes(-1, -2)  # (..., M, 1)
        p = self._params
        we, be = p["embed.weight"].data, p["embed.bias"].data
        wp, bp = p["project.weight"].data, p["project.bias"].data
        xt = np.ascontiguousarray(centered.swapaxes(-1, -2))  # (..., M, lookback)
        x = ad._affine(xt, we, be)
        recording = ad._state.recording
        rows = [None] * (cfg.stages - 1) + [channel]  # the last stage runs on the asked-for row alone
        stages = []  # each stage's input and saved state, kept only for the backward
        for arrays, r, row in zip(self._stage_arrays, self._factors, rows):
            y, saved = ad._stage_forward(x, arrays, r, cfg.heads, cfg.eps, row)
            if recording:
                stages.append((x, saved))
            x = y
        if channel is not None:
            mu_rows = mu_rows[..., channel : channel + 1, :]
        out = ad._affine(x, wp, bp)
        out += mu_rows  # the same adds as the mean repeated to (..., rows, horizon)
        if not recording:
            return Tensor._wrap(out, False)

        def grad_fn(g):
            g, *grads = ad._affine_grads(g, x, wp, True)
            for (xi, saved), arrays, row in zip(stages[::-1], self._stage_arrays[::-1], rows[::-1]):
                g, *stage_grads = ad._stage_backward(g, xi, arrays, saved, cfg.heads, row)
                grads[:0] = stage_grads
            return [*ad._affine_grads(g, xt, we, False)[1:], *grads]

        return ad._result(out, self.parameters(), grad_fn)

    def _check_window(self, shape: tuple) -> None:
        cfg = self.config
        if len(shape) < 2 or shape[-2:] != (cfg.lookback, cfg.n_variates):
            raise DimensionError(f"window shape {shape} does not end in "
                                 f"(lookback={cfg.lookback}, n_variates={cfg.n_variates})")

    def _check_stage(self, stage: int) -> None:
        if not 0 <= stage < self.config.stages:
            raise ParameterError(f"stage {stage} out of range [0, {self.config.stages})")
