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
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, ParameterError

MULTI_SCALE = "multi_scale"
VANILLA = "vanilla"

DEFAULT_RATIOS = (1.0, 2.0 ** -2, 2.0 ** -4, 2.0 ** -5)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; parameter shapes follow from these.

    ``ratios`` holds one scaling ratio in (0, 1] per stage; stage i
    reduces its K/V token count by ``max(1, round(1 / ratios[i]))``.
    ``vanilla`` mode forces every effective reduction factor to 1.
    """

    n_variates: int
    lookback: int
    horizon: int
    width: int = 16
    stages: int = 4
    ratios: tuple = DEFAULT_RATIOS
    heads: int = 1
    mode: str = MULTI_SCALE
    eps: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        if self.n_variates < 1 or self.lookback < 1 or self.horizon < 1:
            raise ParameterError(
                f"n_variates, lookback and horizon must be >= 1, got "
                f"{self.n_variates}, {self.lookback}, {self.horizon}"
            )
        if self.width < 1 or self.stages < 1:
            raise ParameterError(f"width and stages must be >= 1, got {self.width}, {self.stages}")
        if len(self.ratios) != self.stages:
            raise ParameterError(
                f"need one ratio per stage: {self.stages} stages, {len(self.ratios)} ratios"
            )
        for r in self.ratios:
            if not 0.0 < r <= 1.0:
                raise ParameterError(f"ratios must lie in (0, 1], got {r}")
        if self.heads < 1 or self.width % self.heads != 0:
            raise ParameterError(f"heads ({self.heads}) must divide width ({self.width})")
        if self.mode not in (MULTI_SCALE, VANILLA):
            raise ParameterError(f"mode must be '{MULTI_SCALE}' or '{VANILLA}', got {self.mode!r}")
        if self.eps <= 0.0:
            raise ParameterError(f"eps must be positive, got {self.eps}")

    @property
    def reduction_factors(self) -> tuple:
        """Integer K/V reduction factor per stage (all 1 in vanilla mode)."""
        if self.mode == VANILLA:
            return (1,) * self.stages
        return tuple(max(1, round(1.0 / r)) for r in self.ratios)


def param_count(config: ModelConfig) -> int:
    """Closed-form scalar count; must equal any checkpoint payload."""
    d, tw, s = config.width, config.lookback, config.horizon
    total = tw * d + d  # embedding
    for r in config.reduction_factors:
        total += 4 * (d * d + d)  # q, k, v, output projections
        total += 2 * (r * d + d)  # k and v reducers
        total += d * d + d  # feed-forward
    total += d * s + s  # projection head
    return total


class TSTransformerModel:
    """Stacked encoder over variate tokens with per-stage K/V reduction.

    Parameters are created from a seeded generator: affine weights are
    uniform in +-sqrt(1/fan_in) with zero biases, and reducer kernels
    start as averaging filters (entries 1/r, zero bias) so a stage with
    factor 1 begins as an exact identity on K/V.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        d, tw, s = config.width, config.lookback, config.horizon
        self._params: dict[str, Tensor] = {}
        self._order: list[str] = []

        self._add("embed.weight", self._uniform(rng, (tw, d), tw))
        self._add("embed.bias", np.zeros(d))
        for i, r in enumerate(config.reduction_factors):
            for name in ("q", "k", "v"):
                self._add(f"stage{i}.{name}.weight", self._uniform(rng, (d, d), d))
                self._add(f"stage{i}.{name}.bias", np.zeros(d))
            for name in ("k_reduce", "v_reduce"):
                self._add(f"stage{i}.{name}.kernel", np.full((r, d), 1.0 / r))
                self._add(f"stage{i}.{name}.bias", np.zeros(d))
            self._add(f"stage{i}.out.weight", self._uniform(rng, (d, d), d))
            self._add(f"stage{i}.out.bias", np.zeros(d))
            self._add(f"stage{i}.ffn.weight", self._uniform(rng, (d, d), d))
            self._add(f"stage{i}.ffn.bias", np.zeros(d))
        self._add("project.weight", self._uniform(rng, (d, s), d))
        self._add("project.bias", np.zeros(s))

    @staticmethod
    def _uniform(rng, shape, fan_in):
        bound = math.sqrt(1.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    def _add(self, name: str, values: np.ndarray) -> None:
        self._params[name] = Tensor(values, requires_grad=True)
        self._order.append(name)

    # -- parameter access ---------------------------------------------------

    def named_parameters(self) -> list:
        """(name, tensor) pairs in declared (checkpoint) order."""
        return [(name, self._params[name]) for name in self._order]

    def parameters(self) -> list:
        return [self._params[name] for name in self._order]

    def param(self, name: str) -> Tensor:
        return self._params[name]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def load_arrays(self, arrays) -> None:
        """Overwrite parameters from arrays given in declared order."""
        arrays = list(arrays)
        if len(arrays) != len(self._order):
            raise ParameterError(
                f"expected {len(self._order)} parameter arrays, got {len(arrays)}"
            )
        for name, arr in zip(self._order, arrays):
            tensor = self._params[name]
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != tensor.shape:
                raise ParameterError(
                    f"parameter {name!r} expects shape {tensor.shape}, got {arr.shape}"
                )
            tensor.data[...] = arr

    # -- forward pieces -----------------------------------------------------

    def embed(self, window) -> Tensor:
        """Map a (lookback, n_variates) window to one token per variate.

        Every variate's full history passes through the same affine, so
        the output row f depends only on input column f.
        """
        cfg = self.config
        win = window if isinstance(window, Tensor) else Tensor(window)
        if win.data.ndim < 2 or win.data.shape[-2:] != (cfg.lookback, cfg.n_variates):
            raise DimensionError(
                f"window shape {win.shape} does not end in "
                f"(lookback={cfg.lookback}, n_variates={cfg.n_variates})"
            )
        return ad.affine(ad.transpose(win), self.param("embed.weight"), self.param("embed.bias"))

    def reduce_kv(self, tokens: Tensor, stage: int) -> tuple:
        """Project tokens to K and V and shrink each along the token axis."""
        self._check_stage(stage)
        k = ad.affine(tokens, self.param(f"stage{stage}.k.weight"), self.param(f"stage{stage}.k.bias"))
        v = ad.affine(tokens, self.param(f"stage{stage}.v.weight"), self.param(f"stage{stage}.v.bias"))
        r = self.config.reduction_factors[stage]
        k_r = ad.depthwise_conv1d(
            k, self.param(f"stage{stage}.k_reduce.kernel"), self.param(f"stage{stage}.k_reduce.bias"), r
        )
        v_r = ad.depthwise_conv1d(
            v, self.param(f"stage{stage}.v_reduce.kernel"), self.param(f"stage{stage}.v_reduce.bias"), r
        )
        return k_r, v_r

    def multi_scale_attention(self, tokens: Tensor, stage: int) -> Tensor:
        """Attention with full-resolution queries over reduced keys/values.

        Output token count always matches the input, whatever the
        stage's reduction factor.
        """
        self._check_stage(stage)
        q = ad.affine(tokens, self.param(f"stage{stage}.q.weight"), self.param(f"stage{stage}.q.bias"))
        k_r, v_r = self.reduce_kv(tokens, stage)
        attended = ad.attention(q, k_r, v_r, self.config.heads)
        return ad.affine(
            attended, self.param(f"stage{stage}.out.weight"), self.param(f"stage{stage}.out.bias")
        )

    def trm_block(self, tokens: Tensor, stage: int) -> Tensor:
        """Residual attention and feed-forward sublayers, post-norm layout."""
        self._check_stage(stage)
        eps = self.config.eps
        normed = ad.layer_norm(ad.add(tokens, self.multi_scale_attention(tokens, stage)), eps)
        ffn = ad.relu(
            ad.affine(normed, self.param(f"stage{stage}.ffn.weight"), self.param(f"stage{stage}.ffn.bias"))
        )
        return ad.layer_norm(ad.add(normed, ffn), eps)

    def forward(self, window) -> Tensor:
        """(lookback, n_variates) -> (n_variates, horizon) forecast.

        A leading batch axis is accepted: (B, lookback, n_variates)
        yields (B, n_variates, horizon).

        Outside ``ad.no_grad()`` the forward is recorded: its nodes stay on
        the thread-local tape until a ``backward``. Run inference under it.

        Each variate is centered on its own window mean before embedding
        and the forecast adds that mean back, so the network models
        window-relative movement while the level rides the window
        statistic. Without this the stacked normalizations pin outputs
        to the training range, and monotone degradation, which always
        exits that range, cannot be tracked over long rollouts.
        """
        arr = window.data if isinstance(window, Tensor) else np.asarray(window, dtype=np.float64)
        mu = arr.mean(axis=-2, keepdims=True)  # (..., 1, M)
        centered = arr - mu

        tokens = self.embed(centered)
        for stage in range(self.config.stages):
            tokens = self.trm_block(tokens, stage)
        delta = ad.affine(tokens, self.param("project.weight"), self.param("project.bias"))

        mu_rows = np.repeat(mu.swapaxes(-1, -2), self.config.horizon, axis=-1)  # (..., M, S)
        return ad.add(delta, Tensor(mu_rows))

    def _check_stage(self, stage: int) -> None:
        if not 0 <= stage < self.config.stages:
            raise ParameterError(f"stage {stage} out of range [0, {self.config.stages})")
