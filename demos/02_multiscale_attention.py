"""How the encoder reduces keys/values per stage while queries stay put.

Run: python3 demos/02_multiscale_attention.py
"""

import numpy as np

from tstransformer import autodiff as ad
from tstransformer.autodiff import Tensor
from tstransformer.model import ModelConfig, TSTransformerModel

cfg = ModelConfig(n_variates=6, lookback=32, horizon=1, width=16, stages=4)
model = TSTransformerModel(cfg, seed=0)
print("ratio schedule:", cfg.ratios)
print("reduction factors:", cfg.reduction_factors)

# Inference only: under no_grad these forwards record no autodiff graph.
with ad.no_grad():
    tokens = Tensor(np.random.default_rng(0).normal(size=(20, 16)))
    print("\ntoken axis through each stage (20 input tokens):")
    for stage, r in enumerate(cfg.reduction_factors):
        k, v = model.reduce_kv(tokens, stage)
        out = model.multi_scale_attention(tokens, stage)
        print(f"  stage {stage}: K/V reduced 20 -> {k.shape[0]:2d} (factor {r:2d}); "
              f"attention output stays {out.shape}")

    # With every ratio at 1 the attention is plain scaled dot-product over
    # variate tokens (the inverted-transformer ablation).
    vanilla = TSTransformerModel(
        ModelConfig(n_variates=6, lookback=32, horizon=1, width=16, stages=4, mode="vanilla"),
        seed=0,
    )
    x = np.random.default_rng(1).normal(size=(6, 16))
    got = vanilla.multi_scale_attention(Tensor(x), 0).data

    q = x @ vanilla.param("stage0.q.weight").data + vanilla.param("stage0.q.bias").data
    k = x @ vanilla.param("stage0.k.weight").data + vanilla.param("stage0.k.bias").data
    v = x @ vanilla.param("stage0.v.weight").data + vanilla.param("stage0.v.bias").data
    scores = q @ k.T / np.sqrt(16)
    attn = np.exp(scores - scores.max(-1, keepdims=True))
    attn /= attn.sum(-1, keepdims=True)
    ref = attn @ v @ vanilla.param("stage0.out.weight").data + vanilla.param("stage0.out.bias").data
    print("\nvanilla mode vs direct attention, max |diff|:", float(np.abs(got - ref).max()))

    # A full forward maps a lookback window to one forecast row per variate.
    window = np.random.default_rng(2).normal(size=(32, 6))
    print("forward:", window.shape, "->", model.forward(window).shape, "(one row per variate)")
