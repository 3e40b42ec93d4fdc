"""Tour of the tensor core: building blocks, backward pass, gradient checks.

Run: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from tstransformer import autodiff as ad
from tstransformer.autodiff import Tensor
from tstransformer.training import mse_loss

# Tensors are float64 and immutable except for gradient population.
a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
b = Tensor([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
print("a @ b =", ad.matmul(a, b).data.tolist())

# Every op's output records the op that made it; backward runs the loss's
# graph in reverse and accumulates gradients additively.
x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
loss = mse_loss(x, np.zeros(3))  # mean of squares
ad.backward(loss)
print("d/dx mean(x^2) =", x.grad.tolist(), "(expected 2x/3)")

# The building blocks the forecaster is made of:
print("softmax [0, ln2] =", ad.softmax_last(Tensor([0.0, np.log(2.0)])).data.round(6).tolist())
print("layer_norm [1, 3] =", ad.layer_norm(Tensor([1.0, 3.0])).data.round(6).tolist())

# Strided depthwise convolution shrinks a token axis by its reduction
# factor; edge replication pads the tail window.
tokens = Tensor(np.arange(1.0, 9.0).reshape(8, 1))
kernel = Tensor(np.full((4, 1), 0.25))
bias = Tensor(np.zeros(1))
print("avg-conv of 1..8 (r=4) =", ad.depthwise_conv1d(tokens, kernel, bias, 4).data.ravel().tolist())

# Central finite differences validate any taped scalar function.
w = Tensor(np.random.default_rng(0).normal(size=(3, 3)), requires_grad=True)
inp = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
f = lambda: mse_loss(ad.relu(ad.matmul(inp, w)), np.ones((4, 3)))
print("gradient check (mse of relu(x@w)):", f"{ad.gradient_check(f, [w], h=1e-5):.2e} max relative error")
