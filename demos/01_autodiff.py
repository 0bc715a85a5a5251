"""A tour of the reverse-mode autodiff engine.

Every model in this package is built from the handful of tensor operations
shown here.  A Tensor wraps a float64 numpy array; operations record their
parents, and backward() walks the graph once in reverse topological order.
"""

import numpy as np

import seqtag.autodiff as ad
from seqtag.autodiff import Tensor

# scalars first: d/dx of 3x + x^2 at x = 2.  x is a 1x1 matrix, so x^2
# is the product x @ x, and backward adds the gradient of both of its
# uses, 2x.  inner sums each (tensor, constant) pair's weighted entries in
# one node, here 3 x and 1 x^2
x = Tensor([[2.0]], requires_grad=True)
out = ad.inner(x, [[3.0]], x @ x, [[1.0]])
ad.backward(out)
print("out  =", float(out.data), " (expect 3 * 2 + 2 ** 2 = 10)")
print("dx   =", float(x.grad[0, 0]), " (expect 3 + 2x = 7)")

# a weighted sum of a vector's entries against constant weights is one
# node, inner; its gradient is the weights
v = Tensor([1.0, 2.0, 3.0], requires_grad=True)
weighted = ad.inner(v, np.array([0.5, -1.0, 2.0]))
ad.backward(weighted)
print("\ninner(v, w) =", float(weighted.data), " (expect 0.5 - 2 + 6 = 4.5)")
print("d/dv        =", v.grad, " (expect w)")

# the same machinery drives matrices: a tiny linear layer scoring three
# tags, read out by the CRF forward algorithm over one position and an
# all-zero transition table, which is a plain log-sum-exp: the normalizer
# of the linear head's softmax loss.  add takes the (3,) bias as a row
# added to every row of the (1, 3) product
rng = np.random.default_rng(0)
W = Tensor(rng.standard_normal((4, 3)), requires_grad=True)  # (in, out)
b = Tensor(np.zeros(3), requires_grad=True)
x = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
scores = x @ W + b  # (1, 3): one position, three tags
log_z = ad.crf_forward(scores, Tensor(np.zeros((4, 4))))
ad.backward(log_z)
softmax = np.exp(scores.data[0] - float(log_z.data))
print("\nlog-sum-exp of x W =", float(log_z.data))
print("softmax(x W)       =", softmax.round(4))
print("d/dx               =", x.grad[0].round(4))
print("W @ softmax        =", (W.data @ softmax).round(4))
print("d/db               =", b.grad.round(4), " (the softmax)")
# the gradient w.r.t. x is the softmax-weighted mean of W's columns; the
# two lines above agree

# gradients accumulate across repeated use of the same tensor
emb = Tensor(np.eye(3), requires_grad=True)
twice = ad.gather_rows(emb, [1, 1])  # the same row picked twice
ad.backward(ad.inner(twice, np.ones((2, 3))))
print("\nrow used twice gets gradient 2:", emb.grad[1])

# dropout is inverted: at train time survivors are scaled by 1/(1-p),
# so evaluation needs no correction at all
h = Tensor(np.ones(8))
kept = ad.dropout(h, 0.5, training=True, rng=np.random.default_rng(1))
print("\ntrain-time dropout:", kept.data)
print("eval-time dropout: ", ad.dropout(h, 0.5, training=False, rng=None).data)
