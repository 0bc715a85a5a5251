"""A tour of the reverse-mode autodiff engine.

Every model in this package is built from the handful of tensor operations
shown here.  A Tensor wraps a float64 numpy array; operations record their
parents, and backward() walks the graph once in reverse topological order.
"""

import numpy as np

import seqtag.autodiff as ad
from seqtag.autodiff import Tensor

# scalars first: d/dx of x*y + tanh(x) at (2, 3)
x = Tensor(2.0, requires_grad=True)
y = Tensor(3.0, requires_grad=True)
out = ad.add(ad.mul(x, y), ad.tanh(x))
ad.backward(out)
print("out  =", float(out.data))
print("dx   =", float(x.grad), " (expect y + 1 - tanh(x)^2 =", 3 + 1 - np.tanh(2.0) ** 2, ")")
print("dy   =", float(y.grad), " (expect x = 2)")

# the same machinery drives matrices: a tiny linear layer with a
# log-sum-exp readout, the building block of the CRF forward algorithm
rng = np.random.default_rng(0)
W = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
v = Tensor(rng.standard_normal(4), requires_grad=True)
score = ad.log_sum_exp(ad.matmul(W, v), axis=0)
ad.backward(score)
print("\nlog_sum_exp(W @ v) =", float(score.data))
print("dW row sums        =", W.grad.sum(axis=1).round(4))
print("softmax(W @ v)     =", np.exp(W.data @ v.data - float(score.data)).round(4))
# the gradient w.r.t. the logits IS the softmax; the two lines above agree

# gradients accumulate across repeated use of the same tensor
emb = Tensor(np.eye(3), requires_grad=True)
twice = ad.gather_rows(emb, [1, 1])  # the same row picked twice
ad.backward(ad.tensor_sum(twice))
print("\nrow used twice gets gradient 2:", emb.grad[1])

# dropout is inverted: at train time survivors are scaled by 1/(1-p),
# so evaluation needs no correction at all
h = Tensor(np.ones(8))
kept = ad.dropout(h, 0.5, training=True, rng=np.random.default_rng(1))
print("\ntrain-time dropout:", kept.data)
print("eval-time dropout: ", ad.dropout(h, 0.5, training=False, rng=None).data)
