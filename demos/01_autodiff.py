"""A tour of the reverse-mode autodiff engine.

Every model in this package is built from the handful of tensor operations
shown here.  A Tensor wraps a float64 numpy array; operations record their
parents, and backward() walks the graph once in reverse topological order.
"""

import numpy as np

import seqtag.autodiff as ad
from seqtag.autodiff import Tensor

# scalars first: d/dx of x*y + gelu(x) at (2, 3), where
# gelu(x) = x/2 (1 + tanh(u)) with u = sqrt(2/pi) (x + 0.044715 x^3)
x = Tensor(2.0, requires_grad=True)
y = Tensor(3.0, requires_grad=True)
out = ad.add(ad.mul(x, y), ad.gelu(x))
ad.backward(out)
c = np.sqrt(2.0 / np.pi)
t = np.tanh(c * (2.0 + 0.044715 * 2.0 ** 3))
dgelu = 0.5 * (1 + t) + 0.5 * 2.0 * (1 - t * t) * c * (1 + 3 * 0.044715 * 2.0 ** 2)
print("out  =", float(out.data))
print("dx   =", float(x.grad), " (expect y + gelu'(x) =", 3 + dgelu, ")")
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
