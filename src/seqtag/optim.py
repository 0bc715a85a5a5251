"""Optimizers, learning-rate decay, L2 regularisation and gradient clipping.

Each works on one flat leaf (flatten) whose data and grad hold every
parameter back to back, so each pass is a few whole-array calls and each
optimizer keeps one array per state.  The L2 penalty is added to the
gradients after the backward pass, so it never enters the autodiff graph.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, UsageError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_WEIGHT_DECAY = 0.01


def flatten(params: list[Tensor]) -> Tensor:
    """One float64 leaf whose data and grad hold those of the distinct
    tensors params back to back.  Each tensor's data and grad become
    reshaped views of the leaf's, which must not be rebound after."""
    if len({id(p) for p in params}) != len(params):
        raise UsageError("flatten needs distinct tensors")
    flat = Tensor(np.concatenate([p.data.reshape(-1) for p in params]), requires_grad=True)
    flat.grad = np.concatenate([p.grad.reshape(-1) for p in params])
    for p, lo in zip(params, np.cumsum([0] + [p.size for p in params])):
        p.data = flat.data[lo:lo + p.size].reshape(p.shape)
        p.grad = flat.grad[lo:lo + p.size].reshape(p.shape)
    return flat


def lr_schedule(lr_initial: float, epoch: int) -> float:
    """Learning rate after the given number of completed epochs under the
    recurrence lr_k = lr_{k-1} / (1 + 0.05 k), k starting at 1."""
    if epoch < 0:
        raise ConfigError("epoch must be non-negative")
    lr = lr_initial
    for k in range(1, epoch + 1):
        lr = lr / (1.0 + 0.05 * k)
    return lr


def add_l2_gradients(flat: Tensor, lam: float) -> float:
    """Add lam * theta to the gradient of every parameter theta.

    Returns the penalty those gradients belong to, (lam / 2) times the sum
    of squared entries, for the caller to add to the loss it reports.
    """
    if not 0.0 <= lam < math.inf:
        raise ConfigError("l2 strength must be non-negative and finite")
    if lam == 0.0:
        return 0.0
    flat.grad += lam * flat.data
    return float(flat.data @ flat.data) * (0.5 * lam)


def clip_gradients(flat: Tensor, clip_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most clip_norm.

    Returns the pre-clip global norm.
    """
    if not 0.0 < clip_norm < math.inf:
        raise ConfigError("clip_norm must be positive and finite")
    norm = math.sqrt(float(flat.grad @ flat.grad))
    if norm > clip_norm:
        flat.grad *= clip_norm / norm
    return norm


class SGDMomentum:
    """v <- momentum * v + grad; param <- param - lr * v."""

    def __init__(self, flat: Tensor, momentum: float = 0.9):
        if not 0.0 <= momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        self.flat = flat
        self.momentum = momentum
        self.velocity = np.zeros_like(flat.data)

    def step(self, lr: float):
        self.velocity *= self.momentum
        self.velocity += self.flat.grad
        self.flat.data -= lr * self.velocity

    def zero_grad(self):
        self.flat.zero_grad()


class AdamDecoupled:
    """Adaptive-moment update with bias correction and decoupled weight
    decay applied directly to the parameters; the hyper-parameters other
    than the learning rate are the ADAM_* module constants."""

    def __init__(self, flat: Tensor):
        self.flat = flat
        self.t = 0
        self.m = np.zeros_like(flat.data)
        self.v = np.zeros_like(flat.data)

    def step(self, lr: float):
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        self.t += 1
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        g, m, v = self.flat.grad, self.m, self.v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        self.flat.data -= lr * (update + ADAM_WEIGHT_DECAY * self.flat.data)

    def zero_grad(self):
        self.flat.zero_grad()
