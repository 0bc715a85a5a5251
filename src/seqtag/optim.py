"""Optimizers, learning-rate decay, L2 regularisation and gradient clipping.

Both optimizers mutate parameter data in place and keep their own state
buffers aligned with the parameter list they were built with.  The L2
penalty is added to the gradients after the backward pass, so it never
enters the autodiff graph.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_WEIGHT_DECAY = 0.01


def lr_schedule(lr_initial: float, epoch: int) -> float:
    """Learning rate after the given number of completed epochs under the
    recurrence lr_k = lr_{k-1} / (1 + 0.05 k), k starting at 1."""
    if epoch < 0:
        raise ConfigError("epoch must be non-negative")
    lr = lr_initial
    for k in range(1, epoch + 1):
        lr = lr / (1.0 + 0.05 * k)
    return lr


def add_l2_gradients(params: list[Tensor], lam: float) -> float:
    """Add lam * theta to the gradient of every parameter theta.

    Returns the penalty those gradients belong to, (lam / 2) times the sum
    of squared entries, for the caller to add to the loss it reports.
    """
    if not 0.0 <= lam < math.inf:
        raise ConfigError("l2 strength must be non-negative and finite")
    if lam == 0.0:
        return 0.0
    total = 0.0
    for p in params:
        total += float(np.sum(p.data * p.data))
        p.grad += lam * p.data
    return total * (0.5 * lam)


def clip_gradients(params: list[Tensor], clip_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most clip_norm.

    Returns the pre-clip global norm.
    """
    if not 0.0 < clip_norm < math.inf:
        raise ConfigError("clip_norm must be positive and finite")
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(total)
    if norm > clip_norm:
        factor = clip_norm / norm
        for p in params:
            p.grad *= factor
    return norm


class SGDMomentum:
    """v <- momentum * v + grad; param <- param - lr * v."""

    def __init__(self, params: list[Tensor], momentum: float = 0.9):
        if not 0.0 <= momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        self.params = list(params)
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float):
        for p, v in zip(self.params, self.velocity):
            v *= self.momentum
            v += p.grad
            p.data -= lr * v

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


class AdamDecoupled:
    """Adaptive-moment update with bias correction and decoupled weight
    decay applied directly to the parameters; the hyper-parameters other
    than the learning rate are the ADAM_* module constants."""

    def __init__(self, params: list[Tensor]):
        self.params = list(params)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float):
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        self.t += 1
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            p.data -= lr * (update + ADAM_WEIGHT_DECAY * p.data)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()
