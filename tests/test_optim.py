import math

import numpy as np
import pytest

from seqtag.autodiff import Tensor
from seqtag.errors import ConfigError
from seqtag.optim import (AdamDecoupled, SGDMomentum, add_l2_gradients,
                          clip_gradients, lr_schedule)


def params_with_grads(values_and_grads):
    out = []
    for value, grad in values_and_grads:
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        t.grad[...] = np.asarray(grad, dtype=np.float64)
        out.append(t)
    return out


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_lr_schedule_first_three_decays():
    assert abs(lr_schedule(0.05, 1) - 0.0476190) <= 1e-6
    assert abs(lr_schedule(0.05, 2) - 0.0432900) <= 1e-6
    assert abs(lr_schedule(0.05, 3) - 0.0376435) <= 1e-6


def test_lr_schedule_recurrence_consistency():
    lr = 0.05
    for epoch in range(1, 20):
        lr = lr / (1.0 + 0.05 * epoch)
        assert lr_schedule(0.05, epoch) == pytest.approx(lr, abs=1e-15)


def test_lr_schedule_zero_and_monotone():
    assert lr_schedule(0.0, 5) == 0.0
    assert lr_schedule(0.05, 0) == 0.05
    values = [lr_schedule(0.05, e) for e in range(12)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ConfigError):
        lr_schedule(0.05, -1)


# ---------------------------------------------------------------------------
# L2 penalty


def test_l2_gradients_value_and_gradient():
    rng = np.random.default_rng(67)
    ga, gb = rng.normal(size=(2, 3)), rng.normal(size=4)
    a, b = params_with_grads([(rng.normal(size=(2, 3)), ga),
                              (rng.normal(size=4), gb)])
    lam = 0.3
    value = add_l2_gradients([a, b], lam)
    want = 0.5 * lam * (np.sum(a.data ** 2) + np.sum(b.data ** 2))
    assert abs(value - want) <= 1e-12
    assert np.max(np.abs(a.grad - (ga + lam * a.data))) <= 1e-12
    assert np.max(np.abs(b.grad - (gb + lam * b.data))) <= 1e-12


def test_l2_gradients_zero_strength_contributes_nothing():
    (a,) = params_with_grads([(np.ones((2, 2)), [[0.5, -1.0], [0.0, 2.0]])])
    before = a.grad.copy()
    assert add_l2_gradients([a], 0.0) == 0.0
    assert np.array_equal(a.grad, before)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            add_l2_gradients([a], bad)


# ---------------------------------------------------------------------------
# gradient clipping


def test_clip_scales_overlong_gradient():
    (p,) = params_with_grads([(np.zeros(2), [0.6, 0.8])])
    norm = clip_gradients([p], 0.5)
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(p.grad, [0.3, 0.4], atol=1e-12)


def test_clip_leaves_short_gradient_alone():
    (p,) = params_with_grads([(np.zeros(2), [0.1, 0.2])])
    before = p.grad.copy()
    norm = clip_gradients([p], 0.5)
    assert norm == pytest.approx(math.sqrt(0.05), abs=1e-12)
    assert np.array_equal(p.grad, before)


def test_clip_uses_global_norm_across_tensors():
    ps = params_with_grads([(np.zeros(2), [3.0, 0.0]),
                            (np.zeros(1), [4.0])])
    norm = clip_gradients(ps, 1.0)
    assert norm == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(ps[0].grad, [0.6, 0.0], atol=1e-12)
    assert np.allclose(ps[1].grad, [0.8], atol=1e-12)


def test_clip_post_norm_never_exceeds_threshold():
    rng = np.random.default_rng(100)
    for _ in range(50):
        shapes = [(3,), (2, 2), (4,)]
        ps = params_with_grads([(np.zeros(s), rng.normal(scale=3.0, size=s))
                                for s in shapes])
        clip = float(rng.uniform(0.1, 2.0))
        clip_gradients(ps, clip)
        post = math.sqrt(sum(float(np.sum(p.grad ** 2)) for p in ps))
        assert post <= clip + 1e-12
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            clip_gradients(ps, bad)


# ---------------------------------------------------------------------------
# SGD with momentum


def test_sgd_zero_grad_keeps_params_and_decays_velocity():
    (p,) = params_with_grads([(np.array([1.0, 2.0]), [0.5, 0.5])])
    opt = SGDMomentum([p], momentum=0.9)
    opt.step(lr=0.1)  # seeds velocity with the gradient
    p.zero_grad()
    value = p.data.copy()
    vel = opt.velocity[0].copy()
    opt.step(lr=0.1)
    assert np.allclose(opt.velocity[0], 0.9 * vel, atol=1e-15)
    assert np.allclose(p.data, value - 0.1 * 0.9 * vel, atol=1e-15)
    p.zero_grad()
    for _ in range(200):
        opt.step(lr=0.0)
    assert np.max(np.abs(opt.velocity[0])) < 1e-9  # velocity decays toward zero


def test_sgd_momentum_zero_is_plain_sgd():
    (p,) = params_with_grads([(np.array([1.0, -1.0]), [0.2, -0.4])])
    opt = SGDMomentum([p], momentum=0.0)
    opt.step(lr=0.5)
    assert np.allclose(p.data, [1.0 - 0.5 * 0.2, -1.0 + 0.5 * 0.4], atol=1e-15)


def test_sgd_two_steps_constant_gradient_displacement():
    g = np.array([0.3, -0.7])
    (p,) = params_with_grads([(np.zeros(2), g)])
    opt = SGDMomentum([p], momentum=0.9)
    lr = 0.1
    opt.step(lr)
    p.grad[...] = g  # constant gradient
    opt.step(lr)
    # v1 = g, v2 = 1.9 g, total displacement lr * g * 2.9
    assert np.allclose(p.data, -lr * g * 2.9, atol=1e-14)


def test_sgd_rejects_bad_momentum():
    (p,) = params_with_grads([(np.zeros(1), [0.0])])
    with pytest.raises(ConfigError):
        SGDMomentum([p], momentum=1.0)


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay


def test_adam_first_step_moves_by_lr_sign():
    theta0 = np.array([1.0, -1.0, 0.5])
    (p,) = params_with_grads([(theta0.copy(), [0.5, -2.0, 1e-3])])
    opt = AdamDecoupled([p])
    opt.step(lr=0.01)
    # the bias-corrected first step is g / |g| = sign(g), plus the decay
    want = theta0 - 0.01 * ([1.0, -1.0, 1.0] + 0.01 * theta0)
    assert np.allclose(p.data, want, atol=1e-5)


def test_adam_matches_scalar_oracle_over_ten_steps():
    rng = np.random.default_rng(101)
    lr, b1, b2, eps, wd = 3e-3, 0.9, 0.999, 1e-8, 0.01
    theta0 = 0.7
    grads = rng.normal(size=10)

    # independent straight-line reimplementation on plain floats
    theta, m, v = theta0, 0.0, 0.0
    trajectory = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta = theta - lr * (mhat / (math.sqrt(vhat) + eps) + wd * theta)
        trajectory.append(theta)

    (p,) = params_with_grads([(np.array(theta0), 0.0)])
    opt = AdamDecoupled([p])
    for t, g in enumerate(grads):
        p.grad[...] = g
        opt.step(lr)
        assert abs(float(p.data) - trajectory[t]) <= 1e-12


def test_adam_weight_decay_shrinks_without_gradient():
    (p,) = params_with_grads([(np.array([2.0]), [0.0])])
    opt = AdamDecoupled([p])
    opt.step(lr=0.5)
    # no gradient signal: the only movement is the decoupled decay term
    assert np.allclose(p.data, [2.0 - 0.5 * 0.01 * 2.0], atol=1e-12)
