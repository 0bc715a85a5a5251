import math

import numpy as np
import pytest

import oracles
from seqtag.autodiff import Tensor
from seqtag.data import build_vocab
from seqtag.encoders import ComposerConfig, ToyTransformerConfig
from seqtag.errors import ConfigError, UsageError
from seqtag.models import TrainConfig, build_model, needs_tokenizer
from seqtag.optim import (AdamDecoupled, SGDMomentum, add_l2_gradients,
                          clip_gradients, flatten, lr_schedule)
from seqtag.subword import train_unigram
from seqtag.synth import generate_corpus


def params_with_grads(values_and_grads):
    """One flat leaf over tensors of the given values and gradients,
    followed by those tensors, now views of it."""
    out = []
    for value, grad in values_and_grads:
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        t.grad[...] = np.asarray(grad, dtype=np.float64)
        out.append(t)
    return (flatten(out), *out)


# ---------------------------------------------------------------------------
# the flat buffer


def test_flatten_keeps_values_and_grads_as_views_of_one_leaf():
    rng = np.random.default_rng(3)
    shapes = [(2, 3), (), (4,), (2, 1, 2)]
    values = [rng.normal(size=s) for s in shapes]
    grads = [rng.normal(size=s) for s in shapes]
    flat, *ps = params_with_grads(list(zip(values, grads)))
    assert flat.data.shape == flat.grad.shape == (sum(v.size for v in values),)
    assert np.array_equal(flat.data, np.concatenate([v.reshape(-1) for v in values]))
    assert np.array_equal(flat.grad, np.concatenate([g.reshape(-1) for g in grads]))
    for p, value, grad in zip(ps, values, grads):
        assert p.data.base is flat.data and p.grad.base is flat.grad
        assert np.array_equal(p.data, value) and np.array_equal(p.grad, grad)
    flat.data += 1.0
    flat.zero_grad()
    for p, value in zip(ps, values):
        assert np.array_equal(p.data, value + 1.0) and not p.grad.any()


def test_flatten_rejects_a_repeated_tensor():
    t = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(UsageError):
        flatten([t, t])


@pytest.mark.parametrize("make", [lambda flat: SGDMomentum(flat, 0.9), AdamDecoupled])
def test_zero_grad_clears_every_parameter(make):
    flat, a, b = params_with_grads([(np.ones(2), [1.0, 2.0]), (np.ones(3), [3.0, 4.0, 5.0])])
    make(flat).zero_grad()
    assert not a.grad.any() and not b.grad.any()


# The two workload configs of the acceptance gate's learning check.
WORKLOADS = {
    "bilstm-char-crf": TrainConfig(
        model_kind="bilstm-crf",
        composer=ComposerConfig(use_word=True, use_char=True, word_dim=48,
                                char_dim=16, char_hidden=12),
        lr=0.1, dropout_p=0.0, batch_size=4, hidden_dim=32),
    "transformer-crf": TrainConfig(
        model_kind="transformer-crf", optimizer="adam-decoupled-decay",
        transformer=ToyTransformerConfig(num_layers=2, num_heads=2, hidden_units=32,
                                         ff_units=64, max_len=64, dropout_p=0.0),
        lr=1e-3, dropout_p=0.0, batch_size=8, subword_vocab_size=200),
}


def _workload_parameters(cfg):
    corpus = generate_corpus(200, seed=0)
    tokenizer = None
    if needs_tokenizer(cfg):
        tokenizer = train_unigram([" ".join(s.surfaces) for s in corpus],
                                  cfg.subword_vocab_size)
    model = build_model(cfg, build_vocab(corpus), np.random.default_rng(0), tokenizer)
    return model.parameters()


def _flat_and_reference_runs(cfg, clip_norm, steps=20):
    """Parameters after steps updates of the flat passes and of the
    per-tensor reference from the same start and gradients, plus the
    pre-clip norms.  Each step also checks the flat penalty and norm
    against the reference's on a copy of the flat state."""
    params = _workload_parameters(cfg)
    ref = [Tensor(p.data.copy(), requires_grad=True) for p in params]
    flat = flatten(params)
    if cfg.optimizer == "sgd-momentum":
        opt, ref_opt = SGDMomentum(flat, cfg.momentum), oracles.SGDPerTensor(ref, cfg.momentum)
    else:
        opt, ref_opt = AdamDecoupled(flat), oracles.AdamPerTensor(ref)
    rng = np.random.default_rng(11)
    norms = []
    for _ in range(steps):
        for p, r in zip(params, ref):
            p.grad[...] = r.grad[...] = rng.normal(scale=0.01, size=p.shape)
        same = [Tensor(p.data.copy(), requires_grad=True) for p in params]
        for t, p in zip(same, params):
            t.grad[...] = p.grad
        penalty = add_l2_gradients(flat, cfg.lambda_l2)
        norm = clip_gradients(flat, clip_norm)
        assert abs(penalty - oracles.l2_per_tensor(same, cfg.lambda_l2)) <= 1e-15 * penalty
        assert abs(norm - oracles.clip_per_tensor(same, clip_norm)) <= 1e-15 * norm
        oracles.l2_per_tensor(ref, cfg.lambda_l2)
        oracles.clip_per_tensor(ref, clip_norm)
        opt.step(cfg.lr)
        ref_opt.step(cfg.lr)
        norms.append(norm)
    return params, ref, norms


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_flat_updates_are_bitwise_the_per_tensor_ones_without_clipping(workload):
    params, ref, norms = _flat_and_reference_runs(WORKLOADS[workload], clip_norm=1e300)
    assert len(params) > 10
    for p, r in zip(params, ref):
        assert np.array_equal(p.data, r.data)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_flat_updates_follow_the_per_tensor_ones_under_clipping(workload):
    params, ref, norms = _flat_and_reference_runs(WORKLOADS[workload], clip_norm=0.5)
    assert min(norms) > 0.5  # every step clips
    for p, r in zip(params, ref):
        assert np.allclose(p.data, r.data, rtol=1e-9, atol=1e-12)


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
    flat, a, b = params_with_grads([(rng.normal(size=(2, 3)), ga),
                                    (rng.normal(size=4), gb)])
    lam = 0.3
    value = add_l2_gradients(flat, lam)
    want = 0.5 * lam * (np.sum(a.data ** 2) + np.sum(b.data ** 2))
    assert abs(value - want) <= 1e-12
    assert np.max(np.abs(a.grad - (ga + lam * a.data))) <= 1e-12
    assert np.max(np.abs(b.grad - (gb + lam * b.data))) <= 1e-12


def test_l2_gradients_zero_strength_contributes_nothing():
    flat, a = params_with_grads([(np.ones((2, 2)), [[0.5, -1.0], [0.0, 2.0]])])
    before = a.grad.copy()
    assert add_l2_gradients(flat, 0.0) == 0.0
    assert np.array_equal(a.grad, before)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            add_l2_gradients(flat, bad)


# ---------------------------------------------------------------------------
# gradient clipping


def test_clip_scales_overlong_gradient():
    flat, p = params_with_grads([(np.zeros(2), [0.6, 0.8])])
    norm = clip_gradients(flat, 0.5)
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(p.grad, [0.3, 0.4], atol=1e-12)


def test_clip_leaves_short_gradient_alone():
    flat, p = params_with_grads([(np.zeros(2), [0.1, 0.2])])
    before = p.grad.copy()
    norm = clip_gradients(flat, 0.5)
    assert norm == pytest.approx(math.sqrt(0.05), abs=1e-12)
    assert np.array_equal(p.grad, before)


def test_clip_uses_global_norm_across_tensors():
    flat, *ps = params_with_grads([(np.zeros(2), [3.0, 0.0]),
                                   (np.zeros(1), [4.0])])
    norm = clip_gradients(flat, 1.0)
    assert norm == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(ps[0].grad, [0.6, 0.0], atol=1e-12)
    assert np.allclose(ps[1].grad, [0.8], atol=1e-12)


def test_clip_post_norm_never_exceeds_threshold():
    rng = np.random.default_rng(100)
    for _ in range(50):
        shapes = [(3,), (2, 2), (4,)]
        flat, *ps = params_with_grads([(np.zeros(s), rng.normal(scale=3.0, size=s))
                                       for s in shapes])
        clip = float(rng.uniform(0.1, 2.0))
        clip_gradients(flat, clip)
        post = math.sqrt(sum(float(np.sum(p.grad ** 2)) for p in ps))
        assert post <= clip + 1e-12
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            clip_gradients(flat, bad)


# ---------------------------------------------------------------------------
# SGD with momentum


def test_sgd_zero_grad_keeps_params_and_decays_velocity():
    flat, p = params_with_grads([(np.array([1.0, 2.0]), [0.5, 0.5])])
    opt = SGDMomentum(flat, momentum=0.9)
    opt.step(lr=0.1)  # seeds velocity with the gradient
    opt.zero_grad()
    assert np.array_equal(p.grad, [0.0, 0.0])
    value = p.data.copy()
    vel = opt.velocity.copy()
    opt.step(lr=0.1)
    assert np.allclose(opt.velocity, 0.9 * vel, atol=1e-15)
    assert np.allclose(p.data, value - 0.1 * 0.9 * vel, atol=1e-15)
    for _ in range(200):
        opt.step(lr=0.0)
    assert np.max(np.abs(opt.velocity)) < 1e-9  # velocity decays toward zero


def test_sgd_momentum_zero_is_plain_sgd():
    flat, p = params_with_grads([(np.array([1.0, -1.0]), [0.2, -0.4])])
    opt = SGDMomentum(flat, momentum=0.0)
    opt.step(lr=0.5)
    assert np.allclose(p.data, [1.0 - 0.5 * 0.2, -1.0 + 0.5 * 0.4], atol=1e-15)


def test_sgd_two_steps_constant_gradient_displacement():
    g = np.array([0.3, -0.7])
    flat, p = params_with_grads([(np.zeros(2), g)])
    opt = SGDMomentum(flat, momentum=0.9)
    lr = 0.1
    opt.step(lr)
    p.grad[...] = g  # constant gradient
    opt.step(lr)
    # v1 = g, v2 = 1.9 g, total displacement lr * g * 2.9
    assert np.allclose(p.data, -lr * g * 2.9, atol=1e-14)


def test_sgd_rejects_bad_momentum():
    flat, _ = params_with_grads([(np.zeros(1), [0.0])])
    with pytest.raises(ConfigError):
        SGDMomentum(flat, momentum=1.0)


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay


def test_adam_first_step_moves_by_lr_sign():
    theta0 = np.array([1.0, -1.0, 0.5])
    flat, p = params_with_grads([(theta0.copy(), [0.5, -2.0, 1e-3])])
    opt = AdamDecoupled(flat)
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

    flat, p = params_with_grads([(np.array(theta0), 0.0)])
    opt = AdamDecoupled(flat)
    for t, g in enumerate(grads):
        p.grad[...] = g
        opt.step(lr)
        assert abs(float(p.data) - trajectory[t]) <= 1e-12


def test_adam_weight_decay_shrinks_without_gradient():
    flat, p = params_with_grads([(np.array([2.0]), [0.0])])
    opt = AdamDecoupled(flat)
    opt.step(lr=0.5)
    # no gradient signal: the only movement is the decoupled decay term
    assert np.allclose(p.data, [2.0 - 0.5 * 0.01 * 2.0], atol=1e-12)
