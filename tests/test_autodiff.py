import ast
import inspect

import numpy as np
import pytest

import seqtag.autodiff as ad
from seqtag.autodiff import Tensor
from seqtag.crf import illegal_mask
from seqtag.errors import ConfigError, ShapeError, UsageError

import oracles
from oracles import (broadcast_to, exp, finite_diff, log_sum_exp, matvec, max_rel_error,
                     mul, reshape, scale, sigmoid, tanh, total, transpose)

TOL = 1e-4


def check_grad(build, arrays, tol=TOL):
    """Analytic gradients of build(*tensors) vs central finite differences."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    ad.backward(out)
    analytic = [t.grad.copy() for t in tensors]

    def f(*arrs):
        return float(build(*[Tensor(a) for a in arrs]).data)

    numeric = finite_diff(f, [a.copy() for a in arrays])
    for got, want in zip(analytic, numeric):
        err = max_rel_error(got, want)
        assert err <= tol, f"gradient mismatch: max rel error {err}"


def proj(rng, shape):
    """Fixed random projection used to scalarize multi-dim outputs through
    ad.inner."""
    return rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.matmul(a, b).data, b.data)


def test_matmul_basis_projection():
    a = Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = Tensor([[5.0], [7.0]])
    assert np.array_equal(ad.matmul(a, b).data, [[5.0], [0.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    check_grad(lambda x, y: total(ad.matmul(x, y)), [a, b])


# ---------------------------------------------------------------------------
# element-wise primitives of the test oracles


def test_sigmoid_at_zero():
    assert sigmoid(Tensor(0.0)).item() == 0.5


def test_tanh_at_zero_with_unit_derivative():
    x = Tensor(0.0, requires_grad=True)
    y = tanh(x)
    assert y.item() == 0.0
    ad.backward(y)
    assert x.grad == 1.0


def test_sigmoid_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    check_grad(lambda x: total(sigmoid(x)), [rng.standard_normal(7)])


def test_binary_ops_require_equal_shapes():
    with pytest.raises(ShapeError):
        ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        mul(Tensor(np.zeros((2, 2))), Tensor(np.zeros(4)))
    # add takes a bias row, but no column and no row of another width
    for a, b in (((3, 4), (3,)), ((3, 4), (5,)), ((3,), (3, 4)), ((2, 3, 4), (4,))):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros(a)), Tensor(np.zeros(b)))
    for c in (np.ones(4), np.ones((4, 3)), np.ones((1, 3, 4)), 1.0):
        with pytest.raises(ShapeError):
            ad.inner(Tensor(np.zeros((3, 4))), c)


def test_add_of_a_bias_row_adds_it_to_every_row_and_sums_its_gradient():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor([10.0, 20.0, 30.0], requires_grad=True)
    out = ad.add(a, b)
    assert np.array_equal(out.data, [[10.0, 21.0, 32.0], [13.0, 24.0, 35.0]])
    ad.backward(ad.inner(out, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    assert np.array_equal(a.grad, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(b.grad, [5.0, 7.0, 9.0])


def test_inner_is_the_sum_of_the_product_with_the_constant_as_gradient():
    rng = np.random.default_rng(16)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    c = rng.standard_normal((3, 4))
    out = ad.inner(x, c)
    assert out.shape == () and out.item() == np.sum(x.data * c)
    ad.backward(scale(out, 2.0))
    assert np.array_equal(x.grad, 2.0 * c)


def test_inner_of_several_pairs_adds_their_sums_left_to_right_in_one_node():
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    y = Tensor(rng.standard_normal(2), requires_grad=True)
    s = Tensor(rng.standard_normal(), requires_grad=True)
    c, d = rng.standard_normal((3, 4)), rng.standard_normal(2)
    out = ad.inner(x, c, y, d, s, -1.0)
    assert out._op == "inner" and out._parents == (x, y, s)
    assert out.item() == np.sum(x.data * c) + np.sum(y.data * d) + np.sum(s.data * -1.0)
    ad.backward(scale(out, 2.0))
    assert np.array_equal(x.grad, 2.0 * c) and np.array_equal(y.grad, 2.0 * d)
    assert s.grad == -2.0
    # each constant has its own tensor's shape, and every tensor has one
    for more in ((y, c), (s, d), (y, 1.0), (y, d, s, np.ones(1))):
        with pytest.raises(ShapeError):
            ad.inner(x, c, *more)
    for more in ((y,), (y, d, s)):
        with pytest.raises(UsageError):
            ad.inner(x, c, *more)


def test_layer_norm_rejects_other_than_rows_with_row_wide_gain_and_bias():
    ones, zeros = Tensor(np.ones(4)), Tensor(np.zeros(4))
    for x, gain, bias in ((Tensor(np.zeros(4)), ones, zeros),
                          (Tensor(np.zeros((2, 3, 4))), ones, zeros),
                          (Tensor(np.zeros((3, 4))), Tensor(np.ones(3)), zeros),
                          (Tensor(np.zeros((3, 4))), ones, Tensor(np.zeros((1, 4)))),
                          (Tensor(np.zeros((3, 4))), Tensor(np.ones((3, 4))), zeros)):
        with pytest.raises(ShapeError):
            ad.layer_norm(x, gain, bias)


# ---------------------------------------------------------------------------
# concat


def test_concat_embedding_dims():
    parts = [Tensor(np.zeros(300)), Tensor(np.zeros(200)), Tensor(np.zeros(200))]
    assert ad.concat(parts).shape == (700,)


def test_concat_single_part_identity():
    v = Tensor([1.0, 2.0, 3.0])
    assert np.array_equal(ad.concat([v]).data, v.data)


def test_concat_backward_splits_gradient():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    ad.backward(total(ad.concat([a, b])))
    assert np.array_equal(a.grad, np.ones(3))
    assert np.array_equal(b.grad, np.ones(2))


def test_concat_off_axis_mismatch():
    with pytest.raises(ShapeError):
        ad.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)


# ---------------------------------------------------------------------------
# stable log-sum-exp


def lse(x, axis=0):
    return ad._stable_lse(np.asarray(x, dtype=float), axis)


def test_lse_two_zeros():
    assert lse([0.0, 0.0]) == pytest.approx(np.log(2.0), abs=1e-12)


def test_lse_large_values_no_overflow():
    assert lse([1000.0, 1000.0]) == pytest.approx(1000.0 + np.log(2.0), abs=1e-9)


def test_lse_singleton_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = float(rng.standard_normal())
        assert lse([a]) == pytest.approx(a, abs=1e-12)


def test_lse_neg_inf_entries_are_absent():
    assert lse([0.0, -np.inf]) == pytest.approx(0.0, abs=1e-12)
    assert lse([-np.inf, -np.inf]) == -np.inf
    assert np.array_equal(lse([[1.0, -np.inf], [-np.inf, -np.inf]], 1)[1:], [-np.inf])


def test_lse_neg_inf_gradient_is_zero_there():
    x = Tensor([1.0, -np.inf, 2.0], requires_grad=True)
    ad.backward(log_sum_exp(x))
    assert np.isfinite(x.grad).all()
    assert x.grad[1] == 0.0
    assert x.grad.sum() == pytest.approx(1.0, abs=1e-12)


def test_lse_bounds_property():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        x = rng.standard_normal(n) * 10.0
        v = lse(x)
        assert v >= np.max(x) - 1e-12
        assert v <= np.max(x) + np.log(n) + 1e-12


# ---------------------------------------------------------------------------
# row selection: take and gather_rows


def test_take_identity_row():
    assert np.array_equal(ad.take(Tensor(np.eye(3)), 1).data, [0.0, 1.0, 0.0])


def test_take_repeated_row_accumulates():
    table = Tensor(np.zeros((4, 2)), requires_grad=True)
    out = ad.add(ad.take(table, 2), ad.take(table, 2))
    ad.backward(total(out))
    assert np.array_equal(table.grad[2], [2.0, 2.0])


def test_take_untouched_rows_stay_zero():
    table = Tensor(np.ones((4, 2)), requires_grad=True)
    ad.backward(total(ad.take(table, 1)))
    assert np.array_equal(table.grad[[0, 2, 3]], np.zeros((3, 2)))


def test_take_out_of_range():
    with pytest.raises(IndexError):
        ad.take(Tensor(np.eye(3)), 3)
    with pytest.raises(IndexError):
        ad.take(Tensor(np.eye(3)), -4)


def test_gather_rows_shape_and_bad_ids():
    table = Tensor(np.arange(6.0).reshape(3, 2))
    out = ad.gather_rows(table, [[2, 0], [2, 2]])
    assert out.shape == (2, 2, 2)
    assert np.array_equal(out.data[0, 0], [4.0, 5.0])
    with pytest.raises(IndexError):
        ad.gather_rows(table, [3])
    with pytest.raises(IndexError):
        ad.gather_rows(table, [-1])
    with pytest.raises(UsageError):
        ad.gather_rows(table, [1.0])


def test_take_accepts_only_basic_indices():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(ad.take(x, (Ellipsis, 1)).data, [1.0, 4.0])
    for index in ([0, 0], np.array([1]), True, (0, [1])):
        with pytest.raises(UsageError):
            ad.take(x, index)
    with pytest.raises(IndexError):
        ad.take(x, 2)


# ---------------------------------------------------------------------------
# lstm_scan


def _scan_weights(rng, d, h):
    """Both directions' (2, 4H, d + 2 + H) block [W_x | b_x | b_h | W_h]
    for input width d and H = h."""
    return Tensor(rng.standard_normal((2, 4 * h, d + 2 + h)))


def test_packed_steps_gives_each_row_its_sequence_and_step():
    lengths, seq, step = ad.packed_steps([2, 3, 1], 6)
    assert lengths.tolist() == [2, 3, 1]
    assert seq.tolist() == [0, 0, 1, 1, 1, 2]
    assert step.tolist() == [0, 1, 0, 1, 2, 0]
    # no lengths: one sequence of all the rows
    lengths, seq, step = ad.packed_steps(None, 4)
    assert (lengths.tolist(), seq.tolist(), step.tolist()) == ([4], [0] * 4, [0, 1, 2, 3])
    # numpy integers pass, as np.diff gives them
    for lengths in (np.diff([0, 2, 5]), [np.int64(2), 3], np.array([2, 3], dtype=np.uint8)):
        assert ad.packed_steps(lengths, 5)[0].tolist() == [2, 3]
    for lengths, n in (([], 0), ([0, 5], 5), ([1, 5], 5), ([4], 5), ([-1, 6], 5), (None, 0),
                       # refused rather than truncated or parsed
                       ([2.7, 3.3], 5), ([True, 4], 5), (["2", "3"], 5),
                       (np.array([2.0, 3.0]), 5), (np.array([[2, 3]]), 5)):
        with pytest.raises(UsageError):
            ad.packed_steps(lengths, n)


@pytest.mark.parametrize("finals", [False, True])
def test_lstm_scan_of_a_packed_batch_equals_each_sequence_alone(finals):
    rng = np.random.default_rng(13)
    w = _scan_weights(rng, 3, 2)
    lengths = [2, 4, 1]
    x = rng.standard_normal((7, 3))
    out = ad.lstm_scan(Tensor(x), lengths, w, finals).data
    starts = np.cumsum([0] + lengths)
    alone = np.concatenate([ad.lstm_scan(Tensor(x[a:b]), [b - a], w, finals).data
                            for a, b in zip(starts, starts[1:])])
    assert out.shape == ((3, 4) if finals else (7, 4))
    assert np.max(np.abs(out - alone)) <= 1e-12


@pytest.mark.parametrize("lengths", [[5], [2, 3]])
def test_lstm_scan_reverse_is_a_forward_scan_of_the_flipped_rows(lengths):
    """Each direction's half of the output is the other half of a scan of
    every sequence's rows reversed, with the two directions' weights
    swapped."""
    rng = np.random.default_rng(15)
    w = _scan_weights(rng, 3, 2)
    x = rng.standard_normal((5, 3))
    starts = np.cumsum([0] + lengths)
    flip = np.concatenate([np.arange(b - 1, a - 1, -1) for a, b in zip(starts, starts[1:])])
    both = ad.lstm_scan(Tensor(x), lengths, w).data
    swapped = ad.lstm_scan(Tensor(x[flip]), lengths,
                           Tensor(w.data[::-1])).data[flip]
    assert np.max(np.abs(both - np.roll(swapped, 2, axis=1))) <= 1e-12


@pytest.mark.parametrize("finals", [False, True])
def test_a_second_lstm_scan_backward_adds_the_same_gradients_again(finals):
    """Backward scales a buffer of its own in place; were it to write into
    an array the forward pass kept (gates, cells, states), a second
    backward over the same graph would push different gradients.  The
    leaves are zeroed between the passes, so the two are compared bit for
    bit, not through a sum whose rounding depends on what it adds to."""
    rng = np.random.default_rng(16)
    leaves = [Tensor(a, requires_grad=True) for a in _scan_arrays(rng)]
    out = ad.lstm_scan(leaves[0], [4, 1, 3], leaves[1], finals=finals)
    root = ad.inner(out, rng.standard_normal(out.shape))
    ad.backward(root)
    first = [t.grad.copy() for t in leaves]
    ad.backward(root)
    assert all(np.allclose(t.grad, g + g, rtol=1e-14, atol=0.0) for t, g in zip(leaves, first))
    for t in leaves:
        t.zero_grad()
    ad.backward(root)
    for t, g in zip(leaves, first):
        assert np.array_equal(t.grad, g)


def test_lstm_scan_rejects_bad_lengths_and_shapes():
    rng = np.random.default_rng(14)
    w = _scan_weights(rng, 3, 2)
    x = Tensor(np.zeros((5, 3)))
    for lengths in ([0, 5], [1, 5], [4], []):
        with pytest.raises(UsageError):
            ad.lstm_scan(x, lengths, w)
    with pytest.raises(ShapeError):
        ad.lstm_scan(Tensor(np.zeros((1, 5, 3))), [5], w)
    with pytest.raises(ShapeError):
        ad.lstm_scan(Tensor(np.zeros((5, 2))), [5], w)
    # the block with one direction only, with three, and a band short
    block = w.data
    for bad in (block[0], np.concatenate([block, block[:1]]), block[:, :6]):
        with pytest.raises(ShapeError):
            ad.lstm_scan(x, [5], Tensor(bad))


@pytest.mark.parametrize("width", [3, 5, 6, 8])
def test_lstm_scan_rejects_a_block_whose_width_is_not_d_plus_2_plus_h(width):
    """A (2, 8, width) block for D = 3 and H = 2 needs width 7, [W_x | b_x |
    b_h | W_h]: W_x alone, no W_h, one column short (a single bias column)
    and one over are refused."""
    x = Tensor(np.zeros((5, 3)))
    with pytest.raises(ShapeError, match="weight block"):
        ad.lstm_scan(x, [5], Tensor(np.zeros((2, 8, width))))


@pytest.mark.parametrize("rows", [0, 3, 7, 9, 12])
def test_lstm_scan_rejects_a_block_whose_row_count_is_not_4h(rows):
    """For D = 3 and a width of 7, H is 2 and the block needs 8 rows: too
    few for one band, not a multiple of four, or 4H for another H."""
    x = Tensor(np.zeros((5, 3)))
    with pytest.raises(ShapeError, match="weight block"):
        ad.lstm_scan(x, [5], Tensor(np.zeros((2, rows, 7))))


# ---------------------------------------------------------------------------
# dropout


def test_dropout_inference_is_identity():
    x = Tensor(np.arange(5.0))
    out = ad.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
    assert out is x


def test_dropout_p_zero_is_identity():
    x = Tensor(np.arange(5.0))
    out = ad.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
    assert np.array_equal(out.data, x.data)


def test_dropout_invalid_probability():
    x = Tensor(np.zeros(3))
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        ad.dropout(x, 1.0, training=True, rng=rng)
    with pytest.raises(ConfigError):
        ad.dropout(x, -0.1, training=True, rng=rng)


def test_dropout_is_unbiased():
    # empirical mean over 10^5 trials within 2% of x
    rng = np.random.default_rng(5)
    x = Tensor(np.linspace(0.5, 1.5, 8))
    total = np.zeros(8)
    trials = 100_000
    for _ in range(trials):
        total += ad.dropout(x, 0.5, training=True, rng=rng).data
    mean = total / trials
    assert np.all(np.abs(mean - x.data) / x.data < 0.02)


# ---------------------------------------------------------------------------
# backward


def test_backward_of_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.backward(total(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_of_dot_swaps_operands():
    rng = np.random.default_rng(6)
    xv, yv = rng.standard_normal(4), rng.standard_normal(4)
    x, y = Tensor(xv, requires_grad=True), Tensor(yv, requires_grad=True)
    ad.backward(total(mul(x, y)))
    assert np.allclose(x.grad, yv)
    assert np.allclose(y.grad, xv)


def test_backward_requires_scalar_root():
    with pytest.raises(UsageError):
        ad.backward(Tensor(np.zeros(3), requires_grad=True))


def test_composite_graph_matches_finite_differences():
    # sigmoid -> matrix-vector product -> tanh -> lse, with a shared input
    rng = np.random.default_rng(7)
    w = rng.standard_normal((3, 3))
    x = rng.standard_normal(3)

    def build(wt, xt):
        return log_sum_exp(tanh(matvec(wt, sigmoid(xt))), axis=0)

    check_grad(build, [w, x])


def test_backward_is_linear():
    rng = np.random.default_rng(8)
    xv = rng.standard_normal(5)

    def parts(x):
        return total(sigmoid(x)), total(mul(x, x))

    x1 = Tensor(xv.copy(), requires_grad=True)
    a, b = parts(x1)
    ad.backward(ad.add(a, b))

    x2 = Tensor(xv.copy(), requires_grad=True)
    a2, _ = parts(x2)
    ad.backward(a2)
    x3 = Tensor(xv.copy(), requires_grad=True)
    _, b3 = parts(x3)
    ad.backward(b3)

    assert np.allclose(x1.grad, x2.grad + x3.grad, rtol=0, atol=1e-12)


def test_forward_backward_deterministic():
    def run():
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        h = ad.dropout(sigmoid(x), 0.3, training=True, rng=rng)
        out = total(log_sum_exp(h, axis=1))
        ad.backward(out)
        return out.item(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


def test_grad_zero_after_creation_and_zero_grad():
    x = Tensor(np.ones(4), requires_grad=True)
    assert np.array_equal(x.grad, np.zeros(4))
    ad.backward(total(x))
    x.zero_grad()
    assert np.array_equal(x.grad, np.zeros(4))
    constant = Tensor(np.ones(4))  # no buffer unless a gradient is wanted
    assert constant.grad is None
    constant.zero_grad()
    assert constant.grad is None


def test_forward_allocates_no_adjoints_and_backward_keeps_only_leaves():
    x = Tensor(np.arange(3.0), requires_grad=True)
    h = tanh(scale(x, 2.0))
    loss = total(mul(h, h))
    nodes = ad.trace(loss)
    assert all(n._grad is None for n in nodes)
    ad.backward(loss)
    assert [n for n in nodes if n._grad is not None] == [x]
    t = np.tanh(2.0 * np.arange(3.0))
    assert np.allclose(x.grad, 4.0 * t * (1.0 - t * t))
    ad.backward(loss)  # a second pass adds the same gradient once more
    assert np.allclose(x.grad, 8.0 * t * (1.0 - t * t))


def test_no_grad_records_no_graph_and_restores_on_exit():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError), ad.no_grad():
        inner = sigmoid(x)
        ad.add(x, Tensor(np.ones(2)))
    assert inner._parents == () and inner._backward is None
    assert inner.grad is None and not inner.requires_grad
    assert np.array_equal(inner.data, sigmoid(x).data)
    outer = sigmoid(x)
    assert outer._parents == (x,) and outer.requires_grad


def test_trace_topological_order():
    x = Tensor(np.ones(3), requires_grad=True)
    y = total(mul(sigmoid(x), tanh(x)))
    order = ad.trace(y)
    seen = set()
    for node in order:
        for parent in node._parents:
            assert id(parent) in seen
        seen.add(id(node))
    assert len(order) == len(seen)


# ---------------------------------------------------------------------------
# gradient suite over every differentiable operation (spec invariant: >=50
# random small instances per op, max rel error <= 1e-4)


def _scan_arrays(rng, n=8):
    """x (n, 3) and the (2, 8, 7) block [W_x | b_x | b_h | W_h] of both
    directions for H = 2, its two bias columns nonzero: each direction's
    W_x, W_h, b_x and b_h drawn in that order, forward before backward."""
    x = rng.standard_normal((n, 3))
    fwd, bwd = ([rng.standard_normal(shape) for shape in ((8, 3), (8, 2), 8, 8)]
                for _ in range(2))
    w_x, w_h, b_x, b_h = (np.stack(pair) for pair in zip(fwd, bwd))
    return [x, np.concatenate([w_x, b_x[..., None], b_h[..., None], w_h], axis=2)]


def _op_cases(rng):
    # projections of the newer ops come from their own generator, so the
    # draws of the older cases stay as they were
    side = np.random.default_rng(12)
    side.standard_normal(24)  # spent, so the projections after it keep their values
    p_gather = proj(side, (2, 2, 3))
    p_take = proj(side, 3)
    p_attn = proj(side, (6, 4))
    p_scan = proj(side, (8, 4))
    p_norm = proj(side, (3, 4))
    p_gelu = proj(side, (2, 3))
    p_stack = proj(side, (3, 4))
    p_inner = proj(side, (3, 4))
    p_row = proj(side, (3, 4))
    p_scan_finals = proj(side, (3, 4))
    p_pairs = proj(side, (3, 4))
    p_pairs_row = proj(side, 4)
    p_scan_one = proj(side, (5, 4))
    p_scan_one_finals = proj(side, (1, 4))
    p_scan_unit = proj(side, (3, 4))
    p_scan_unit_finals = proj(side, (3, 4))
    bio2 = illegal_mask(["O", "B-X", "I-X"])
    far = np.zeros((6, 3))
    far[1, 0] = 800.0
    p2 = proj(rng, (3, 2))
    p22 = proj(rng, (2, 2))
    p23 = proj(rng, (2, 3))
    rng.standard_normal(3)  # spent, so the projections after it keep their values
    p4 = proj(rng, 4)
    pm = proj(rng, (3, 4))
    return {
        "matmul": (lambda a, b: ad.inner(ad.matmul(a, b), p2),
                   lambda: [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))]),
        "add": (lambda a, b: ad.inner(ad.add(a, b), p4),
                lambda: [rng.standard_normal(4), rng.standard_normal(4)]),
        # a (4,) bias row added to every row of a (3, 4) matrix
        "add_row": (lambda a, b: ad.inner(ad.add(a, b), p_row),
                    lambda: [rng.standard_normal((3, 4)), rng.standard_normal(4)]),
        "inner": (lambda a: ad.inner(a, p_inner),
                  lambda: [rng.standard_normal((3, 4))]),
        # three (tensor, constant) pairs in one node, the last tensor 0-d
        "inner_pairs": (lambda a, b, s: ad.inner(a, p_pairs, b, p_pairs_row, s, -1.3),
                        lambda: [rng.standard_normal((3, 4)), rng.standard_normal(4),
                                 rng.standard_normal(())]),
        "mul": (lambda a, b: ad.inner(mul(a, b), p4),
                lambda: [rng.standard_normal(4), rng.standard_normal(4)]),
        "scale": (lambda a: ad.inner(scale(a, -1.7), p4),
                  lambda: [rng.standard_normal(4)]),
        "sigmoid": (lambda a: ad.inner(sigmoid(a), p4),
                    lambda: [rng.standard_normal(4) * 2]),
        "tanh": (lambda a: ad.inner(tanh(a), p4),
                 lambda: [rng.standard_normal(4) * 2]),
        "exp": (lambda a: ad.inner(exp(a), p4),
                lambda: [rng.standard_normal(4)]),
        "gelu": (lambda a: ad.inner(ad.gelu(a), p_gelu),
                 lambda: [rng.standard_normal((2, 3)) * 2]),
        # w.r.t. the rows, the gain and the bias
        "layer_norm": (lambda x, g, b: ad.inner(ad.layer_norm(x, g, b), p_norm),
                       lambda: [rng.standard_normal((3, 4)) * 2, rng.standard_normal(4),
                                rng.standard_normal(4)]),
        "stack": (lambda a, b, c: ad.inner(ad.stack([a, b, c]), p_stack),
                  lambda: [rng.standard_normal(4) for _ in range(3)]),
        "concat": (lambda a, b: ad.inner(ad.concat([a, b], axis=1), pm),
                   lambda: [rng.standard_normal((3, 1)), rng.standard_normal((3, 3))]),
        "log_sum_exp": (lambda a: ad.inner(log_sum_exp(a, axis=1), np.ones(2)),
                        lambda: [rng.standard_normal((2, 5)) * 3]),
        "dropout": (lambda a: ad.inner(
            ad.dropout(a, 0.4, True, np.random.default_rng(11)), p4),
            lambda: [rng.standard_normal(4)]),
        "reshape": (lambda a: ad.inner(reshape(a, (2, 2)), p22),
                    lambda: [rng.standard_normal(4)]),
        "broadcast_to": (lambda a: ad.inner(broadcast_to(a, (3, 4)), pm),
                         lambda: [rng.standard_normal((1, 4))]),
        "transpose": (lambda a: ad.inner(transpose(a), p23),
                      lambda: [rng.standard_normal((3, 2))]),
        # both directions over three packed sequences of 4, 1 and 3 rows, as
        # per-row states and as each sequence's final states; gradients
        # w.r.t. x and the (2, 4H, D + 2 + H) block, whose b_x and b_h
        # columns are nonzero
        "lstm_scan": (lambda x, w: ad.inner(ad.lstm_scan(x, [4, 1, 3], w), p_scan),
                      lambda: _scan_arrays(rng)),
        "lstm_scan_finals": (lambda x, w: ad.inner(
            ad.lstm_scan(x, [4, 1, 3], w, finals=True), p_scan_finals),
            lambda: _scan_arrays(rng)),
        # the edges of the per-step blocks: one sequence (B = 1) of five
        # rows, and three sequences of one row each (L = 1)
        "lstm_scan_one": (lambda x, w: ad.inner(ad.lstm_scan(x, [5], w), p_scan_one),
                          lambda: _scan_arrays(rng, 5)),
        "lstm_scan_one_finals": (lambda x, w: ad.inner(
            ad.lstm_scan(x, [5], w, finals=True), p_scan_one_finals),
            lambda: _scan_arrays(rng, 5)),
        "lstm_scan_unit": (lambda x, w: ad.inner(ad.lstm_scan(x, [1, 1, 1], w), p_scan_unit),
                           lambda: _scan_arrays(rng, 3)),
        "lstm_scan_unit_finals": (lambda x, w: ad.inner(
            ad.lstm_scan(x, [1, 1, 1], w, finals=True), p_scan_unit_finals),
            lambda: _scan_arrays(rng, 3)),
        "gather_rows": (lambda t: ad.inner(ad.gather_rows(t, [[1, 3], [1, 1]]), p_gather),
                        lambda: [rng.standard_normal((4, 3))]),
        "take": (lambda a: ad.inner(ad.take(a, (slice(None, None, -1), 1)), p_take),
                 lambda: [rng.standard_normal((3, 4))]),
        # the fused forward algorithm over 1 to 5 positions and 3 tags,
        # w.r.t. the emissions and the whole transition table, free and
        # under the BIO2 mask of O, B-X, I-X
        "crf_forward": (lambda e, t: scale(ad.crf_forward(e, t), 1.3),
                        lambda: [rng.standard_normal((rng.integers(1, 6), 3)),
                                 rng.standard_normal((4, 4))]),
        "crf_forward_masked": (lambda e, t: scale(ad.crf_forward(e, t, bio2), 1.3),
                               lambda: [rng.standard_normal((rng.integers(1, 6), 3)),
                                        rng.standard_normal((4, 4))]),
        # three packed sequences of 3, 1 and 2 positions under the BIO2 mask
        "crf_forward_packed": (lambda e, t: scale(
            ad.crf_forward(e, t, bio2, [3, 1, 2]), 1.3),
            lambda: [rng.standard_normal((6, 3)), rng.standard_normal((4, 4))]),
        # four packed sequences, two of one row, with emissions 30 times
        # wider: the scaled pass
        "crf_forward_wide": (lambda e, t: scale(
            ad.crf_forward(e, t, bio2, [1, 3, 1, 2]), 1.3),
            lambda: [rng.standard_normal((7, 3)) * 30, rng.standard_normal((4, 4))]),
        # row 1's O score 800 below the rest of its row, so its exp
        # underflows: the log-space loop
        "crf_forward_fallback": (lambda e, t: scale(
            ad.crf_forward(e, t, bio2, [3, 1, 2]), 1.3),
            lambda: [rng.standard_normal((6, 3)) - far, rng.standard_normal((4, 4))]),
        # fused attention over three sequences of 3, 1 and 2 rows with two
        # heads of width 2, w.r.t. the (6, 12) [q | k | v] rows
        "attention": (lambda qkv: ad.inner(ad.attention(qkv, [3, 1, 2], 2), p_attn),
                      lambda: [rng.standard_normal((6, 12))]),
    }


@pytest.mark.parametrize("name", sorted(_op_cases(np.random.default_rng(0)).keys()))
def test_gradient_suite_per_op(name):
    seed = sum(name.encode())  # stable across processes, unlike hash()
    rng = np.random.default_rng(seed)
    build, make = _op_cases(rng)[name]
    for _ in range(50):
        check_grad(build, make())


@pytest.mark.parametrize("name, falls_back", [("crf_forward_wide", False),
                                              ("crf_forward_fallback", True)])
def test_the_crf_cases_take_the_path_they_name(name, falls_back, monkeypatch):
    """The wide crf_forward case stays in the scaled pass and the fallback
    case runs the log-space loop, on every draw."""
    calls = []
    log_loop = ad._crf_forward_log
    monkeypatch.setattr(ad, "_crf_forward_log", lambda *a: calls.append(a) or log_loop(*a))
    build, make = _op_cases(np.random.default_rng(sum(name.encode())))[name]
    for _ in range(50):
        build(*[Tensor(a, requires_grad=True) for a in make()])
    assert len(calls) == (50 if falls_back else 0)


def _result_ops(module):
    """The op names module gives the engine's _result."""
    return {call.args[2].value for call in ast.walk(ast.parse(inspect.getsource(module)))
            if isinstance(call, ast.Call)
            and "_result" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))}


ENGINE_OPS = {"matmul", "add", "gelu", "layer_norm", "concat", "gather_rows",
              "take", "dropout", "stack", "lstm_scan", "crf_forward", "attention",
              "inner"}


def test_every_op_has_a_gradient_case():
    """autodiff.py gives _result exactly the 13 engine op names, and every
    op name it or the test oracles give _result is the op of a node in one
    of the _op_cases graphs."""
    assert _result_ops(ad) == ENGINE_OPS
    ops = ENGINE_OPS | _result_ops(oracles)
    seen = set()
    for build, make in _op_cases(np.random.default_rng(0)).values():
        root = build(*[Tensor(a, requires_grad=True) for a in make()])
        seen.update(node._op for node in ad.trace(root))
    assert ops <= seen, f"ops without a gradient case: {sorted(ops - seen)}"
