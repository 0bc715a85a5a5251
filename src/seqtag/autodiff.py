"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array together with a gradient buffer and links to the
tensors it was computed from.  Every operation records a closure that takes
the output adjoint and pushes it back into its parents, so calling backward()
on a scalar result fills .grad of every upstream leaf that requires it.  A
gradient buffer is allocated when it is first used, and backward releases
each operation's output adjoint once it has been pushed on, so a graph holds
its values but never all of its adjoints at once.  A closure holds the parents and the arrays it needs, never its own output, so a
graph contains no reference cycle and is freed as soon as its root is.  The
graph is dynamic: it is rebuilt from scratch on every forward pass, which
keeps variable-length sequence models simple.

Inside a no_grad() block operations only compute values: their results carry
no parents, no closure and no gradient buffer.

There is no element-wise product of two graph tensors and no broadcast op: a
bias row goes to every row of a matrix through add, and a tensor is reduced
to a scalar by inner, its weighted sum against a constant array.

All arithmetic is 64-bit.  Gradients accumulate additively; callers zero them
between optimization steps.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ConfigError, ShapeError, UsageError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: for inference, where nothing is
    differentiated."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """Node of the differentiation graph: values, gradient, and provenance.

    grad is a buffer of data's shape when requires_grad is set, None
    otherwise; it is allocated as zeros on first access.
    """

    __slots__ = ("data", "_grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, _parents=(), _op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = None
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def grad(self):
        if self._grad is None and self.requires_grad:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

    def zero_grad(self):
        if self._grad is not None:
            self._grad[...] = 0.0

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # operator sugar: + and - take Tensors, * takes a scalar (scale())
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __mul__(self, c):
        return scale(self, c)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _result(data, parents, op, backward_fn):
    """Output node of an operation; backward_fn(grad) pushes the output
    adjoint into the parents."""
    if not _grad_enabled:
        return Tensor(data, _op=op)
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents),
                 _parents=tuple(parents), _op=op)
    out._backward = backward_fn
    return out


def trace(root: Tensor) -> list[Tensor]:
    """Nodes reachable from root in topological order (parents first).

    Iterative depth-first search; sequence graphs routinely exceed Python's
    recursion limit.
    """
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(tensor) into .grad of every reachable leaf.

    root must be scalar (shape ()).  Grads add up across calls and across
    shared subgraphs; callers zero them between steps.  The adjoint of each
    operation's output is released once its closure has run.
    """
    if root.data.ndim != 0:
        raise UsageError(f"backward root must be scalar, got shape {root.shape}")
    order = trace(root)
    root.grad = np.asarray(1.0)
    for node in reversed(order):
        if node._backward is not None and node.requires_grad:
            node._backward(node.grad)
            node._grad = None


# ---------------------------------------------------------------------------
# core operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two matrices."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D @ 2-D, got {a.shape} @ {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")

    def _bw(g):
        if a.requires_grad:
            a.grad += g @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ g

    return _result(a.data @ b.data, (a, b), "matmul", _bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for equal shapes, or for an (n, d) matrix a and a (d,) row b
    added to every row of it (a bias)."""
    row = a.data.ndim == 2 and b.shape == a.shape[1:]
    if a.shape != b.shape and not row:
        raise ShapeError(f"add requires equal shapes or an (n, d) + (d,) row, "
                         f"got {a.shape} and {b.shape}")

    def _bw(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad += g.sum(axis=0) if row else g

    return _result(a.data + b.data, (a, b), "add", _bw)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def _bw(g):
        if x.requires_grad:
            x.grad += g * c

    return _result(x.data * c, (x,), "scale", _bw)


def inner(x: Tensor, c) -> Tensor:
    """Sum of x * c over all entries, as a scalar, for a constant array c of
    x's shape: a weighted sum, such as a path score's picked cells."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape != x.shape:
        raise ShapeError(f"inner needs a constant of shape {x.shape}, got {c.shape}")

    def _bw(g):
        if x.requires_grad:
            x.grad += g * c

    return _result(np.sum(x.data * c), (x,), "inner", _bw)


def gelu(x: Tensor) -> Tensor:
    """tanh approximation of the Gaussian error linear unit,
    0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))."""
    d, c = x.data, math.sqrt(2.0 / math.pi)
    t = np.tanh((d + d * d * d * 0.044715) * c)

    def _bw(g):
        if x.requires_grad:
            x.grad += g * 0.5 * (1.0 + t + d * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * d * d))

    return _result(d * (t + 1.0) * 0.5, (x,), "gelu", _bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization of (n, d) rows as one node: each row is
    centred, divided by sqrt(its variance + eps), then scaled by the (d,)
    gain and shifted by the (d,) bias."""
    if x.data.ndim != 2 or gain.shape != x.shape[1:] or bias.shape != x.shape[1:]:
        raise ShapeError(f"layer_norm expects (n, d) rows with (d,) gain and bias, "
                         f"got {x.shape}, {gain.shape}, {bias.shape}")
    d = x.shape[1]
    centered = x.data - np.sum(x.data, axis=1, keepdims=True) * (1.0 / d)
    inv_std = 1.0 / np.sqrt(np.sum(centered * centered, axis=1, keepdims=True) * (1.0 / d) + eps)
    normed = centered * inv_std

    def _bw(g):
        if gain.requires_grad:
            gain.grad += np.sum(g * normed, axis=0)
        if bias.requires_grad:
            bias.grad += np.sum(g, axis=0)
        if x.requires_grad:
            dn = g * gain.data
            x.grad += inv_std * (dn - np.mean(dn, axis=1, keepdims=True)
                                 - normed * np.mean(dn * normed, axis=1, keepdims=True))

    return _result(normed * gain.data + bias.data, (x, gain, bias), "layer_norm", _bw)


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise UsageError("concat of zero tensors")
    ndim = parts[0].data.ndim
    if axis < 0:
        axis += ndim
    for p in parts[1:]:
        if p.data.ndim != ndim:
            raise ShapeError(f"concat rank mismatch: {parts[0].shape} vs {p.shape}")
        for ax in range(ndim):
            if ax != axis and p.shape[ax] != parts[0].shape[ax]:
                raise ShapeError(
                    f"concat off-axis dimensions disagree: {parts[0].shape} vs {p.shape}")
    sizes = [p.shape[axis] for p in parts]

    def _bw(g):
        offset = 0
        for p, n in zip(parts, sizes):
            if p.requires_grad:
                index = [slice(None)] * ndim
                index[axis] = slice(offset, offset + n)
                p.grad += g[tuple(index)]
            offset += n

    return _result(np.concatenate([p.data for p in parts], axis=axis), parts,
                   "concat", _bw)


def _stable_lse(d: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(d))) along axis.  -inf entries contribute nothing; an
    all--inf slice gives -inf."""
    m = np.max(d, axis=axis)
    finite = np.isfinite(m)
    m_safe = np.where(finite, m, 0.0)
    e = np.where(np.isneginf(d), 0.0, np.exp(d - np.expand_dims(m_safe, axis)))
    s = np.sum(e, axis=axis)
    return np.where(finite, m_safe + np.log(np.where(s > 0.0, s, 1.0)), -np.inf)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Rows of a 2-D table picked by an integer id array of any shape.

    The result has shape ids.shape + (table columns,).  Backward adds each
    output row into its table row, so repeated ids accumulate.
    """
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D table, got {table.shape}")
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise UsageError(f"gather_rows ids must be integers, got dtype {ids.dtype}")
    ids = ids.astype(np.intp)
    if ids.size and not (0 <= ids.min() and ids.max() < table.shape[0]):
        raise IndexError(f"gather_rows ids outside [0, {table.shape[0]})")

    def _bw(g):
        if table.requires_grad:
            np.add.at(table.grad, ids, g)

    return _result(table.data[ids], (table,), "gather_rows", _bw)


def _is_basic_index(index) -> bool:
    parts = index if isinstance(index, tuple) else (index,)
    return all(p is Ellipsis or isinstance(p, slice)
               or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
               for p in parts)


def take(x: Tensor, index) -> Tensor:
    """x.data[index] for a basic index: integers, slices and Ellipsis.

    Basic indexing never selects an element twice, so backward adds the
    adjoint into the selected view.
    """
    if not _is_basic_index(index):
        raise UsageError(f"take needs integers, slices or Ellipsis, got {index!r}")

    def _bw(g):
        if x.requires_grad:
            x.grad[index] += g

    return _result(x.data[index].copy(), (x,), "take", _bw)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-p) so inference is identity."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p) / (1.0 - p)

    def _bw(g):
        if x.requires_grad:
            x.grad += g * keep

    return _result(x.data * keep, (x,), "dropout", _bw)


# ---------------------------------------------------------------------------
# structural operations used by the encoders and the CRF


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {x.shape}")

    def _bw(g):
        if x.requires_grad:
            x.grad += g.T

    return _result(x.data.T.copy(), (x,), "transpose", _bw)


def stack(rows: list[Tensor]) -> Tensor:
    """Stack 1-D tensors of equal length into a matrix, one per row."""
    if not rows:
        raise UsageError("stack of zero tensors")
    for r in rows:
        if r.data.ndim != 1 or r.shape != rows[0].shape:
            raise ShapeError(f"stack needs 1-D rows of equal length, got "
                             f"{rows[0].shape} and {r.shape}")

    def _bw(g):
        for r, g_row in zip(rows, g):
            if r.requires_grad:
                r.grad += g_row

    return _result(np.stack([r.data for r in rows]), rows, "stack", _bw)


# ---------------------------------------------------------------------------
# fused recurrent operations


def packed_steps(lengths, n: int):
    """Sequence lengths that split n packed rows, as an int array, plus the
    sequence and the step within it of every row.  UsageError unless the
    lengths are non-empty, each at least 1, and sum to n."""
    lengths = np.asarray([int(k) for k in lengths], dtype=np.intp)
    if not lengths.size or lengths.min() < 1 or lengths.sum() != n:
        raise UsageError(f"sequence lengths {lengths.tolist()} do not split {n} rows")
    seq = np.repeat(np.arange(lengths.size), lengths)
    step = np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return lengths, seq, step


def lstm_scan(x: Tensor, lengths, w_x: Tensor, w_h: Tensor, b_x: Tensor,
              b_h: Tensor, reverse: bool = False) -> Tensor:
    """An LSTM over each of several packed sequences, as one node.

    x is (n, D) with the sequences back to back, lengths[b] rows each.  The
    gate weights are stacked blocks of four row bands, for the input, forget,
    cell and output gates in that order: w_x (4H, D), w_h (4H, H), b_x (4H,)
    and b_h (4H,).  From a zero initial state, step t of a sequence computes

        z = x_t W_x^T + b_x + h W_h^T + b_h,   i, f, o = sigmoid, g = tanh
        c = f * c + i * g,                      h = o * tanh(c)

    reading its rows first to last, or last to first when reverse is set.
    As sigmoid(z) = (1 + tanh(z/2)) / 2, the i, f and o bands of W_x, W_h
    and b_x + b_h are halved once per call, and one tanh per step, then one
    multiply and one add, give all four gates.
    Returns the (n, H) hidden states, row for row: a sequence's final state
    sits on its last row, or on its first when reverse is set.  All
    sequences step together in one zero-padded batch; a finished sequence
    runs on over padding, but no output reads those states.  Backward runs
    through time by hand; under no_grad nothing is kept for it.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"lstm_scan expects packed (n, D) rows, got {x.shape}")
    n, D = x.shape
    lengths, seq, step = packed_steps(lengths, n)
    H = b_h.size // 4
    for t, shape in zip((w_x, w_h, b_x, b_h), ((4 * H, D), (4 * H, H), (4 * H,), (4 * H,))):
        if t.shape != shape:
            raise ShapeError(f"lstm_scan weight has shape {t.shape}, expected {shape}")
    Wx, Wh = w_x.data, w_h.data
    B, L = lengths.size, int(lengths.max())
    if reverse:
        step = lengths[seq] - 1 - step
    at = (seq, step)

    half = np.repeat([0.5, 0.5, 1.0, 0.5], H)  # 1/2 on the sigmoid bands, 1 on g
    shift = 1.0 - half
    wh_half = (Wh * half[:, None]).T
    xp = np.zeros((B, L, 4 * H))  # the input side of every step at once
    xp[at] = x.data @ (Wx * half[:, None]).T + (b_x.data + b_h.data) * half
    h = c = np.zeros((B, H))
    out = np.empty((B, L, H))
    saved = [] if _grad_enabled else None  # per step: previous state, gates, tanh(new cell)
    for t in range(L):
        a = np.tanh(xp[:, t] + h @ wh_half) * half + shift
        i, f, g, o = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        if saved is not None:
            saved.append((h, c, a, tc))
        h, c = o * tc, c_new
        out[:, t] = h

    def _bw(gout):
        g_pad = np.zeros((B, L, H))
        g_pad[at] = gout
        dz_all = np.empty((B, L, 4 * H))
        dWh = np.zeros_like(Wh)
        dh = dc = np.zeros((B, H))
        for t in range(L - 1, -1, -1):
            h_prev, c_prev, a, tc = saved[t]
            i, f, g, o = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
            dh = dh + g_pad[:, t]
            dc_new = dc + dh * o * (1.0 - tc * tc)
            dz = dz_all[:, t]
            dz[:, :H] = dc_new * g * i * (1.0 - i)
            dz[:, H:2 * H] = dc_new * c_prev * f * (1.0 - f)
            dz[:, 2 * H:3 * H] = dc_new * i * (1.0 - g * g)
            dz[:, 3 * H:] = dh * tc * o * (1.0 - o)
            dWh += dz.T @ h_prev
            dh = dz @ Wh
            dc = dc_new * f
        dz = dz_all[at]
        db = dz.sum(axis=0)
        if w_x.requires_grad:
            w_x.grad += dz.T @ x.data
        for t, grad in ((w_h, dWh), (b_x, db), (b_h, db)):
            if t.requires_grad:
                t.grad += grad
        if x.requires_grad:
            x.grad += dz @ Wx

    return _result(out[at], (x, w_x, w_h, b_x, b_h), "lstm_scan", _bw)


def crf_forward(emissions: Tensor, transition: Tensor,
                mask: np.ndarray | None = None, lengths=None) -> Tensor:
    """Summed log-partition of linear-chain CRF sequences by the forward
    algorithm, as one node.

    emissions is (n, T) with n >= 1: one sequence, or several packed back
    to back with lengths[b] rows each, as for lstm_scan.  transition is
    (T+1, T+1), row T holding the begin-of-sentence and column T the
    end-of-sentence scores.  mask, if given, is a constant (T+1, T+1)
    additive table (0 or -inf per cell) shared by every sequence.  All
    sequences step together in one zero-padded (B, L, T) batch.  Backward
    is forward-backward: the emission adjoint is the per-position tag
    marginals and the transition adjoint the expected transition counts,
    summed over the sequences.  A sequence whose mask forbids every path
    adds -inf to the value and nothing to any gradient.
    """
    if emissions.data.ndim != 2 or emissions.shape[0] == 0:
        raise ShapeError(f"crf_forward expects non-empty (n, T) emissions, "
                         f"got {emissions.shape}")
    n, T = emissions.shape
    square = (T + 1, T + 1)
    if transition.shape != square or (mask is not None and np.shape(mask) != square):
        raise ShapeError(f"crf_forward needs a {square} transition table and mask")
    lengths, seq, step = packed_steps([n] if lengths is None else lengths, n)
    B, L = lengths.size, int(lengths.max())
    at = (seq, step)
    e = np.zeros((B, L, T))
    e[at] = emissions.data
    trans = transition.data if mask is None else transition.data + mask
    inner, eos = trans[:T, :T], trans[:T, T]
    alpha = np.empty((B, L, T))  # alpha[b, t, j]: log-sum of the prefixes ending in j at t
    alpha[:, 0] = trans[T, :T] + e[:, 0]
    for t in range(1, L):
        alpha[:, t] = _stable_lse(alpha[:, t - 1, :, None] + inner, 1) + e[:, t]
    last = lengths - 1
    log_z = _stable_lse(alpha[np.arange(B), last] + eos, 1)

    def _bw(g):
        beta = np.empty((B, L, T))  # beta[b, t, i]: log-sum of the suffixes after i at t
        beta[:, -1] = eos
        for t in range(L - 2, -1, -1):
            after = _stable_lse(inner + (e[:, t + 1] + beta[:, t + 1])[:, None, :], 2)
            beta[:, t] = np.where((t >= last)[:, None], eos, after)
        alpha_p, beta_p = alpha[at], beta[at]
        # a sequence with no allowed path has alpha + beta = -inf everywhere,
        # so with its -inf log_z replaced by 0 its marginals come out 0
        z = np.where(np.isfinite(log_z), log_z, 0.0)[seq, None]
        marginals = np.exp(alpha_p + beta_p - z)
        if emissions.requires_grad:
            emissions.grad += g * marginals
        if transition.requires_grad:
            r = np.flatnonzero(step[1:])  # rows followed by their sequence's next step
            pairs = np.exp(alpha_p[r, :, None] + inner
                           + (emissions.data[r + 1] + beta_p[r + 1])[:, None, :]
                           - z[r, :, None]).sum(axis=0)
            transition.grad[:T, :T] += g * pairs
            transition.grad[T, :T] += g * marginals[step == 0].sum(axis=0)
            transition.grad[:T, T] += g * marginals[np.cumsum(lengths) - 1].sum(axis=0)

    return _result(np.sum(log_z), (emissions, transition), "crf_forward", _bw)


# ---------------------------------------------------------------------------
# fused attention


def attention(q: Tensor, k: Tensor, v: Tensor, lengths, num_heads: int):
    """Multi-head scaled dot-product attention within each sequence, as one
    node.

    q, k and v are (N, d) with the sequences back to back, lengths[b] rows
    each.  Head h reads the column band h*dk:(h+1)*dk, dk = d // num_heads,
    and row i of the output band is softmax(q_i k^T / sqrt(dk)) v over the
    rows of i's own sequence, so no score crosses two sequences and memory
    grows with the sum of the squared lengths.  Returns the (N, d) output
    and one (num_heads, L, L) array of attention weights per sequence.
    """
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention expects equal (N, d) q, k, v, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    N, d = q.shape
    if num_heads < 1 or d % num_heads:
        raise ShapeError(f"attention cannot split width {d} into {num_heads} heads")
    lengths = packed_steps(lengths, N)[0].tolist()
    dk = d // num_heads
    c = 1.0 / math.sqrt(dk)
    qd, kd, vd = q.data, k.data, v.data
    bands = [slice(h * dk, (h + 1) * dk) for h in range(num_heads)]
    ends = np.cumsum(lengths).tolist()
    spans = [slice(b - n, b) for n, b in zip(lengths, ends)]
    out = np.empty((N, d))
    weights = []
    for rows, n in zip(spans, lengths):
        w = np.empty((num_heads, n, n))
        for h, cols in enumerate(bands):
            scores = (qd[rows, cols] @ kd[rows, cols].T) * c
            w[h] = np.exp(scores - _stable_lse(scores, 1)[:, None])
            out[rows, cols] = w[h] @ vd[rows, cols]
        weights.append(w)

    def _bw(g):
        dq, dk_, dv = np.empty((N, d)), np.empty((N, d)), np.empty((N, d))
        for rows, w in zip(spans, weights):
            for h, cols in enumerate(bands):
                p, g_h = w[h], g[rows, cols]
                dv[rows, cols] = p.T @ g_h
                dp = g_h @ vd[rows, cols].T
                ds = p * (dp - np.sum(dp * p, axis=1, keepdims=True)) * c
                dq[rows, cols] = ds @ kd[rows, cols]
                dk_[rows, cols] = ds.T @ qd[rows, cols]
        for t, grad in ((q, dq), (k, dk_), (v, dv)):
            if t.requires_grad:
                t.grad += grad

    return _result(out, (q, k, v), "attention", _bw), weights
