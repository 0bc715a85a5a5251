"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array together with a gradient buffer and links to the
tensors it was computed from.  Every operation records a closure that takes
the output adjoint and pushes it back into its parents, so calling backward()
on a scalar result fills .grad of every upstream leaf that requires it.  A
gradient buffer is allocated when it is first used, and backward releases
each operation's output adjoint once it has been pushed on, so a graph holds
its values but never all of its adjoints at once.  A closure holds the
parents and the arrays it needs, never its own output, so a graph contains
no reference cycle and is freed as soon as its root is.  The graph is
dynamic: it is rebuilt from scratch on every forward pass, which keeps
variable-length sequence models simple.

Inside a no_grad() block operations only compute values: their results carry
no parents, no closure and no gradient buffer.

The fused ops step over several sequences packed back to back.  lstm_scan,
both directions of a BiLSTM, lays each time step out as contiguous blocks
with the sequences on the last axis, so every numpy call of a step, forward
and backward, reads and writes whole blocks: one product gives a step's
gates from its input rows, two rows of ones and the previous state, and the
backward loop only scales and multiplies per-step blocks of slopes that it
computed for all steps at once.

There is no element-wise product of two graph tensors and no broadcast or
scale op: a bias row goes to every row of a matrix through add, and inner
reduces tensors to one scalar, the sum of their weighted sums.

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

    # operator sugar: + is add, @ is matmul; differences and multiples are inner
    def __add__(self, other):
        return add(self, other)

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


def inner(x: Tensor, c, *more) -> Tensor:
    """Sum of x * c over all entries, as a scalar, for a constant array c of
    x's shape: a weighted sum, such as a path score's picked cells.  Further
    (tensor, constant) pairs add their own sums, left to right, in the same
    node."""
    if len(more) % 2:
        raise UsageError("inner takes (tensor, constant) pairs; the last tensor has no constant")
    tensors = (x,) + more[::2]
    consts = [np.asarray(k, dtype=np.float64) for k in (c,) + more[1::2]]
    sums = []
    for t, k in zip(tensors, consts):
        if k.shape != t.shape:
            raise ShapeError(f"inner needs a constant of shape {t.shape}, got {k.shape}")
        sums.append(np.sum(t.data * k))

    def _bw(g):
        for t, k in zip(tensors, consts):
            if t.requires_grad:
                t.grad += g * k

    return _result(sum(sums[1:], sums[0]), tensors, "inner", _bw)


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


def as_ints(values, what: str) -> np.ndarray:
    """values as an int array.  UsageError unless each is an int (a bool is
    not) or a numpy integer: no fraction, bool or string is truncated or parsed."""
    values = list(values)
    if not all(type(v) is int or isinstance(v, np.integer) for v in values):
        raise UsageError(f"{what} must be integers, got {values!r}")
    return np.asarray(values, dtype=np.intp)


def packed_steps(lengths, n: int):
    """Sequence lengths that split n packed rows, as an int array, plus the
    sequence and the step within it of every row.  lengths None means one
    sequence of all n rows.  UsageError unless the lengths are integers
    (as_ints), non-empty, each at least 1, and sum to n."""
    if lengths is None and n >= 1:  # one sequence: nothing to check
        return np.full(1, n, dtype=np.intp), np.zeros(n, dtype=np.intp), np.arange(n)
    lengths = as_ints([n] if lengths is None else lengths, "sequence lengths")
    if not lengths.size or lengths.min() < 1 or lengths.sum() != n:
        raise UsageError(f"sequence lengths {lengths.tolist()} do not split {n} rows")
    seq = np.repeat(np.arange(lengths.size), lengths)
    step = np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return lengths, seq, step


def lstm_scan(x: Tensor, lengths, w: Tensor, finals: bool = False) -> Tensor:
    """A bidirectional LSTM over each of several packed sequences, as one
    node.

    x is (n, D) with the sequences back to back, lengths[b] rows each
    (packed_steps).  w is one (2, 4H, D + 2 + H) block [W_x | b_x | b_h |
    W_h]: index 0 is the forward direction and 1 the backward one, and each
    direction stacks four row bands, for the input, forget, cell and output
    gates in that order, of its input weights, input-side bias, hidden-side
    bias and recurrent weights side by side.  From a zero initial state,
    step t of a sequence computes

        z = w [x_t; 1; 1; h] = x_t W_x^T + b_x + b_h + h W_h^T
        i, f, o = sigmoid, g = tanh
        c = f * c + i * g,                      h = o * tanh(c)

    reading its rows first to last with direction 0 and last to first with
    direction 1.  Returns the (n, 2H) rows [forward | backward state], row
    for row, or with finals set the (B, 2H) rows [last forward | first
    backward], each sequence's states once it is read whole.

    Both directions of all B sequences step together, and each call of a
    step reads and writes whole contiguous blocks, time-major and
    feature-major with the sequences on the last axis.  Block t of one
    (L + 1, 2, D + 2 + H, B) array holds [x_t; 1; 1; h], that step's input
    rows over two rows of ones and the state before the step, so one
    product by w gives all of z, and the step writes its new state into
    block t + 1.  The gates are one (2, 4H, B) block of four (H, B) bands
    per direction, the cells (2, H, B) blocks.  As sigmoid(z) = (1 +
    tanh(z/2)) / 2, one multiply per call halves the i, f and o bands of w,
    and one tanh, then one multiply and one add by constant whole-step
    blocks give all four gates.  A sequence that has ended runs on over
    zero input that no output reads.

    Backward runs through time by hand.  Before its loop it writes, for
    every step at once, each band's gate slope times the factor that band
    meets into a per-call dz buffer, so a step scales its dz block by dc or
    dh and takes one product for dh and one by its [1; 1; h] rows for the
    gradient of [b_x | b_h | W_h]; the input side's gradients are products
    over the packed rows after the loop.  It writes to no array the forward
    pass kept, so a second backward over the graph adds the same gradients
    again.  Under no_grad one gate block and two cell blocks are reused
    from step to step, and nothing is kept for backward.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"lstm_scan expects packed (n, D) rows, got {x.shape}")
    n, D = x.shape
    lengths, seq, step = packed_steps(lengths, n)
    H = w.shape[1] // 4 if w.data.ndim == 3 else 0
    if H < 1 or w.shape != (2, 4 * H, D + 2 + H):
        raise ShapeError(f"lstm_scan needs a (2, 4H, {D} + 2 + H) weight block, got {w.shape}")
    B, L = lengths.size, int(lengths.max())
    steps = (step, lengths[seq] - 1 - step)  # each row's step per direction
    keep = _grad_enabled

    half = np.repeat([0.5, 0.5, 1.0, 0.5], H)[:, None]  # 1/2 on the sigmoid bands, 1 on g
    w_half = w.data * half
    xh = np.zeros((L + 1, 2, D + 2 + H, B))  # per step [x_t; 1; 1; h]
    for k in range(2):
        xh[steps[k], k, :D, seq] = x.data
    xh[:, :, D:D + 2] = 1.0
    scale = np.empty((2, 4 * H, B))
    scale[...] = half
    shift = 1.0 - scale
    zs = np.empty((L if keep else 1, 2, 4 * H, B))  # the gates of each step
    cs = np.zeros((L + 1 if keep else 2, 2, H, B))  # the cell before each step
    tcs = np.empty((L if keep else 1, 2, H, B))  # tanh of each new cell
    ig = np.empty((2, H, B))
    for t in range(L):
        if keep:
            a, c, c_new, tc = zs[t], cs[t], cs[t + 1], tcs[t]
        else:
            a, c, c_new, tc = zs[0], cs[t % 2], cs[(t + 1) % 2], tcs[0]
        np.matmul(w_half, xh[t], out=a)
        np.tanh(a, out=a)
        a *= scale
        a += shift
        np.multiply(a[:, H:2 * H], c, out=c_new)
        np.multiply(a[:, :H], a[:, 2 * H:3 * H], out=ig)
        c_new += ig
        np.tanh(c_new, out=tc)
        np.multiply(a[:, 3 * H:], tc, out=xh[t + 1, :, D + 2:])

    # the step and the sequence of each returned row, per direction
    at = 2 * ((lengths - 1, np.arange(B)),) if finals else ((steps[0], seq), (steps[1], seq))
    out = np.concatenate([xh[at[k][0] + 1, k, D + 2:, at[k][1]] for k in range(2)], axis=1)

    def _bw(gout):
        i, f, g, o = (zs.reshape(L, 2, 4, H, B)[:, :, j] for j in range(4))
        # each band's slope times the factor it meets: g i(1-i), c f(1-f),
        # i (1-g^2) and tanh(c) o(1-o), and what dh sends on to the cell
        dz = np.subtract(1.0, zs)
        dz *= zs
        by_band = dz.reshape(L, 2, 4, H, B)
        dz_i, dz_f, dz_g, dz_o = (by_band[:, :, j] for j in range(4))
        np.multiply(g, g, out=dz_g)
        np.subtract(1.0, dz_g, out=dz_g)
        dz_i *= g
        dz_f *= cs[:-1]
        dz_g *= i
        dz_o *= tcs
        dc_dh = np.multiply(tcs, tcs)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o
        g_pad = np.zeros((L, 2, H, B))
        for k in range(2):
            g_pad[at[k][0], k, :, at[k][1]] = gout[:, k * H:(k + 1) * H]
        wh_t = w.data[:, :, D + 2:].transpose(0, 2, 1).copy()
        # the gradient of [b_x | b_h | W_h]: each step's dz by its [1; 1; h]
        dtail, dtail_step = np.zeros((2, 4 * H, 2 + H)), np.empty((2, 4 * H, 2 + H))
        dh, dc, dc_new = np.zeros((2, H, B)), np.zeros((2, H, B)), np.empty((2, H, B))
        for t in range(L - 1, -1, -1):
            dh += g_pad[t]
            np.multiply(dh, dc_dh[t], out=dc_new)
            dc_new += dc
            by_band[t, :, :3] *= dc_new[:, None]
            by_band[t, :, 3] *= dh
            if w.requires_grad:
                np.matmul(dz[t], xh[t, :, D:].transpose(0, 2, 1), out=dtail_step)
                dtail += dtail_step
            np.matmul(wh_t, dz[t], out=dh)
            np.multiply(dc_new, f[t], out=dc)
        if w.requires_grad:
            w.grad[:, :, D:] += dtail
        for k in range(2):
            dz_k = dz[steps[k], k, :, seq]
            if w.requires_grad:
                w.grad[k, :, :D] += dz_k.T @ x.data
            if x.requires_grad:
                x.grad += dz_k @ w.data[k, :, :D]

    return _result(out, (x, w), "lstm_scan", _bw)


# the least a scaled state entry may be before normalising (see crf_forward):
# far enough above the smallest normal float, 2.2e-308, that whatever
# underflows beside it is negligible
TINY = 1e-280


def _shift(x: np.ndarray, axis: int) -> np.ndarray:
    """The maximum along axis, 0 where it is not finite."""
    m = x.max(axis=axis)
    return np.where(np.isfinite(m), m, 0.0)


def crf_forward(emissions: Tensor, transition: Tensor,
                mask: np.ndarray | None = None, lengths=None) -> Tensor:
    """Summed log-partition of linear-chain CRF sequences by the forward
    algorithm, as one node.

    emissions is (n, T) with n >= 1: one sequence, or several packed back
    to back with lengths[b] rows each, as for lstm_scan.  transition is
    (T+1, T+1), row T holding the begin-of-sentence and column T the
    end-of-sentence scores.  mask, if given, is a constant (T+1, T+1)
    additive table (0 or -inf per cell) shared by every sequence.  Backward
    is forward-backward: the emission adjoint is the per-position tag
    marginals and the transition adjoint the expected transition counts,
    summed over the sequences.  A sequence whose mask forbids every path
    adds -inf to the value and nothing to any gradient.

    The pass runs in scaled probability space (Rabiner 1989).  P is
    exp(tag-to-tag scores - each column's maximum).  Each emission row takes
    the BOS row (first rows) or those column maxima (the others), and a
    sequence's last row also the EOS column; then it is shifted by its own
    maximum and exponentiated, all rows in one call.  One loop steps the
    normalised alphas of every sequence against P and, stacked with them
    against P.T, the normalised backward messages of each sequence read
    last to first: a padded (2, B) batch, as lstm_scan steps its two
    directions, one matmul, multiply, sum and divide per step.  log Z is
    the sum of the row shifts and the logs of the forward normalisers.
    Backward has no loop: the betas, marginals and pair counts are three
    products of the stored states.

    Scaling loses what underflows, so the call checks its own pass.  A
    cell (row, tag) whose score is finite may carry paths.  If every such
    cell's state before normalising is at least TINY in both directions,
    whatever underflowed is negligible beside what it was added to, every
    state is exact to rounding, and each row's alpha*beta sums to at least
    TINY/T.  Otherwise (a sequence with no allowed path, a mask that leaves
    a cell no path, or scores spread by hundreds), or if log Z is not
    finite, the call runs the log-space loop _crf_forward_log instead.
    """
    if emissions.data.ndim != 2 or emissions.shape[0] == 0:
        raise ShapeError(f"crf_forward expects non-empty (n, T) emissions, "
                         f"got {emissions.shape}")
    n, T = emissions.shape
    square = (T + 1, T + 1)
    if transition.shape != square or (mask is not None and np.shape(mask) != square):
        raise ShapeError(f"crf_forward needs a {square} transition table and mask")
    lengths, seq, step = packed_steps(lengths, n)
    B, L = lengths.size, int(lengths.max())
    trans = transition.data if mask is None else transition.data + mask
    inner = trans[:T, :T]
    cols = _shift(inner, 0)
    p = np.exp(inner - cols)
    first, ends = step == 0, np.cumsum(lengths) - 1
    x = emissions.data + np.where(first[:, None], trans[T, :T], cols)
    x[ends] += trans[:T, T]
    shifts = _shift(x, 1)
    x -= shifts[:, None]
    u = np.exp(x)
    back = lengths[seq] - 1 - step  # each row's step in the backward direction
    us = np.ones((L, 2, B, T))  # time-major, so each step reads and writes one block
    us[step, 0, seq] = u
    us[back, 1, seq] = u
    ps = np.stack([p, p.T])
    states = np.empty((L, 2, B, T))
    norms = np.empty((L, 2, B))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero normaliser falls back
        s = us[0]
        for t in range(L):
            if t:
                s = np.matmul(s, ps) * us[t]
            z = np.add.reduce(s, axis=2, out=norms[t])
            s = np.divide(s, z[..., None], out=states[t])
        alpha, gamma = states[step, 0, seq], states[back, 1, seq]
        fwd, bwd = norms[step, 0, seq, None], norms[back, 1, seq, None]
        log_z = np.sum(shifts + np.log(fwd[:, 0]))
        low = np.minimum(alpha * fwd, gamma * bwd)  # each cell's states before normalising
    if not (np.min(low, initial=np.inf, where=x > -np.inf) >= TINY and np.isfinite(log_z)):
        return _crf_forward_log(emissions, transition, trans, lengths, seq, step)

    def _bw(g):
        r = np.flatnonzero(step[1:])  # rows followed by their sequence's next step
        beta = np.ones((n, T))
        beta[r] = gamma[r + 1] @ p.T
        ab = alpha * beta
        total = ab.sum(axis=1, keepdims=True)
        marginals = ab / total
        if emissions.requires_grad:
            emissions.grad += g * marginals
        if transition.requires_grad:
            transition.grad[:T, :T] += g * ((alpha[r] / total[r]).T @ gamma[r + 1]) * p
            transition.grad[T, :T] += g * marginals[first].sum(axis=0)
            transition.grad[:T, T] += g * marginals[ends].sum(axis=0)

    return _result(log_z, (emissions, transition), "crf_forward", _bw)


def _crf_forward_log(emissions: Tensor, transition: Tensor, trans: np.ndarray,
                     lengths: np.ndarray, seq: np.ndarray, step: np.ndarray) -> Tensor:
    """crf_forward in log space, the node crf_forward falls back to, given
    its checked inputs, the masked table trans and the packing packed_steps
    gave it: all sequences step together in one zero-padded (B, L, T) batch
    through _stable_lse, forward and then backward, so no score underflows.
    """
    T = emissions.shape[1]
    B, L = lengths.size, int(lengths.max())
    at = (seq, step)
    e = np.zeros((B, L, T))
    e[at] = emissions.data
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


def attention(qkv: Tensor, lengths, num_heads: int):
    """Multi-head scaled dot-product attention within each sequence, as one
    node.

    qkv is (N, 3d): the rows of the sequences back to back, lengths[b] rows
    each, with the column bands [q | k | v] of width d side by side.  Head h
    reads columns h*dk:(h+1)*dk of each band, dk = d // num_heads, and row i
    of its output band is softmax(q_i k^T / sqrt(dk)) v over the rows of i's
    own sequence, so no score crosses two sequences and memory grows with
    the sum of the squared lengths.  Per sequence, all heads run as one
    batched (num_heads, n, dk) product, forward and backward.  Returns the
    (N, d) output.
    """
    if qkv.data.ndim != 2 or qkv.shape[1] % 3:
        raise ShapeError(f"attention expects (N, 3d) rows of [q | k | v], got {qkv.shape}")
    N, d = qkv.shape[0], qkv.shape[1] // 3
    if num_heads < 1 or d % num_heads:
        raise ShapeError(f"attention cannot split width {d} into {num_heads} heads")
    lengths = packed_steps(lengths, N)[0].tolist()
    dk = d // num_heads
    c = 1.0 / math.sqrt(dk)
    ends = np.cumsum(lengths).tolist()
    spans = [(slice(b - n, b), n) for n, b in zip(lengths, ends)]

    def heads(a, rows, n):
        # a view of the rows' q, k and v bands, as (3, num_heads, n, dk)
        return a[rows].reshape(n, 3, num_heads, dk).transpose(1, 2, 0, 3)

    out = np.empty((N, d))
    weights = []
    for rows, n in spans:
        q, k, v = heads(qkv.data, rows, n)
        scores = np.matmul(q, k.transpose(0, 2, 1)) * c
        w = np.exp(scores - scores.max(axis=2, keepdims=True))
        w /= w.sum(axis=2, keepdims=True)
        out[rows].reshape(n, num_heads, dk).transpose(1, 0, 2)[...] = np.matmul(w, v)
        weights.append(w)

    def _bw(g):
        grad = np.empty((N, 3 * d))
        for (rows, n), w in zip(spans, weights):
            q, k, v = heads(qkv.data, rows, n)
            dq, dk_, dv = heads(grad, rows, n)
            g_h = g[rows].reshape(n, num_heads, dk).transpose(1, 0, 2)
            dv[...] = np.matmul(w.transpose(0, 2, 1), g_h)
            dp = np.matmul(g_h, v.transpose(0, 2, 1))
            ds = w * (dp - np.sum(dp * w, axis=2, keepdims=True)) * c
            dq[...] = np.matmul(ds, k)
            dk_[...] = np.matmul(ds.transpose(0, 2, 1), q)
        qkv.grad += grad

    return _result(out, (qkv,), "attention", _bw)
