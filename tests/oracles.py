"""Independent oracles the test suite checks the library against.

Everything here is deliberately written the slow, obvious way (finite
differences, exhaustive enumeration, direct counting, one LSTM step at a
time) and shares no code with the implementation under test; the LSTM
reference and the row softmax compose primitive autodiff ops, never the
fused lstm_scan and transformer_layer they check.  The primitives only
these references need (the element-wise product, a constant multiple and
the difference built on it, broadcast, sigmoid, tanh, exp, reshape,
transpose, log_sum_exp and the matrix-vector product) are defined here, as
nodes of the library's graph, and so are the gelu, layer_norm and
attention nodes a transformer layer was built from before it became one
fused node, with the layer composed from them.  The optimizer references
step one parameter tensor at a time, where the library makes whole-array
calls on one flat buffer.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

import seqtag.autodiff as ad
from seqtag.autodiff import Tensor
from seqtag.errors import AlignmentError, ShapeError
from seqtag.subword import MARKER


def finite_diff(f, arrays, step=1e-5):
    """Central finite-difference gradients of scalar f w.r.t. each array.

    f is called with the arrays as positional arguments and must return a
    float.  Returns one gradient array per input.
    """
    grads = []
    for k, a in enumerate(arrays):
        g = np.zeros_like(a, dtype=np.float64)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = f(*arrays)
            flat[i] = orig - step
            down = f(*arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric):
    """Largest elementwise |a - n| / max(1, |a|, |n|)."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


# ---------------------------------------------------------------------------
# linear-chain CRF oracles: plain-float path scoring and exhaustive sums


def crf_path_score(emissions, transition, labels):
    """Score of one labeling: emissions[i][l_i] + transitions, BOS row / EOS col last."""
    num_tags = emissions.shape[1]
    bos, eos = num_tags, num_tags
    total = 0.0
    prev = bos
    for i, lab in enumerate(labels):
        total += emissions[i, lab] + transition[prev, lab]
        prev = lab
    total += transition[prev, eos]
    return total


def crf_enumerate(emissions, transition):
    """All (labels, score) pairs by brute force over num_tags^n labelings."""
    n, num_tags = emissions.shape
    out = []
    for labels in itertools.product(range(num_tags), repeat=n):
        out.append((labels, crf_path_score(emissions, transition, labels)))
    return out


def crf_brute_log_partition(emissions, transition):
    scores = np.array([s for _, s in crf_enumerate(emissions, transition)])
    m = scores.max()
    return float(m + np.log(np.sum(np.exp(scores - m))))


def crf_enumerated_expectations(emissions, transition):
    """Tag marginals (n, T) and expected transition counts (T+1, T+1) by
    weighting every labeling with its probability."""
    n, T = emissions.shape
    log_z = crf_brute_log_partition(emissions, transition)
    marginals = np.zeros((n, T))
    counts = np.zeros((T + 1, T + 1))
    for labels, score in crf_enumerate(emissions, transition):
        p = np.exp(score - log_z)
        prev = T
        for t, lab in enumerate(labels):
            marginals[t, lab] += p
            counts[prev, lab] += p
            prev = lab
        counts[prev, T] += p
    return marginals, counts


def crf_brute_argmax(emissions, transition):
    """Best labeling; ties broken toward the lexicographically smallest labels."""
    best_labels, best_score = None, -np.inf
    for labels, s in crf_enumerate(emissions, transition):
        if s > best_score:
            best_labels, best_score = labels, s
    return list(best_labels), best_score


# ---------------------------------------------------------------------------
# unigram oracles: enumerate every segmentation of a word, and train the way
# a per-word scalar recursion and one Viterbi search per piece do


def all_segmentations(word, vocab):
    """Yield (pieces, logprob) for every way to cover word with vocab pieces."""
    n = len(word)

    def rec(start):
        if start == n:
            yield [], 0.0
            return
        for end in range(start + 1, n + 1):
            piece = word[start:end]
            if piece in vocab:
                for rest, lp in rec(end):
                    yield [piece] + rest, vocab[piece] + lp

    yield from rec(0)


def best_segmentation(word, vocab):
    best, best_lp = None, -np.inf
    for pieces, lp in all_segmentations(word, vocab):
        if lp > best_lp:
            best, best_lp = pieces, lp
    return best, best_lp


def unigram_expected_counts(words, pieces, lp, max_len):
    """Posterior count of every piece over the corpus {word: count}, under
    log-probabilities lp (-inf for a pruned piece), by a per-word scalar
    recursion: alpha by end, then start; beta by start descending, then
    end; np.logaddexp on scalars; posteriors with math.exp, weighted by the
    word's count and summed in (word, start, end) order."""
    index = {p: k for k, p in enumerate(pieces)}
    counts = [0.0] * len(pieces)
    for word, count in words.items():
        n = len(word)
        arcs = {(s, e): index[word[s:e]] for s in range(n)
                for e in range(s + 1, min(n, s + max_len) + 1) if word[s:e] in index}
        alpha = [-math.inf] * (n + 1)
        alpha[0] = 0.0
        for e in range(1, n + 1):
            for s in range(max(0, e - max_len), e):
                if (s, e) in arcs:
                    alpha[e] = np.logaddexp(alpha[e], alpha[s] + lp[arcs[s, e]])
        beta = [-math.inf] * (n + 1)
        beta[n] = 0.0
        for s in range(n - 1, -1, -1):
            for e in range(s + 1, min(n, s + max_len) + 1):
                if (s, e) in arcs:
                    beta[s] = np.logaddexp(beta[s], lp[arcs[s, e]] + beta[e])
        for (s, e), k in sorted(arcs.items()):
            counts[k] += math.exp(alpha[s] + lp[k] + beta[e] - alpha[n]) * float(count)
    return np.array(counts)


def best_split_score(word, vocab, max_len):
    """Score of the best segmentation of word into the pieces of vocab
    (piece -> log-probability), -inf if there is none: Viterbi over end
    positions, each end's starts in increasing order, sums left to right."""
    best = [0.0] + [-math.inf] * len(word)
    for i in range(1, len(word) + 1):
        for j in range(max(0, i - max_len), i):
            score = vocab.get(word[j:i])
            if score is not None and best[j] > -math.inf and best[j] + score > best[i]:
                best[i] = best[j] + score
    return best[-1]


def cheapest_per_piece(usage, lp, pieces, max_len, most, fraction):
    """Ids of the alive multi-character pieces whose removal costs the least
    likelihood, given each piece's expected count (usage): a fraction of
    them, at least one and at most most.  A piece costs its count times the
    score it loses to its best segmentation into the other alive pieces,
    each found by its own Viterbi search; ties go by piece, then id."""
    alive = [k for k in range(len(pieces)) if lp[k] > -math.inf]
    live = {pieces[k]: float(lp[k]) for k in alive}
    losses = []
    for k in alive:
        piece = pieces[k]
        if len(piece) == 1:
            continue
        own = live.pop(piece)
        losses.append((float(usage[k]) * (own - best_split_score(piece, live, max_len)),
                       piece, k))
        live[piece] = own
    losses.sort()
    drop = min(max(1, int(fraction * len(losses))), most)
    return [k for _, _, k in losses[:drop]]


UNK_PENALTY = 10.0  # a character outside the inventory scores this below its rarest piece


def segment_rescanning(v, text):
    """Marked maximum-likelihood pieces of each word of text, recomputing the
    unknown-character score and the longest piece length on every call.

    Viterbi over end positions, candidate starts in increasing order, and a
    candidate replaces the best only when strictly better, so ties go as
    in the library's lattice."""
    unk = min(v.pieces.values()) - UNK_PENALTY
    max_len = max(len(p) for p in v.pieces)
    out = []
    for word in text.split():
        n = len(word)
        best = [0.0] + [-np.inf] * n
        back = [None] * (n + 1)
        for i in range(1, n + 1):
            for j in range(max(0, i - max_len), i):
                score = v.pieces.get(word[j:i], unk if i - j == 1 else None)
                if score is not None and best[j] + score > best[i]:
                    best[i], back[i] = best[j] + score, j
        cuts = [n]
        while cuts[-1] > 0:
            cuts.append(back[cuts[-1]])
        cuts.reverse()
        pieces = [word[a:b] for a, b in zip(cuts, cuts[1:])]
        out += [MARKER + pieces[0]] + pieces[1:]
    return out


def segmentation_score_rescanning(v, pieces):
    """Summed log-probability of marked pieces, an unknown piece scoring
    UNK_PENALTY below the rarest piece, recomputed on every call."""
    unk = min(v.pieces.values()) - UNK_PENALTY
    return sum(v.pieces.get(p[len(MARKER):] if p.startswith(MARKER) else p, unk)
               for p in pieces)


# ---------------------------------------------------------------------------
# first-piece label alignment, at the string level: the reference for the
# rows SequenceTagger._transformer_features reads off each word's first piece

# label align_labels gives every piece that does not start a word
PAD = None


@dataclass
class AlignedSequence:
    pieces: list[str]
    word_index: list[int]
    is_word_initial: list[bool]
    labels: list = field(default_factory=list)


def align_labels(words: list[str], word_tags: list, pieces: list[str],
                 marker: str = MARKER) -> AlignedSequence:
    """Assign each word's tag to its first piece; the rest get the PAD
    sentinel.  The pieces must exactly partition the words."""
    if len(words) != len(word_tags):
        raise AlignmentError(f"{len(word_tags)} tags for {len(words)} words")
    word_index: list[int] = []
    initials: list[bool] = []
    labels: list = []
    w = -1
    pos = 0
    for k, piece in enumerate(pieces):
        initial = piece.startswith(marker)
        core = piece[len(marker):] if initial else piece
        if not core:
            raise AlignmentError(f"piece {k} is empty")
        if initial:
            if w >= 0 and pos != len(words[w]):
                raise AlignmentError(
                    f"word {w} ({words[w]!r}) incomplete at piece {k}")
            w += 1
            pos = 0
            if w >= len(words):
                raise AlignmentError(f"piece {k} starts word {w} but only "
                                     f"{len(words)} words given")
        elif w < 0:
            raise AlignmentError("first piece lacks the boundary marker")
        if words[w][pos:pos + len(core)] != core:
            raise AlignmentError(
                f"piece {k} ({piece!r}) does not continue word {words[w]!r} "
                f"at offset {pos}")
        pos += len(core)
        word_index.append(w)
        initials.append(initial)
        labels.append(word_tags[w] if initial else PAD)
    if w != len(words) - 1 or pos != len(words[w]):
        raise AlignmentError("pieces do not cover all words")
    return AlignedSequence(pieces=list(pieces), word_index=word_index,
                           is_word_initial=initials, labels=labels)


def project_predictions(aligned: AlignedSequence, piece_tags: list) -> list:
    """Word-level tags from per-piece predictions: each word takes the tag
    predicted on its word-initial piece."""
    if len(piece_tags) != len(aligned.pieces):
        raise AlignmentError(f"{len(piece_tags)} predictions for "
                             f"{len(aligned.pieces)} pieces")
    out = []
    for tag, initial in zip(piece_tags, aligned.is_word_initial):
        if initial:
            out.append(tag)
    return out


# ---------------------------------------------------------------------------
# entity scoring oracle: direct span counting


def naive_spans(tags):
    """Entity spans as (type, start, end) via a direct scan, I-orphans repaired."""
    spans = set()
    i = 0
    while i < len(tags):
        tag = tags[i]
        if tag == "O":
            i += 1
            continue
        etype = tag[2:]
        j = i + 1
        while j < len(tags) and tags[j] == f"I-{etype}":
            j += 1
        spans.add((etype, i, j))
        i = j
    return spans


def naive_entity_scores(gold_corpus, pred_corpus):
    """(precision, recall, f1, token_accuracy) in percent by direct counting."""
    n_gold = n_pred = n_hit = n_tok = n_tok_hit = 0
    per_type = {}
    for gold, pred in zip(gold_corpus, pred_corpus):
        gspans, pspans = naive_spans(gold), naive_spans(pred)
        n_gold += len(gspans)
        n_pred += len(pspans)
        n_hit += len(gspans & pspans)
        for etype, _, _ in gspans:
            d = per_type.setdefault(etype, [0, 0, 0])
            d[0] += 1
        for span in pspans:
            d = per_type.setdefault(span[0], [0, 0, 0])
            d[1] += 1
            if span in gspans:
                d[2] += 1
        n_tok += len(gold)
        n_tok_hit += sum(g == p for g, p in zip(gold, pred))
    p = 100.0 * n_hit / n_pred if n_pred else 0.0
    r = 100.0 * n_hit / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    acc = 100.0 * n_tok_hit / n_tok if n_tok else 0.0
    per_type_scores = {}
    for etype, (g, pr, hit) in per_type.items():
        tp = 100.0 * hit / pr if pr else 0.0
        tr = 100.0 * hit / g if g else 0.0
        tf = 2 * tp * tr / (tp + tr) if tp + tr > 0 else 0.0
        per_type_scores[etype] = (tp, tr, tf, g)
    return p, r, f1, acc, per_type_scores


# ---------------------------------------------------------------------------
# element-wise primitives of the references below, as autodiff nodes


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul requires equal shapes, got {a.shape} and {b.shape}")

    def _bw(g):
        if a.requires_grad:
            a.grad += g * b.data
        if b.requires_grad:
            b.grad += g * a.data

    return ad._result(a.data * b.data, (a, b), "mul", _bw)


def scale(x: Tensor, c: float) -> Tensor:
    """x times the constant c."""
    c = float(c)

    def _bw(g):
        if x.requires_grad:
            x.grad += g * c

    return ad._result(x.data * c, (x,), "scale", _bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """a - b, as a + (-1) b."""
    return ad.add(a, scale(b, -1.0))


def total(x: Tensor) -> Tensor:
    """Sum of all entries of x, as a scalar node."""
    return ad.inner(x, np.ones(x.shape))


def broadcast_to(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        data = np.broadcast_to(x.data, shape)
    except ValueError:
        raise ShapeError(f"cannot broadcast {x.shape} to {shape}") from None
    extra = len(shape) - x.data.ndim
    summed_axes = tuple(range(extra)) + tuple(
        extra + i for i, n in enumerate(x.shape) if n == 1 and shape[extra + i] != 1)

    def _bw(g):
        if x.requires_grad:
            g = g.sum(axis=summed_axes) if summed_axes else g
            x.grad += g.reshape(x.shape)

    return ad._result(data.copy(), (x,), "broadcast", _bw)


def sigmoid(x: Tensor) -> Tensor:
    # split by sign so that exp never overflows
    e = np.exp(-np.abs(x.data))
    s = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def _bw(g):
        if x.requires_grad:
            x.grad += g * s * (1.0 - s)

    return ad._result(s, (x,), "sigmoid", _bw)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def _bw(g):
        if x.requires_grad:
            x.grad += g * (1.0 - t * t)

    return ad._result(t, (x,), "tanh", _bw)


def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)

    def _bw(g):
        if x.requires_grad:
            x.grad += g * e

    return ad._result(e, (x,), "exp", _bw)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def _bw(g):
        if x.requires_grad:
            x.grad += g.reshape(x.shape)

    return ad._result(x.data.reshape(shape), (x,), "reshape", _bw)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {x.shape}")

    def _bw(g):
        if x.requires_grad:
            x.grad += g.T

    return ad._result(x.data.T.copy(), (x,), "transpose", _bw)


def log_sum_exp(x: Tensor, axis: int = 0) -> Tensor:
    """Numerically stable log(sum(exp(x))) along axis.

    -inf entries contribute nothing; an all--inf slice reduces to -inf.
    """
    d = x.data
    value = ad._stable_lse(d, axis)

    def _bw(g):
        if x.requires_grad:
            # exp(d - value) is the softmax; an all--inf slice passes nothing
            v = np.expand_dims(np.where(np.isfinite(value), value, 0.0), axis)
            x.grad += np.expand_dims(g, axis) * np.exp(d - v)

    return ad._result(value, (x,), "log_sum_exp", _bw)


def softmax_nll(emissions: Tensor, labels) -> Tensor:
    """Summed softmax cross-entropy of independent per-row predictions of
    (n, T) emissions: the reference for the linear head's loss."""
    n, T = emissions.shape
    pick = np.zeros((n, T))
    pick[np.arange(n), labels] = 1.0
    return sub(ad.inner(log_sum_exp(emissions, axis=1), np.ones(n)), ad.inner(emissions, pick))


def matvec(a: Tensor, v: Tensor) -> Tensor:
    """Matrix a times vector v, through the engine's matrix product with v
    as a one-column matrix."""
    return reshape(ad.matmul(a, reshape(v, (v.size, 1))), (a.shape[0],))


# ---------------------------------------------------------------------------
# LSTM reference: one cell update per graph step, from primitive ops


@dataclass
class Cell:
    """The gate weights lstm_step reads, of one LSTM direction: W_x (4H, D),
    W_h (4H, H), b_x (4H,) and b_h (4H,), each in row bands of H for the
    input, forget, cell and output gates."""

    W_x: Tensor
    W_h: Tensor
    b_x: Tensor
    b_h: Tensor


def direction(w, k):
    """Direction k (0 forward, 1 backward) of a BiLSTM's (2, 4H, D + 2 + H)
    block [W_x | b_x | b_h | W_h], as a Cell.  Each part is sliced out of
    the block through take, so gradients reach the block."""
    D = w.shape[2] - 2 - w.shape[1] // 4
    return Cell(ad.take(w, (k, slice(None), slice(None, D))),
                ad.take(w, (k, slice(None), slice(D + 2, None))),
                ad.take(w, (k, slice(None), D)), ad.take(w, (k, slice(None), D + 1)))


def lstm_step(p, x_t, h_prev, c_prev):
    """One LSTM cell update of the Cell p; returns (h_t, c_t).

    Each gate reads its row band of the stacked weights through take.
    """
    H = p.W_h.shape[1]
    if x_t.shape != (p.W_x.shape[1],):
        raise ShapeError(f"lstm_step input has shape {x_t.shape}, "
                         f"cell expects ({p.W_x.shape[1]},)")
    if h_prev.shape != (H,) or c_prev.shape != (H,):
        raise ShapeError(f"lstm_step state shapes {h_prev.shape}/{c_prev.shape} "
                         f"do not match hidden dim {H}")

    def gate(k):
        band = slice(k * H, (k + 1) * H)
        return (matvec(ad.take(p.W_x, band), x_t) + ad.take(p.b_x, band)
                + matvec(ad.take(p.W_h, band), h_prev) + ad.take(p.b_h, band))

    i = sigmoid(gate(0))
    f = sigmoid(gate(1))
    g = tanh(gate(2))
    o = sigmoid(gate(3))
    c_t = mul(f, c_prev) + mul(i, g)
    h_t = mul(o, tanh(c_t))
    return h_t, c_t


def lstm_run(p, xs):
    """Hidden states over a list of input vectors, zero initial state."""
    h = Tensor(np.zeros(p.W_h.shape[1]))
    c = Tensor(np.zeros(p.W_h.shape[1]))
    out = []
    for x in xs:
        h, c = lstm_step(p, x, h, c)
        out.append(h)
    return out


# ---------------------------------------------------------------------------
# row softmax from primitive ops, the reference for fused attention's weights


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a matrix via the stable log-sum-exp primitive."""
    n = x.shape[0]
    lse = log_sum_exp(x, axis=1)
    shifted = sub(x, broadcast_to(reshape(lse, (n, 1)), x.shape))
    return exp(shifted)


# ---------------------------------------------------------------------------
# transformer layer reference: the primitive nodes, each with its own
# hand-written backward, that the fused transformer_layer replaces, and
# the layer composed from them


def gelu(x: Tensor) -> Tensor:
    """tanh approximation of the Gaussian error linear unit,
    0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))."""
    d, c = x.data, math.sqrt(2.0 / math.pi)
    t = np.tanh((d + d * d * d * 0.044715) * c)

    def _bw(g):
        if x.requires_grad:
            x.grad += g * 0.5 * (1.0 + t + d * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * d * d))

    return ad._result(d * (t + 1.0) * 0.5, (x,), "gelu", _bw)


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

    return ad._result(normed * gain.data + bias.data, (x, gain, bias), "layer_norm", _bw)


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
    lengths = ad.packed_steps(lengths, N)[0].tolist()
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

    return ad._result(out, (qkv,), "attention", _bw)


def transformer_block(cfg, layer, x, training, rng, lengths=None):
    """One encoder layer as a graph of matmul, add, dropout, attention, gelu
    and layer_norm nodes, its dropout masks drawn from rng in the order
    encoders.transformer_block draws them: the reference the fused layer
    must match bitwise, value and gradients."""
    attn_out = attention(x @ layer.Wqkv, lengths, cfg.num_heads) @ layer.Wo
    attn_out = ad.dropout(attn_out, cfg.dropout_p, training, rng)
    x = layer_norm(x + attn_out, layer.ln1_gain, layer.ln1_bias)
    ff = gelu(x @ layer.W_ff1 + layer.b_ff1) @ layer.W_ff2 + layer.b_ff2
    ff = ad.dropout(ff, cfg.dropout_p, training, rng)
    return layer_norm(x + ff, layer.ln2_gain, layer.ln2_bias)


# ---------------------------------------------------------------------------
# whole-model reference: for the BiLSTM kinds every word, source and
# direction stepped through lstm_run, for the transformer kinds every head of
# every layer in turn, and every sentence scored by enumeration


def _bilstm_states(params, prefix, rows):
    """Forward states over rows and backward states over them reversed, the
    latter put back in row order, of the BiLSTM stored under prefix."""
    xs = [Tensor(r) for r in rows]
    with ad.no_grad():
        fwd = [h.data for h in lstm_run(direction(params[prefix + "W"], 0), xs)]
        bwd = [h.data for h in lstm_run(direction(params[prefix + "W"], 1), xs[::-1])][::-1]
    return fwd, bwd


def _source_tokens(model, word, analysis):
    """(table attribute, BiLSTM prefix or None, tokens) of each enabled
    source of word, in the order word, char, morph, subword."""
    cfg = model.composer.cfg
    sources = [("word", "word_table", None, [word]),
               ("char", "char_table", "char_bilstm", list(word)),
               ("morph", "morph_table", "morph_bilstm", list(analysis or word)),
               ("subword", "piece_table", "subword_bilstm",
                segment_rescanning(model.tokenizer, word) if cfg.use_subword else [])]
    return [s[1:] for s in sources if getattr(cfg, "use_" + s[0])]


def _bilstm_hidden(model, sentence):
    """(n, 2H) sentence-BiLSTM states of a BiLSTM-kind model: a dict lookup
    per token, lstm_run per word, source and direction, then the sentence
    BiLSTM."""
    params = model.named_parameters()
    rows = []
    for word, analysis in zip(sentence.surfaces, sentence.morphs):
        parts = []
        for table, bilstm, tokens in _source_tokens(model, word, analysis):
            vocab = getattr(model.composer, table).vocab
            emb = params["composer." + table].data
            vectors = [emb[vocab.get(tok, 1)] for tok in tokens]  # id 1 is <unk>
            if bilstm is None:
                parts += vectors
            else:
                fwd, bwd = _bilstm_states(params, f"composer.{bilstm}.", vectors)
                parts += [fwd[-1], bwd[0]]
        rows.append(np.concatenate(parts))
    fwd, bwd = _bilstm_states(params, "encoder.", rows)
    return np.array([np.concatenate(pair) for pair in zip(fwd, bwd)])


def _layer_norm(x, gain, bias, eps=1e-5):
    centered = x - x.mean(axis=1, keepdims=True)
    return centered / np.sqrt((centered ** 2).mean(axis=1, keepdims=True) + eps) * gain + bias


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def _self_attention(w, x, num_heads):
    """Multi-head self-attention over the rows of x, one head at a time:
    Wqkv holds the q, k and v projections side by side, head h reads the
    column band h*dk:(h+1)*dk of each and takes its weights from
    softmax_rows."""
    dk = x.shape[1] // num_heads
    q, k, v = (x @ band for band in np.split(w["Wqkv"], 3, axis=1))
    heads = []
    for h in range(num_heads):
        band = slice(h * dk, (h + 1) * dk)
        with ad.no_grad():
            p = softmax_rows(Tensor(q[:, band] @ k[:, band].T / np.sqrt(dk))).data
        heads.append(p @ v[:, band])
    return np.concatenate(heads, axis=1) @ w["Wo"]


def _transformer_hidden(model, sentence):
    """(n, d) hidden rows of a transformer-kind model, one per word: the
    sentence's pieces (segment_rescanning, word by word) looked up in the
    piece table and cut into consecutive windows of max_len pieces; within
    each window, each piece's position row added to it and every layer run
    over the window alone; and each word's row read off its first piece as
    align_labels marks it."""
    params = model.named_parameters()
    cfg = model.transformer_cfg
    pieces = [p for w in sentence.surfaces for p in segment_rescanning(model.tokenizer, w)]
    vocab = model.transformer.piece_table.vocab
    emb, positions = params["transformer.piece_table"].data, params["transformer.positions"].data
    windows = []
    for start in range(0, len(pieces), cfg.max_len):
        window = pieces[start:start + cfg.max_len]
        x = np.array([emb[vocab.get(p, 1)] for p in window])  # id 1 is <unk>
        for i in range(len(window)):
            x[i] = x[i] + positions[i]
        for layer in range(cfg.num_layers):
            prefix = f"transformer.layer{layer}."
            w = {n.removeprefix(prefix): t.data for n, t in params.items()
                 if n.startswith(prefix)}
            x = _layer_norm(x + _self_attention(w, x, cfg.num_heads),
                            w["ln1_gain"], w["ln1_bias"])
            ff = _gelu(x @ w["W_ff1"] + w["b_ff1"]) @ w["W_ff2"] + w["b_ff2"]
            x = _layer_norm(x + ff, w["ln2_gain"], w["ln2_bias"])
        windows.append(x)
    aligned = align_labels(list(sentence.surfaces), list(sentence.tags), pieces)
    return np.concatenate(windows)[np.flatnonzero(aligned.is_word_initial)]


def reference_emissions(model, sentence):
    """(n, T) tag scores of a model of any kind on one LabeledSentence, at
    dropout 0: its encoder's rows, then the output projection."""
    params = model.named_parameters()
    encode = _bilstm_hidden if model.kind.startswith("bilstm") else _transformer_hidden
    return encode(model, sentence) @ params["w_out"].data + params["b_out"].data


def bio2_table(tags):
    """(T+1, T+1) additive table, BOS row and EOS column last: -inf where I-X
    follows anything but B-X or I-X, or opens the sentence."""
    T = len(tags)
    table = np.zeros((T + 1, T + 1))
    for j, tag in enumerate(tags):
        if tag.startswith("I-"):
            table[T, j] = -np.inf
            for i, prev in enumerate(tags):
                if prev not in ("B-" + tag[2:], tag):
                    table[i, j] = -np.inf
    return table


def _transition_table(model, masked):
    params = model.named_parameters()
    T = len(model.tags)
    table = params["crf.transition"].data if "crf.transition" in params else np.zeros((T + 1, T + 1))
    return table + bio2_table(list(model.tags)) if masked else table


def reference_loss(model, sentences):
    """Summed negative log-likelihood of the gold tags of a model of any
    kind by enumeration: over every labelling of each sentence for a CRF
    kind (under the BIO2 table if mask_illegal is set), over each word's tags
    alone for a linear kind.  Sentences of at most 4 words keep it cheap."""
    crf = model.kind.endswith("-crf")
    table = _transition_table(model, crf and model.mask_illegal)
    total = 0.0
    for s in sentences:
        emissions = reference_emissions(model, s)
        gold = [model.tags.id_of(t) for t in s.tags]
        pieces = [(emissions, gold)] if crf else [(emissions[i:i + 1], gold[i:i + 1])
                                                  for i in range(len(gold))]
        for e, labels in pieces:
            total += crf_brute_log_partition(e, table) - crf_path_score(e, table, labels)
    return total


def reference_tags(model, sentence):
    """Best tag strings of a model of any kind for one LabeledSentence, by
    enumeration, under the BIO2 table if mask_illegal is set."""
    table = _transition_table(model, model.mask_illegal)
    labels, _ = crf_brute_argmax(reference_emissions(model, sentence), table)
    return [model.tags.tag_of(i) for i in labels]


# ---------------------------------------------------------------------------
# optimizer passes one parameter tensor at a time, as lists of Tensors: the
# reference for the library's whole-array passes over one flat buffer


def l2_per_tensor(params, lam):
    """Add lam * theta to each gradient; returns (lam / 2) * sum of squares."""
    total = 0.0
    for p in params:
        total += float(np.sum(p.data * p.data))
        p.grad += lam * p.data
    return total * (0.5 * lam)


def clip_per_tensor(params, clip_norm):
    """Scale the gradients to a global norm of at most clip_norm; returns
    the pre-clip global norm."""
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(total)
    if norm > clip_norm:
        for p in params:
            p.grad *= clip_norm / norm
    return norm


@dataclass
class SGDPerTensor:
    """v <- momentum * v + grad; param <- param - lr * v, tensor by tensor."""

    params: list
    momentum: float
    velocity: list = field(init=False)

    def __post_init__(self):
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr):
        for p, v in zip(self.params, self.velocity):
            v *= self.momentum
            v += p.grad
            p.data -= lr * v


@dataclass
class AdamPerTensor:
    """Bias-corrected Adam with decoupled weight decay, tensor by tensor."""

    params: list
    b1: float = 0.9
    b2: float = 0.999
    eps: float = 1e-8
    decay: float = 0.01
    t: int = 0
    m: list = field(init=False)
    v: list = field(init=False)

    def __post_init__(self):
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr):
        self.t += 1
        c1, c2 = 1.0 - self.b1 ** self.t, 1.0 - self.b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            p.data -= lr * (update + self.decay * p.data)
