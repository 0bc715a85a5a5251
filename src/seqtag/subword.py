"""Unigram subword tokenizer: EM training with likelihood-based pruning,
Viterbi segmentation, and its inverse.  A transformer tagger reads each
word's features off the hidden row of its first piece
(SequenceTagger._transformer_features in models.py).

Training finds every occurrence of a seed piece in every distinct word once
(_Lattice), and each EM round runs its forward, backward and posterior
passes as numpy steps over all words, one step per (start, end) span.  A
pruned piece scores -inf rather than leaving the lattice.  The arc and word
counts size every array, so on corpora of a few hundred distinct words none
reaches glibc's 128 KB mmap threshold; freeing one that did would raise the
threshold and keep later arrays resident on the heap.

Pieces are stored without the word-boundary marker; segment() puts the
marker, MARKER ("▁"), onto each word-initial piece.  Training and
segmentation read text in Unicode NFC, with its whitespace collapsed.
A word's pieces never change once the inventory is built, so segment()
keeps them per tokenizer in a memo of at most MEMO_WORDS words; the memo
is not part of the tokenizer's value and is never saved.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, ConfigError, ParseError, UsageError, ValidationError

MARKER = "▁"

_EM_ROUNDS = 2
_PRUNE_FRACTION = 0.2
_UNK_PENALTY = 10.0
MEMO_WORDS = 16384  # words whose marked pieces one tokenizer remembers


@dataclass
class UnigramVocab:
    """A piece inventory.  The segmentation constants derived from it, the
    longest piece's length and the score of a character outside it, are
    computed once here; the inventory is not changed after construction.
    The pieces are all it holds, so vocab_to_text stores it whole; the
    memo segment() fills is derived from them like the constants."""

    pieces: dict[str, float]  # piece -> log probability
    max_piece_len: int = field(init=False, repr=False, compare=False)
    unk_logprob: float = field(init=False, repr=False, compare=False)
    memo: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pieces:
            raise ValidationError("empty piece inventory")
        for piece, lp in self.pieces.items():
            if not math.isfinite(lp):
                raise ValidationError(f"piece {piece!r} has log-probability {lp!r}")
        total = sum(math.exp(lp) for lp in self.pieces.values())
        if abs(total - 1.0) > 1e-6:
            raise ValidationError(f"piece probabilities sum to {total!r}, not 1")
        self.max_piece_len = max(len(p) for p in self.pieces)
        self.unk_logprob = min(self.pieces.values()) - _UNK_PENALTY
        self.memo = {}  # NFC word -> its marked pieces

    def __len__(self):
        return len(self.pieces)

    def logprob(self, piece: str) -> float:
        return self.pieces[piece]


# ---------------------------------------------------------------------------
# Viterbi over one word


def _viterbi_word(word: str, lp: dict[str, float], max_len: int,
                  unk_logprob: float | None = None):
    """Best segmentation of one unmarked word; returns (pieces, score).

    With unk_logprob set, characters outside the inventory become single-char
    pieces at that score; otherwise uncoverable words score -inf.
    """
    n = len(word)
    best = [-math.inf] * (n + 1)
    back: list[tuple[int, str] | None] = [None] * (n + 1)
    best[0] = 0.0
    for i in range(1, n + 1):
        for j in range(max(0, i - max_len), i):
            piece = word[j:i]
            score = lp.get(piece)
            if score is None and unk_logprob is not None and i - j == 1:
                score = unk_logprob
            if score is None or best[j] == -math.inf:
                continue
            cand = best[j] + score
            if cand > best[i]:
                best[i] = cand
                back[i] = (j, piece)
    if best[n] == -math.inf:
        return None, -math.inf
    pieces = []
    i = n
    while i > 0:
        j, piece = back[i]
        pieces.append(piece)
        i = j
    return pieces[::-1], best[n]


# ---------------------------------------------------------------------------
# training


def _word_counts(corpus) -> dict[str, int]:
    if isinstance(corpus, str):
        corpus = corpus.splitlines() or [corpus]
    counts: dict[str, int] = {}
    for line in corpus:
        for word in unicodedata.normalize("NFC", line).split():
            counts[word] = counts.get(word, 0) + 1
    return counts


def _seed_pieces(words: dict[str, int], vocab_size: int, max_piece_len: int) -> dict[str, float]:
    """Initial inventory: every observed character plus the highest-scoring
    substrings, with log-probabilities proportional to raw counts."""
    singles: dict[str, int] = {}
    multi: dict[str, int] = {}
    for word, count in words.items():
        for ch in word:
            singles[ch] = singles.get(ch, 0) + count
        n = len(word)
        for length in range(2, min(max_piece_len, n) + 1):
            for start in range(n - length + 1):
                piece = word[start:start + length]
                multi[piece] = multi.get(piece, 0) + count
    seed_budget = max(vocab_size * 4, len(singles) + 16)
    ranked = sorted(multi.items(), key=lambda kv: (-kv[1] * len(kv[0]), kv[0]))
    counts = dict(sorted(singles.items()))
    for piece, count in ranked[:max(0, seed_budget - len(counts))]:
        counts[piece] = count
    total = sum(counts.values())
    return {p: math.log(c / total) for p, c in sorted(counts.items())}


class _Lattice:
    """Every occurrence of a seed piece in every distinct word, found once
    per train_unigram call.  Pruning only removes pieces, and a pruned piece
    scores -inf, so the arcs never change; only their scores do.

    The arcs are intp columns in (word, start, end) order.  A second copy
    of their words and pieces lays the (start, end) spans end to end, each
    span holding a word at most once.  The forward pass visits the spans by
    end, then start, and the backward pass by start descending, then end;
    each span is one numpy step over all the words that hold it.  That is
    the order of a per-word scalar recursion, and np.logaddexp and IEEE
    additions give its bits, so the inventory does not depend on the
    vectorization.  Posteriors are taken with math.exp per arc, as np.exp
    can differ from it in the last bit, and summed in (word, start, end)
    order.

    Memory: alpha and beta are allocated once and reused by every round.
    The spans are grouped as the arcs are found, so no numpy sort runs (a
    sort touches numpy code pages nothing else in a training run uses).
    Each span's step holds views, not arrays of its own: numpy caches freed
    buffers under 1 KB, and that cache would outlive the lattice.
    """

    def __init__(self, words: dict[str, int], pieces: list[str], max_len: int):
        index = {p: k for k, p in enumerate(pieces)}
        self.words = list(words)
        cols: tuple[list[int], ...] = ([], [], [], [])  # word, start, end, piece
        spans: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        for w, word in enumerate(self.words):
            n = len(word)
            for i in range(n):
                for j in range(i + 1, min(n, i + max_len) + 1):
                    k = index.get(word[i:j])
                    if k is not None:
                        cols[0].append(w)
                        cols[1].append(i)
                        cols[2].append(j)
                        cols[3].append(k)
                        span = spans.setdefault((i, j), ([], []))
                        span[0].append(w)
                        span[1].append(k)
        self.word, self.start, self.end, self.piece = (np.array(c, dtype=np.intp)
                                                       for c in cols)
        self.weight = np.array(list(words.values()), dtype=float)[self.word]
        self.rows = np.arange(len(self.words))
        self.lengths = np.array([len(w) for w in self.words], dtype=np.intp)
        width = int(self.lengths.max()) + 1
        self.alpha = np.empty((len(self.words), width))
        self.beta = np.empty((len(self.words), width))
        order = sorted(spans, key=lambda se: se[::-1])
        span_word, span_piece = (np.array([x for se in order for x in spans[se][c]],
                                          dtype=np.intp) for c in (0, 1))
        self.forward, lo = [], 0
        for s, e in order:
            hi = lo + len(spans[s, e][0])
            self.forward.append((s, e, span_word[lo:hi], span_piece[lo:hi]))
            lo = hi
        self.backward = sorted(self.forward, key=lambda step: (-step[0], step[1]))

    def expected_counts(self, lp: np.ndarray) -> np.ndarray:
        """Posterior count of every piece summed over the corpus, each word
        weighted by its count, under piece log-probabilities lp (-inf for a
        pruned piece).  Raises UsageError naming the first word lp cannot
        cover."""
        alpha, beta = self.alpha, self.beta
        alpha.fill(-math.inf)
        alpha[:, 0] = 0.0
        for s, e, w, p in self.forward:
            alpha[w, e] = np.logaddexp(alpha[w, e], alpha[w, s] + lp[p])
        z = alpha[self.rows, self.lengths]
        stuck = np.flatnonzero(z == -math.inf)
        if len(stuck):
            raise UsageError(f"word {self.words[stuck[0]]!r} cannot be "
                             f"segmented with current pieces")
        beta.fill(-math.inf)
        beta[self.rows, self.lengths] = 0.0
        for s, e, w, p in self.backward:
            beta[w, s] = np.logaddexp(beta[w, s], lp[p] + beta[w, e])
        x = alpha[self.word, self.start]
        x += lp[self.piece]
        x += beta[self.word, self.end]
        x -= z[self.word]
        post = np.fromiter(map(math.exp, x.data), dtype=float, count=len(x))
        post *= self.weight
        counts = np.zeros(len(lp))
        np.add.at(counts, self.piece, post)
        return counts


def _em_round(lattice: _Lattice, lp: np.ndarray, alive: np.ndarray) -> None:
    """One EM update, in place, of the log-probabilities of the alive pieces."""
    mass = (lattice.expected_counts(lp)[alive] + 1e-12).tolist()
    total = sum(mass)
    lp[alive] = [math.log(m / total) for m in mass]


def _renormalize(lp: np.ndarray, alive: np.ndarray) -> None:
    logs = lp[alive]
    m = float(logs.max())
    log_total = m + math.log(float(np.exp(logs - m).sum()))
    lp[alive] = logs - log_total


def _cheapest(lattice: _Lattice, lp: np.ndarray, alive: np.ndarray,
              pieces: list[str], max_len: int, most: int) -> list[int]:
    """Ids of the alive multi-character pieces whose removal costs the least
    likelihood: a fifth of them, at least one and at most most.  A piece's
    cost is its expected count times the score it loses to its best
    segmentation into the other pieces."""
    usage = lattice.expected_counts(lp).tolist()
    ids = alive.tolist()
    live = dict(zip([pieces[k] for k in ids], lp[alive].tolist()))
    losses = []
    for k in ids:
        p = pieces[k]
        if len(p) == 1:
            continue
        own = live.pop(p)  # skip the piece's own whole-word arc
        _, alt = _viterbi_word(p, live, max_len)
        live[p] = own
        losses.append((usage[k] * (own - alt), p, k))
    losses.sort()
    drop = min(max(1, int(_PRUNE_FRACTION * len(losses))), most)
    return [k for _, _, k in losses[:drop]]


def train_unigram(corpus, vocab_size: int, seed: int = 0,
                  max_piece_len: int = 10) -> UnigramVocab:
    """Fit a unigram piece inventory of at most vocab_size entries.

    Training alternates EM probability estimates with pruning rounds that
    drop the pieces whose removal costs the least likelihood; single
    characters are never pruned.  The procedure is deterministic; seed is
    accepted and ignored.
    """
    del seed
    if type(max_piece_len) is not int or max_piece_len < 1:
        raise ConfigError(f"max_piece_len must be a positive integer, got {max_piece_len!r}")
    words = _word_counts(corpus)
    if not words:
        raise UsageError("empty training corpus")
    alphabet = {ch for w in words for ch in w}
    if vocab_size < len(alphabet):
        raise ConfigError(f"vocab_size {vocab_size} below alphabet size "
                          f"{len(alphabet)}")
    seed_lp = _seed_pieces(words, vocab_size, max_piece_len)
    pieces = list(seed_lp)
    lp = np.array(list(seed_lp.values()))
    alive = np.arange(len(pieces))
    max_len = max(len(p) for p in pieces)
    lattice = _Lattice(words, pieces, max_len)
    while len(alive) > vocab_size:
        for _ in range(_EM_ROUNDS):
            _em_round(lattice, lp, alive)
        lp[_cheapest(lattice, lp, alive, pieces, max_len, len(alive) - vocab_size)] = -math.inf
        alive = np.flatnonzero(lp > -math.inf)
        _renormalize(lp, alive)
    for _ in range(_EM_ROUNDS):
        _em_round(lattice, lp, alive)
    _renormalize(lp, alive)
    values = lp.tolist()
    return UnigramVocab(pieces={pieces[k]: values[k] for k in alive.tolist()})


# ---------------------------------------------------------------------------
# segmentation


def segment(v: UnigramVocab, text: str) -> list[str]:
    """Maximum-likelihood pieces of the NFC, whitespace-collapsed text, the
    word-initial piece of every word carrying the boundary marker.  The
    pieces of the first MEMO_WORDS distinct words are kept in v.memo after
    their first search; any later new word is searched on every call."""
    out = []
    memo = v.memo
    for word in unicodedata.normalize("NFC", text).split():
        marked = memo.get(word)
        if marked is None:
            pieces, _ = _viterbi_word(word, v.pieces, v.max_piece_len,
                                      unk_logprob=v.unk_logprob)
            marked = (MARKER + pieces[0], *pieces[1:])
            if len(memo) < MEMO_WORDS:
                memo[word] = marked
        out.extend(marked)
    return out


def decode(v: UnigramVocab, pieces: list[str]) -> str:
    """Inverse of segment up to whitespace normalization."""
    words: list[str] = []
    for piece in pieces:
        if piece.startswith(MARKER):
            words.append(piece[len(MARKER):])
        else:
            if not words:
                raise AlignmentError("first piece must carry the boundary marker")
            words[-1] += piece
    return " ".join(words)


# ---------------------------------------------------------------------------
# vocabulary files


def vocab_to_text(v: UnigramVocab) -> str:
    return "".join(f"{piece}\t{lp!r}\n" for piece, lp in v.pieces.items())


def vocab_from_text(text: str) -> UnigramVocab:
    pieces: dict[str, float] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError("expected piece<TAB>logprob",
                             line=lineno)
        piece, lp_text = parts
        try:
            lp = float(lp_text)
        except ValueError:
            raise ParseError(f"bad log-probability "
                             f"{lp_text!r}", line=lineno) from None
        if piece in pieces:
            raise ParseError(f"duplicate piece {piece!r}",
                             line=lineno)
        pieces[piece] = lp
    return UnigramVocab(pieces=pieces)


def save_vocab(v: UnigramVocab, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(vocab_to_text(v))


def load_vocab(path) -> UnigramVocab:
    with open(path, encoding="utf-8") as fh:
        return vocab_from_text(fh.read())
