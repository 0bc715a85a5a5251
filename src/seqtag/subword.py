"""Unigram subword tokenizer: EM training with likelihood-based pruning,
Viterbi segmentation, and first-subword label alignment with its inverse
projection.  The tagging models do not call the alignment helpers: a
transformer tagger reads each word's features off the hidden row of its
first piece (SequenceTagger._transformer_features in models.py).

Pieces are stored without the word-boundary marker; segment() renders the
marker ("▁" by default) onto each word-initial piece.  Text normalization is
whitespace collapsing only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, ConfigError, ParseError, UsageError, ValidationError

MARKER = "▁"

# label align_labels gives every piece that does not start a word
PAD = None

_EM_ROUNDS = 2
_PRUNE_FRACTION = 0.2
_UNK_PENALTY = 10.0


@dataclass
class UnigramVocab:
    """A piece inventory.  The segmentation constants derived from it, the
    longest piece's length and the score of a character outside it, are
    computed once here; the inventory is not changed after construction."""

    pieces: dict[str, float]  # piece -> log probability
    marker: str = MARKER
    target_size: int | None = None
    max_piece_len: int = field(init=False, repr=False, compare=False)
    unk_logprob: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pieces:
            raise ValidationError("empty piece inventory")
        total = sum(math.exp(lp) for lp in self.pieces.values())
        if abs(total - 1.0) > 1e-6:
            raise ValidationError(f"piece probabilities sum to {total!r}, not 1")
        self.max_piece_len = max(len(p) for p in self.pieces)
        self.unk_logprob = min(self.pieces.values()) - _UNK_PENALTY

    def __len__(self):
        return len(self.pieces)

    def logprob(self, piece: str) -> float:
        return self.pieces[piece]


# ---------------------------------------------------------------------------
# lattice primitives over one word

_LN2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """log(exp(x) + exp(y)) for two floats by numpy's own formula, so it
    equals np.logaddexp bitwise at a fraction of a ufunc call's cost."""
    if x == y:  # also equal infinities
        return x + _LN2
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    if d <= 0:
        return y + math.log1p(math.exp(d))
    return d  # NaN


def _forward(word: str, lp: dict[str, float], max_len: int):
    n = len(word)
    alpha = [-math.inf] * (n + 1)
    alpha[0] = 0.0
    for i in range(1, n + 1):
        for j in range(max(0, i - max_len), i):
            piece = word[j:i]
            if piece in lp and alpha[j] != -math.inf:
                alpha[i] = _logaddexp(alpha[i], alpha[j] + lp[piece])
    return alpha


def _expected_counts(word: str, count: int, lp: dict[str, float], max_len: int,
                     acc: dict[str, float]) -> float:
    """Accumulate posterior piece counts for one word type; returns its
    log-likelihood contribution."""
    n = len(word)
    alpha = _forward(word, lp, max_len)
    if alpha[n] == -math.inf:
        raise UsageError(f"word {word!r} cannot be segmented with current pieces")
    beta = [-math.inf] * (n + 1)
    beta[n] = 0.0
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, min(n, i + max_len) + 1):
            piece = word[i:j]
            if piece in lp and beta[j] != -math.inf:
                beta[i] = _logaddexp(beta[i], lp[piece] + beta[j])
    for i in range(n):
        if alpha[i] == -math.inf:
            continue
        for j in range(i + 1, min(n, i + max_len) + 1):
            piece = word[i:j]
            if piece in lp and beta[j] != -math.inf:
                post = math.exp(alpha[i] + lp[piece] + beta[j] - alpha[n])
                acc[piece] = acc.get(piece, 0.0) + count * post
    return count * alpha[n]


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
        for word in line.split():
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


def _em_round(lp: dict[str, float], words: dict[str, int], max_len: int) -> dict[str, float]:
    acc: dict[str, float] = {}
    for word, count in words.items():
        _expected_counts(word, count, lp, max_len, acc)
    eps = 1e-12
    total = sum(acc.get(p, 0.0) + eps for p in lp)
    return {p: math.log((acc.get(p, 0.0) + eps) / total) for p in lp}


def _renormalize(lp: dict[str, float]) -> dict[str, float]:
    logs = np.array(list(lp.values()))
    m = float(logs.max())
    log_total = m + math.log(float(np.exp(logs - m).sum()))
    return {p: float(v) - log_total for p, v in lp.items()}


def train_unigram(corpus, vocab_size: int, seed: int = 0,
                  max_piece_len: int = 10) -> UnigramVocab:
    """Fit a unigram piece inventory of at most vocab_size entries.

    Training alternates EM probability estimates with pruning rounds that
    drop the pieces whose removal costs the least likelihood; single
    characters are never pruned.  The procedure is deterministic; seed is
    recorded for provenance only.
    """
    del seed
    words = _word_counts(corpus)
    if not words:
        raise UsageError("empty training corpus")
    alphabet = {ch for w in words for ch in w}
    if vocab_size < len(alphabet):
        raise ConfigError(f"vocab_size {vocab_size} below alphabet size "
                          f"{len(alphabet)}")
    lp = _seed_pieces(words, vocab_size, max_piece_len)
    max_len = max(len(p) for p in lp)
    while len(lp) > vocab_size:
        for _ in range(_EM_ROUNDS):
            lp = _em_round(lp, words, max_len)
        usage: dict[str, float] = {}
        for word, count in words.items():
            _expected_counts(word, count, lp, max_len, usage)
        removable = [p for p in lp if len(p) > 1]
        losses = []
        for p in removable:
            rest = dict(lp)
            del rest[p]
            _, alt = _viterbi_word(p, rest, max_len)
            losses.append((usage.get(p, 0.0) * (lp[p] - alt), p))
        losses.sort(key=lambda t: (t[0], t[1]))
        k = min(max(1, int(_PRUNE_FRACTION * len(removable))),
                len(lp) - vocab_size)
        for _, p in losses[:k]:
            del lp[p]
        lp = _renormalize(lp)
    for _ in range(_EM_ROUNDS):
        lp = _em_round(lp, words, max_len)
    lp = _renormalize(lp)
    return UnigramVocab(pieces=lp, target_size=vocab_size)


# ---------------------------------------------------------------------------
# segmentation


def segment(v: UnigramVocab, text: str) -> list[str]:
    """Maximum-likelihood pieces of the whitespace-collapsed text, the
    word-initial piece of every word carrying the boundary marker."""
    out = []
    for word in text.split():
        pieces, _ = _viterbi_word(word, v.pieces, v.max_piece_len,
                                  unk_logprob=v.unk_logprob)
        out.append(v.marker + pieces[0])
        out.extend(pieces[1:])
    return out


def decode(v: UnigramVocab, pieces: list[str]) -> str:
    """Inverse of segment up to whitespace normalization."""
    words: list[str] = []
    for piece in pieces:
        if piece.startswith(v.marker):
            words.append(piece[len(v.marker):])
        else:
            if not words:
                raise AlignmentError("first piece must carry the boundary marker")
            words[-1] += piece
    return " ".join(words)


def segmentation_score(v: UnigramVocab, pieces: list[str]) -> float:
    """Summed log-probability of already-segmented pieces (markers ignored)."""
    total = 0.0
    for piece in pieces:
        core = piece[len(v.marker):] if piece.startswith(v.marker) else piece
        total += v.pieces.get(core, v.unk_logprob)
    return total


# ---------------------------------------------------------------------------
# label alignment


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
