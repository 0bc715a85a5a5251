"""Unigram subword tokenizer: EM training with likelihood-based pruning,
Viterbi segmentation, and its inverse.  A transformer tagger reads each
word's features off the hidden row of its first piece
(SequenceTagger._transformer_features in models.py).

Training finds every occurrence of a seed piece in every distinct word once
(_Lattice).  The words' positions are laid end to end as flat cells, and an
arc is the two cells it joins and its piece.  Each EM round runs the
forward and backward passes as numpy steps over dependency levels
(_levels): a level writes each cell at most once and reads only finished
cells, so the bits are those of a per-word scalar recursion.  Pruning
scores every multi-character seed piece against its best segmentation into
the other pieces with one max-plus pass over a second lattice of those
pieces (_Splits).  A pruned piece scores -inf rather than leaving either
lattice.  The arc and word counts size every array, so on corpora of a few
hundred distinct words none reaches glibc's 128 KB mmap threshold; freeing
one that did would raise the threshold and keep later arrays resident on
the heap.

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
from array import array
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


def _arcs(words: list[str], index: dict[str, int], max_len: int,
          whole: bool = True, typecode: str = "q"):
    """Every occurrence of an inventory piece in every word, in (word, start,
    end) order: the flat cell each arc ends at and the piece's id, as
    integer arrays of the array module's typecode.  Word w owns cells
    base_w .. base_w + len(w), one per position, the words laid end to end.
    Without whole, an arc that spans its whole word is left out."""
    ends, ids = array(typecode), array(typecode)
    get = index.get
    base = 0
    for word in words:
        n = len(word)
        for i in range(n):
            for j in range(i + 1, min(n - (i == 0 and not whole), i + max_len) + 1):
                k = get(word[i:j])
                if k is not None:
                    ends.append(base + j)
                    ids.append(k)
        base += n + 1
    return np.frombuffer(ends, dtype=typecode), np.frombuffer(ids, dtype=typecode)


def _cells(words: list[str]):
    """The first and last flat cell of every word, and the position within
    its word of every cell, as int32."""
    sizes = np.array([len(w) + 1 for w in words], dtype=np.intp)
    last = np.cumsum(sizes) - 1
    first = last - sizes + 1
    position = np.arange(int(last[-1]) + 1, dtype=np.int32)
    position -= np.repeat(first, sizes)
    return first, last, position


def _levels(into: np.ndarray, out_of: np.ndarray, position: np.ndarray,
            positions) -> tuple[np.ndarray, list[int]]:
    """A schedule of the arcs for a pass that combines each arc's score
    with the cell it reads (out_of) into the cell it writes (into), every
    cell taking its arcs in their array order.  An arc runs one level after
    the arc that last writes the cell it reads and after the previous arc
    into its own cell, so one level writes each cell at most once and reads
    only finished cells.  The arcs are placed one numpy step per position
    of the cells they write (position, per arc), in the order positions
    gives, which must put every cell an arc reads before the cell it
    writes.  Returns the arcs in level order, each level in array order,
    and the end of each level in it."""
    done = np.zeros(int(max(into.max(), out_of.max())) + 1, dtype=np.intp)
    arc_level = np.empty(len(into), dtype=np.int32)
    for q in positions:
        at = np.flatnonzero(position == q)
        if not len(at):
            continue
        cell = into[at]
        head = np.ones(len(at), dtype=bool)
        np.not_equal(cell[1:], cell[:-1], out=head[1:])
        run = np.cumsum(head) - 1
        first = np.flatnonzero(head)
        rank = np.arange(len(at)) - first[run]
        # The r-th arc into a cell runs at r + 1 + max(done[read] - j) over
        # the cell's arcs j <= r: a running max along each cell's run of
        # arcs, kept within the run by lifting each run above the last.
        lift = run * (len(into) + len(at))
        level = done[out_of[at]] - rank + lift
        np.maximum.accumulate(level, out=level)
        level += rank + 1 - lift
        arc_level[at] = level
        last = np.append(first[1:], len(at)) - 1
        done[cell[last]] = level[last]
    ends = np.cumsum(np.bincount(arc_level)[1:]).tolist()
    order = np.empty(len(into), dtype=np.intp)
    lo = 0
    for k, hi in enumerate(ends, start=1):
        order[lo:hi] = np.flatnonzero(arc_level == k)
        lo = hi
    return order, ends


def _sweep(cells: np.ndarray, into: np.ndarray, out_of: np.ndarray, score: np.ndarray,
           ends: list[int], combine) -> None:
    """cells[into] = combine(cells[into], cells[out_of] + score), one numpy
    step per level of arcs in level order."""
    lo = 0
    for hi in ends:
        cell = into[lo:hi]
        cells[cell] = combine(cells[cell], cells[out_of[lo:hi]] + score[lo:hi])
        lo = hi


class _Lattice:
    """Every occurrence of a seed piece in every distinct word, found once
    per train_unigram call.  Pruning only removes pieces, and a pruned piece
    scores -inf, so the arcs never change; only their scores do.

    The words' positions are laid end to end as flat cells, and each arc is
    the cells it starts and ends at and its piece, intp columns in (word,
    start, end) order.  Each cell adds its arcs in start order in the
    forward pass and in end order in the backward pass, as a per-word
    scalar recursion does, and each pass runs one numpy step per dependency
    level (_levels): 16 forward and 88 backward on the benchmark's train
    slice.  np.logaddexp and IEEE additions then give the scalar
    recursion's bits, so the inventory does not depend on the
    vectorization; a backward pass in end-descending order would need only
    16 levels, but it changes the bits.  Posteriors are taken with math.exp
    per arc, as np.exp can differ from it in the last bit, skipped for a
    pruned piece's arcs (each would add 0.0), and summed in (word, start,
    end) order.

    Memory: the three arc columns and the two level orders are the only
    arrays that grow with the arcs.  Each pass gathers the columns into its
    level order, and every step is a view of those.  alpha and beta are
    allocated once and reused by every round.  No numpy sort runs (a sort
    touches numpy code pages nothing else in a training run uses), and no
    list of Python ints per arc is kept.
    """

    def __init__(self, words: dict[str, int], pieces: list[str], max_len: int):
        self.words = list(words)
        self.end, self.piece = _arcs(self.words, {p: k for k, p in enumerate(pieces)},
                                     max_len)
        lengths = np.array([len(p) for p in pieces], dtype=np.intp)
        self.start = self.end - lengths[self.piece]
        self.first, self.last, position = _cells(self.words)
        sizes = self.last - self.first + 1
        self.owner = np.repeat(self.last, sizes)  # the last cell of each cell's word
        self.weight = np.repeat(np.array(list(words.values()), dtype=float), sizes)
        top = int(position.max())
        self.forward = _levels(self.end, self.start, position[self.end], range(1, top + 1))
        self.backward = _levels(self.start, self.end, position[self.start],
                                range(top - 1, -1, -1))
        self.alpha = np.empty(len(position))
        self.beta = np.empty(len(position))

    def _pass(self, cells: np.ndarray, into: np.ndarray, out_of: np.ndarray,
              lp: np.ndarray, schedule) -> None:
        order, ends = schedule
        _sweep(cells, into[order], out_of[order], lp[self.piece[order]], ends, np.logaddexp)

    def expected_counts(self, lp: np.ndarray) -> np.ndarray:
        """Posterior count of every piece summed over the corpus, each word
        weighted by its count, under piece log-probabilities lp (-inf for a
        pruned piece).  Raises UsageError naming the first word lp cannot
        cover."""
        alpha, beta = self.alpha, self.beta
        alpha.fill(-math.inf)
        alpha[self.first] = 0.0
        self._pass(alpha, self.end, self.start, lp, self.forward)
        stuck = np.flatnonzero(alpha[self.last] == -math.inf)
        if len(stuck):
            raise UsageError(f"word {self.words[stuck[0]]!r} cannot be "
                             f"segmented with current pieces")
        beta.fill(-math.inf)
        beta[self.last] = 0.0
        self._pass(beta, self.start, self.end, lp, self.backward)
        z = alpha[self.owner]
        x = alpha[self.start]
        x += lp[self.piece]
        x += beta[self.end]
        x -= z[self.end]
        live = np.flatnonzero(x > -math.inf)  # the others, a pruned piece's, add 0.0
        x = x[live]
        post = np.fromiter(map(math.exp, x.data), dtype=float, count=len(x))
        post *= self.weight[self.end[live]]
        counts = np.zeros(len(lp))
        np.add.at(counts, self.piece[live], post)
        return counts


class _Splits:
    """Every multi-character seed piece as a word of a second lattice, with
    the arcs of the other seed pieces inside it: each piece's own whole arc
    is left out.  A max-plus forward pass over it gives every such piece
    the score of its best segmentation into the other pieces, with pruned
    pieces at -inf; max is exact, so each score is bitwise the one
    _viterbi_word finds for the piece alone.

    The arcs are stored once in the pass's level order as one (3, arcs)
    int32 array (the cell written, the cell read, the piece), the only
    array of the lattice that grows with its arcs; it stays under 128 KB
    for an 800-piece seed inventory.
    """

    def __init__(self, pieces: list[str], max_len: int):
        self.ids = np.array([k for k, p in enumerate(pieces) if len(p) > 1], dtype=np.intp)
        words = [pieces[k] for k in self.ids.tolist()]
        end, piece = _arcs(words, {p: k for k, p in enumerate(pieces)}, max_len,
                           whole=False, typecode="i")
        start = end - np.array([len(p) for p in pieces], dtype=np.int32)[piece]
        self.first, self.last, position = _cells(words)
        order, self.ends = _levels(end, start, position[end],
                                   range(1, int(position.max()) + 1))
        self.arcs = np.empty((3, len(order)), dtype=np.int32)
        for row, column in enumerate((end, start, piece)):
            self.arcs[row] = column[order]
        self.score = np.empty(len(position))

    def best(self, lp: np.ndarray) -> np.ndarray:
        """The best segmentation score of each piece of ids into the other
        pieces under lp."""
        score = self.score
        score.fill(-math.inf)
        score[self.first] = 0.0
        into, out_of, piece = self.arcs
        _sweep(score, into, out_of, lp[piece], self.ends, np.maximum)
        return score[self.last]


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


def _cheapest(lattice: _Lattice, splits: _Splits, lp: np.ndarray,
              pieces: list[str], most: int) -> list[int]:
    """Ids of the alive multi-character pieces whose removal costs the least
    likelihood: a fifth of them, at least one and at most most.  A piece's
    cost is its expected count times the score it loses to its best
    segmentation into the other alive pieces, which one max-plus pass over
    splits gives for every piece at once; ties go by piece, then id."""
    usage = lattice.expected_counts(lp)
    alt = splits.best(lp)
    live = lp[splits.ids] > -math.inf
    ids = splits.ids[live]
    loss = usage[ids] * (lp[ids] - alt[live])
    losses = sorted(zip(loss.tolist(), [pieces[k] for k in ids.tolist()], ids.tolist()))
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
    splits = _Splits(pieces, max_len) if len(alive) > vocab_size else None
    while len(alive) > vocab_size:
        for _ in range(_EM_ROUNDS):
            _em_round(lattice, lp, alive)
        lp[_cheapest(lattice, splits, lp, pieces, len(alive) - vocab_size)] = -math.inf
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
