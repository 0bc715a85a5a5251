"""Linear-chain CRF scoring, partition, loss and decoding for both tag heads.
The per-token softmax head is a CRF over a constant all-zero transition
table; its loss is crf_nll over it with each word a one-row sequence.

A loss graph over the emissions is two nodes however many sequences it
packs: the crf_forward node of the log-partition, and one inner node that
subtracts the gold paths' emission and transition scores from it (plus a
constant and an add if the mask forbids a gold transition).  crf_forward
runs the forward-backward pass in scaled probability space, one matmul per
step for all sequences and both directions, and falls back to a log-space
loop when its own checks find an underflow (autodiff.crf_forward).

Conventions: for T tags the transition matrix is (T+1) x (T+1) with row T
holding begin-of-sentence transitions and column T end-of-sentence
transitions.  Probabilities are normalized over the full augmented space, so
every path implicitly starts at BOS and ends at EOS.  Ties in decoding are
broken toward the lowest tag index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import bio2_follows
from .errors import ShapeError, UsageError

NEG_INF = float("-inf")


@dataclass
class CRFParams:
    """The (T+1, T+1) transition table of a CRF over T tags; ShapeError
    unless it is square with T >= 1."""

    transition: Tensor

    def __post_init__(self):
        shape = self.transition.shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2:
            raise ShapeError(f"a CRF transition table is (T+1, T+1) with T >= 1, "
                             f"got {shape}")

    @property
    def num_tags(self) -> int:
        return self.transition.shape[0] - 1

    @classmethod
    def init(cls, num_tags: int, rng: np.random.Generator) -> "CRFParams":
        if num_tags < 1:
            raise UsageError("CRF needs at least one tag")
        data = rng.uniform(-0.1, 0.1, size=(num_tags + 1, num_tags + 1))
        return cls(Tensor(data, requires_grad=True))

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {prefix + "transition": self.transition}


def _check_emissions(num_tags: int, emissions: Tensor) -> int:
    if emissions.data.ndim != 2 or emissions.shape[1] != num_tags:
        raise ShapeError(f"emissions shape {emissions.shape} does not match "
                         f"(n, {num_tags})")
    n = emissions.shape[0]
    if n == 0:
        raise UsageError("empty emission sequence")
    return n


def _check_mask(num_tags: int, mask: np.ndarray | None) -> None:
    if mask is not None and np.shape(mask) != (num_tags + 1, num_tags + 1):
        raise ShapeError(f"mask shape {np.shape(mask)} does not match "
                         f"({num_tags + 1}, {num_tags + 1})")


def _gold(crf: CRFParams, emissions: Tensor, labels, mask, lengths):
    """The constant tables of the gold paths: pick, the 0/1 (n, T) table of
    the labelled cells; counts, how often each transition is taken over
    every sequence; and the mask's summed entries over them.  ShapeError
    unless there is one label per row, UsageError unless each is an
    integer (ad.as_ints) in [0, T)."""
    T = crf.num_tags
    n = _check_emissions(T, emissions)
    if len(labels) != n:
        raise ShapeError(f"{len(labels)} labels for {n} positions")
    labels = ad.as_ints(labels, "labels")
    if labels.min() < 0 or labels.max() >= T:
        raise UsageError(f"labels {labels.tolist()} outside [0, {T})")
    _check_mask(T, mask)
    lengths = ad.checked_lengths(lengths, n)
    pick = np.zeros((n, T))
    pick[np.arange(n), labels] = 1.0
    # every transition taken: into each label from its predecessor, or from
    # BOS at a sequence start, and from each sequence's last label to EOS
    ends = np.cumsum(lengths)
    prev = np.concatenate(([T], labels[:-1]))
    prev[ends[:-1]] = T
    rows = np.concatenate((prev, labels[ends - 1]))
    cols = np.concatenate((labels, np.full(lengths.size, T)))
    counts = np.bincount(rows * (T + 1) + cols, minlength=(T + 1) ** 2)
    counts = counts.reshape(T + 1, T + 1).astype(np.float64)
    penalty = 0.0 if mask is None else float(np.sum(mask[rows, cols]))
    return pick, counts, penalty


def score_sequence(crf: CRFParams, emissions: Tensor, labels,
                   mask: np.ndarray | None = None, lengths=None) -> Tensor:
    """Unnormalized path score of one labeling, or with lengths the summed
    scores of the sequences packed in emissions and labels (lengths[b] rows
    each, as for crf_forward): one inner node over the emissions and the
    transition table, against _gold's pick and counts tables."""
    pick, counts, penalty = _gold(crf, emissions, labels, mask, lengths)
    score = ad.inner(emissions, pick, crf.transition, counts)
    return score if penalty == 0.0 else score + Tensor(np.float64(penalty))


def log_partition(crf: CRFParams, emissions: Tensor,
                  mask: np.ndarray | None = None, lengths=None) -> Tensor:
    """Log of the summed exp-scores of all labelings: the forward algorithm,
    as one autodiff node.  With lengths, the summed log-partitions of the
    sequences packed in emissions, still one node."""
    _check_emissions(crf.num_tags, emissions)
    _check_mask(crf.num_tags, mask)
    return ad.crf_forward(emissions, crf.transition, mask, lengths)


def crf_nll(crf: CRFParams, emissions: Tensor, labels,
            mask: np.ndarray | None = None, lengths=None) -> Tensor:
    """Negative log-likelihood of one labeled sequence, or with lengths the
    summed negative log-likelihood of the sequences packed in emissions and
    labels: the log-partition minus the gold path score, in one inner node."""
    pick, counts, penalty = _gold(crf, emissions, labels, mask, lengths)  # bad labels raise first
    nll = ad.inner(emissions, -pick, crf.transition, -counts,
                   log_partition(crf, emissions, mask, lengths), 1.0)
    return nll if penalty == 0.0 else nll + Tensor(np.float64(-penalty))


def log_prob(crf: CRFParams, emissions: Tensor, labels,
             mask: np.ndarray | None = None, lengths=None) -> Tensor:
    """Log-probability of the labeling: the negated training loss."""
    return ad.inner(crf_nll(crf, emissions, labels, mask, lengths), -1.0)


def viterbi_decode(crf: CRFParams, emissions: Tensor,
                   mask: np.ndarray | None = None, lengths=None) -> list[int]:
    """Highest-scoring labeling of one sequence, or with lengths the
    labelings of the sequences packed in emissions (lengths[b] rows each,
    as for crf_forward), back to back in row order; pure array math, no
    gradient graph.

    All sequences step together over a zero-padded (B, L, T) copy of the
    emissions, one (B, T, T) table of candidate scores per step, and a
    sequence that has ended keeps its scores.  Each sequence's scores go
    through the elementwise operations a call on it alone makes, so its
    labeling is the one that call gives, ties going to the lowest tag
    index.
    """
    n = _check_emissions(crf.num_tags, emissions)
    _check_mask(crf.num_tags, mask)
    lengths, seq, step = ad.packed_steps(lengths, n)
    T = crf.num_tags
    B, L, shortest = lengths.size, int(lengths.max()), int(lengths.min())
    e = np.zeros((B, L, T))
    e[seq, step] = emissions.data
    trans = crf.transition.data + (mask if mask is not None else 0.0)
    delta = trans[T, :T] + e[:, 0]  # delta[b, j]: best score of a prefix ending in j
    back = np.zeros((B, L, T), dtype=np.intp)
    for t in range(1, L):
        cand = delta[:, :, None] + trans[:T, :T]  # cand[b, i, j]: best-so-far i -> j
        back[:, t] = cand.argmax(axis=1)
        best = cand.max(axis=1) + e[:, t]
        # no sequence has ended before the shortest one does
        delta = best if t < shortest else np.where((t < lengths)[:, None], best, delta)
    final = (delta + trans[:T, T]).argmax(axis=1).tolist()
    back = back.tolist()
    path = []
    for b, size in enumerate(lengths.tolist()):
        tags = [final[b]]
        for t in range(size - 1, 0, -1):
            tags.append(back[b][t][tags[-1]])
        path += tags[::-1]
    return path


def illegal_mask(tags: list[str]) -> np.ndarray:
    """Additive mask forbidding transitions that can never occur in BIO2:
    -inf where data.bio2_follows(prev, tag) is false, reading the BOS row
    as an O, and 0 elsewhere.  Shape (T+1, T+1) with the BOS row last and
    EOS column last."""
    T = len(tags)
    mask = np.zeros((T + 1, T + 1))
    for i, prev in enumerate([*tags, "O"]):
        for j, tag in enumerate(tags):
            if not bio2_follows(prev, tag):
                mask[i, j] = NEG_INF
    return mask
