"""Linear-chain CRF scoring, partition, loss and decoding for both tag heads.
The per-token softmax head is a CRF over a constant all-zero transition
table; its loss is crf_nll over it with each word a one-row sequence.

A loss graph over the emissions is six nodes however many sequences it
packs: the crf_forward node of the log-partition, two inner nodes and an
add for the gold path score, and a scale and an add for their difference
(a constant and one more add if the mask forbids a gold transition).

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


def _check_labels(num_tags: int, labels, n: int):
    if len(labels) != n:
        raise ShapeError(f"{len(labels)} labels for {n} positions")
    for lab in labels:
        if not 0 <= lab < num_tags:
            raise UsageError(f"label {lab} outside [0, {num_tags})")


def _check_mask(num_tags: int, mask: np.ndarray | None) -> None:
    if mask is not None and np.shape(mask) != (num_tags + 1, num_tags + 1):
        raise ShapeError(f"mask shape {np.shape(mask)} does not match "
                         f"({num_tags + 1}, {num_tags + 1})")


def score_sequence(crf: CRFParams, emissions: Tensor, labels,
                   mask: np.ndarray | None = None, lengths=None) -> Tensor:
    """Unnormalized path score of one labeling.

    With lengths, emissions and labels hold several sequences back to back
    (lengths[b] rows each, as for crf_forward) and the result is the sum
    of their scores: one inner product of the emissions with a constant
    0/1 table of the picked cells, and one of the transition table with a
    constant table of the transitions taken over every sequence.
    """
    n = _check_emissions(crf.num_tags, emissions)
    _check_labels(crf.num_tags, labels, n)
    _check_mask(crf.num_tags, mask)
    T = crf.num_tags
    lengths = ad.packed_steps([n] if lengths is None else lengths, n)[0]
    labels = np.asarray(labels, dtype=np.intp)
    pick = np.zeros((n, T))
    pick[np.arange(n), labels] = 1.0
    # every transition taken: into each label from its predecessor, or from
    # BOS at a sequence start, and from each sequence's last label to EOS
    ends = np.cumsum(lengths)
    prev = np.concatenate(([T], labels[:-1]))
    prev[ends[:-1]] = T
    rows = np.concatenate((prev, labels[ends - 1]))
    cols = np.concatenate((labels, np.full(lengths.size, T)))
    counts = np.zeros((T + 1, T + 1))
    np.add.at(counts, (rows, cols), 1.0)
    total = ad.inner(emissions, pick) + ad.inner(crf.transition, counts)
    penalty = 0.0 if mask is None else float(np.sum(mask[rows, cols]))
    if penalty != 0.0:
        total = total + Tensor(np.float64(penalty))
    return total


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
    labels: the log-partition minus the gold path score."""
    score = score_sequence(crf, emissions, labels, mask, lengths)  # bad labels raise first
    return log_partition(crf, emissions, mask, lengths) - score


def log_prob(crf: CRFParams, emissions: Tensor, labels,
             mask: np.ndarray | None = None, lengths=None) -> Tensor:
    """Log-probability of the labeling: the negated training loss."""
    return -crf_nll(crf, emissions, labels, mask, lengths)


def viterbi_decode(crf: CRFParams, emissions: Tensor,
                   mask: np.ndarray | None = None) -> list[int]:
    """Highest-scoring labeling; pure array math, no gradient graph."""
    n = _check_emissions(crf.num_tags, emissions)
    _check_mask(crf.num_tags, mask)
    T = crf.num_tags
    e = emissions.data
    trans = crf.transition.data + (mask if mask is not None else 0.0)
    delta = trans[T, :T] + e[0]
    back = np.zeros((n, T), dtype=int)
    for t in range(1, n):
        cand = delta[:, None] + trans[:T, :T]  # cand[i, j]: best-so-far i -> j
        back[t] = np.argmax(cand, axis=0)
        delta = cand[back[t], np.arange(T)] + e[t]
    final = delta + trans[:T, T]
    best = int(np.argmax(final))
    path = [best]
    for t in range(n - 1, 0, -1):
        best = int(back[t, best])
        path.append(best)
    return path[::-1]


def illegal_mask(tags: list[str]) -> np.ndarray:
    """Additive mask forbidding transitions that can never occur in BIO2.

    An I-X tag may only follow B-X or I-X of the same type; everything else
    stays 0.  Shape (T+1, T+1) with the BOS row last and EOS column last.
    """
    T = len(tags)
    mask = np.zeros((T + 1, T + 1))
    for j, to_tag in enumerate(tags):
        if not to_tag.startswith("I-"):
            continue
        kind = to_tag[2:]
        for i, from_tag in enumerate(tags):
            if from_tag not in (f"B-{kind}", f"I-{kind}"):
                mask[i, j] = NEG_INF
        mask[T, j] = NEG_INF  # sentence cannot open inside an entity
    return mask

