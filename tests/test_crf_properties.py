"""Property tests of the fused CRF forward algorithm and of Viterbi
decoding, over one sequence and over packed batches, against enumeration."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from seqtag import autodiff as ad
from seqtag import crf as crf_mod
from seqtag.autodiff import Tensor
from seqtag.crf import CRFParams

from oracles import crf_brute_log_partition, crf_enumerate, crf_path_score


def enumerated_expectations(emissions, transition):
    """Tag marginals (n, T) and expected transition counts (T+1, T+1) by
    weighting every labeling with its probability."""
    n, T = emissions.shape
    paths = crf_enumerate(emissions, transition)
    log_z = crf_brute_log_partition(emissions, transition)
    marginals = np.zeros((n, T))
    counts = np.zeros((T + 1, T + 1))
    for labels, score in paths:
        p = np.exp(score - log_z)
        prev = T
        for t, lab in enumerate(labels):
            marginals[t, lab] += p
            counts[prev, lab] += p
            prev = lab
        counts[prev, T] += p
    return marginals, counts


def _mask(T, forbid):
    """The (T+1, T+1) additive mask with -inf wherever forbid is set."""
    return np.where(np.reshape(forbid[:(T + 1) ** 2], (T + 1, T + 1)), -np.inf, 0.0)


@settings(max_examples=150, deadline=None)
@given(num_tags=st.integers(1, 3), n=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), forbid=st.lists(st.booleans(), min_size=16,
                                                         max_size=16))
@example(num_tags=2, n=3, seed=0, forbid=[True] * 16)   # every path forbidden
@example(num_tags=3, n=1, seed=1, forbid=[False] * 16)  # no mask entry set
def test_fused_log_partition_matches_enumeration_under_random_masks(num_tags, n,
                                                                    seed, forbid):
    T = num_tags
    rng = np.random.default_rng(seed)
    crf = CRFParams.init(T, rng)
    crf.transition.data[...] = rng.normal(size=(T + 1, T + 1))
    e = Tensor(rng.normal(scale=2.0, size=(n, T)), requires_grad=True)
    mask = _mask(T, forbid)
    log_z = crf_mod.log_partition(crf, e, mask)
    ad.backward(log_z)
    masked = crf.transition.data + mask
    assert np.all(np.isfinite(e.grad)) and np.all(np.isfinite(crf.transition.grad))
    if all(score == -np.inf for _, score in crf_enumerate(e.data, masked)):
        assert log_z.item() == -np.inf
        assert not e.grad.any() and not crf.transition.grad.any()
        return
    want = crf_brute_log_partition(e.data, masked)
    assert abs(log_z.item() - want) <= 1e-10 * max(1.0, abs(want))
    marginals, counts = enumerated_expectations(e.data, masked)
    assert np.max(np.abs(e.grad - marginals)) <= 1e-10
    assert np.max(np.abs(crf.transition.grad - counts)) <= 1e-10


# for two tags: every tag-to-tag transition forbidden, BOS and EOS free, so a
# one-position sequence has paths and any longer one has none
TAG_TO_TAG = [True, True, False, True, True, False, False, False, False] + [False] * 7


@settings(max_examples=150, deadline=None)
@given(num_tags=st.integers(1, 3),
       lengths=st.lists(st.integers(1, 3), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), forbid=st.lists(st.booleans(), min_size=16,
                                                         max_size=16))
@example(num_tags=2, lengths=[1, 3, 1], seed=2, forbid=TAG_TO_TAG)  # one all-forbidden
@example(num_tags=2, lengths=[2, 3], seed=3, forbid=TAG_TO_TAG)     # all forbidden
@example(num_tags=3, lengths=[3, 1, 2], seed=4, forbid=[False] * 16)
def test_packed_log_partition_matches_per_sequence_enumeration(num_tags, lengths,
                                                               seed, forbid):
    """A packed batch gives the sum of each sequence's enumerated
    log-partition, its tag marginals row for row and the sum of the
    expected transition counts; a sequence with no allowed path adds -inf
    and nothing to either gradient."""
    T = num_tags
    rng = np.random.default_rng(seed)
    crf = CRFParams.init(T, rng)
    crf.transition.data[...] = rng.normal(size=(T + 1, T + 1))
    e = Tensor(rng.normal(scale=2.0, size=(sum(lengths), T)), requires_grad=True)
    mask = _mask(T, forbid)
    log_z = crf_mod.log_partition(crf, e, mask, lengths)
    ad.backward(log_z)
    masked = crf.transition.data + mask
    want_z = 0.0
    want_marginals = np.zeros((sum(lengths), T))
    want_counts = np.zeros((T + 1, T + 1))
    start = 0
    for n in lengths:
        rows = e.data[start:start + n]
        if any(score > -np.inf for _, score in crf_enumerate(rows, masked)):
            want_z += crf_brute_log_partition(rows, masked)
            marginals, counts = enumerated_expectations(rows, masked)
            want_marginals[start:start + n] = marginals
            want_counts += counts
        else:
            want_z = -np.inf
        start += n
    assert np.all(np.isfinite(e.grad)) and np.all(np.isfinite(crf.transition.grad))
    if want_z == -np.inf:
        assert log_z.item() == -np.inf
    else:
        assert abs(log_z.item() - want_z) <= 1e-10 * max(1.0, abs(want_z))
    assert np.max(np.abs(e.grad - want_marginals)) <= 1e-10
    assert np.max(np.abs(crf.transition.grad - want_counts)) <= 1e-10


@settings(max_examples=150, deadline=None)
@given(num_tags=st.integers(1, 3),
       lengths=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), forbid=st.lists(st.booleans(), min_size=16,
                                                         max_size=16))
@example(num_tags=2, lengths=[1, 3, 1], seed=2, forbid=TAG_TO_TAG)  # one all-forbidden
@example(num_tags=1, lengths=[2, 1, 4], seed=5, forbid=[False] * 16)
def test_packed_viterbi_matches_per_sequence_decoding_and_enumeration(num_tags, lengths,
                                                                      seed, forbid):
    """A packed decode gives each sequence the labeling a call on it alone
    gives, and where the mask leaves it a path, that labeling scores the
    enumerated maximum."""
    T = num_tags
    rng = np.random.default_rng(seed)
    crf = CRFParams.init(T, rng)
    crf.transition.data[...] = rng.normal(size=(T + 1, T + 1))
    e = Tensor(rng.normal(scale=2.0, size=(sum(lengths), T)))
    mask = _mask(T, forbid)
    masked = crf.transition.data + mask
    got = crf_mod.viterbi_decode(crf, e, mask, lengths)
    start = 0
    for n in lengths:
        rows = e.data[start:start + n]
        path = got[start:start + n]
        assert path == crf_mod.viterbi_decode(crf, Tensor(rows), mask)
        best = max(score for _, score in crf_enumerate(rows, masked))
        if best > -np.inf:
            assert abs(crf_path_score(rows, masked, path) - best) <= 1e-10 * max(1.0, abs(best))
        start += n
