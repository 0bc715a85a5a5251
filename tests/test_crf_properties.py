"""Property tests of the fused CRF forward algorithm against enumeration."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from seqtag import autodiff as ad
from seqtag import crf as crf_mod
from seqtag.autodiff import Tensor
from seqtag.crf import CRFParams

from oracles import crf_brute_log_partition, crf_enumerate


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
    mask = np.where(np.reshape(forbid[:(T + 1) ** 2], (T + 1, T + 1)), -np.inf, 0.0)
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
