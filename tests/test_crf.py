import itertools
import math

import numpy as np
import pytest

from seqtag import autodiff as ad
from seqtag import crf as crf_mod
from seqtag.autodiff import Tensor
from seqtag.crf import CRFParams
from seqtag.data import LabeledSentence, Token, validate_bio2
from seqtag.errors import ShapeError, UsageError, ValidationError

from oracles import (bio2_table, crf_brute_argmax, crf_brute_log_partition, crf_enumerate,
                     crf_path_score, finite_diff, max_rel_error, softmax_nll)


def random_crf(rng, num_tags, scale=1.0):
    c = CRFParams.init(num_tags, rng)
    c.transition.data[...] = rng.normal(scale=scale, size=c.transition.shape)
    return c


def random_emissions(rng, n, num_tags, scale=1.0):
    return Tensor(rng.normal(scale=scale, size=(n, num_tags)))


# ---------------------------------------------------------------------------
# path scoring


def test_score_sequence_matches_path_oracle():
    rng = np.random.default_rng(50)
    for _ in range(50):
        T = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        c = random_crf(rng, T)
        e = random_emissions(rng, n, T)
        labels = [int(x) for x in rng.integers(0, T, size=n)]
        got = crf_mod.score_sequence(c, e, labels).data
        want = crf_path_score(e.data, c.transition.data, labels)
        assert abs(float(got) - want) <= 1e-12


def test_score_sequence_counts_repeated_transitions():
    rng = np.random.default_rng(51)
    c = random_crf(rng, 2)
    e = Tensor(np.zeros((4, 2)))
    labels = [0, 1, 0, 1]
    got = float(crf_mod.score_sequence(c, e, labels).data)
    t = c.transition.data
    want = t[2, 0] + 2 * t[0, 1] + t[1, 0] + t[1, 2]
    assert abs(got - want) <= 1e-12


def test_score_sequence_validation():
    rng = np.random.default_rng(52)
    c = random_crf(rng, 3)
    e = random_emissions(rng, 2, 3)
    with pytest.raises(ShapeError):
        crf_mod.score_sequence(c, random_emissions(rng, 2, 4), [0, 1])
    with pytest.raises(ShapeError):
        crf_mod.score_sequence(c, e, [0])
    with pytest.raises(UsageError):
        crf_mod.score_sequence(c, e, [0, 3])
    with pytest.raises(UsageError):
        crf_mod.score_sequence(c, Tensor(np.zeros((0, 3))), [])


# ---------------------------------------------------------------------------
# log partition


def test_log_partition_matches_enumeration():
    rng = np.random.default_rng(53)
    for _ in range(50):
        T = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        c = random_crf(rng, T)
        e = random_emissions(rng, n, T)
        got = float(crf_mod.log_partition(c, e).data)
        want = crf_brute_log_partition(e.data, c.transition.data)
        assert abs(got - want) <= 1e-10


def test_log_partition_single_position_closed_form():
    rng = np.random.default_rng(54)
    c = random_crf(rng, 4)
    e = random_emissions(rng, 1, 4)
    t = c.transition.data
    scores = t[4, :4] + e.data[0] + t[:4, 4]
    want = scores.max() + math.log(np.exp(scores - scores.max()).sum())
    got = float(crf_mod.log_partition(c, e).data)
    assert abs(got - want) <= 1e-12


def test_log_partition_zero_params_is_n_log_t():
    for T, n in [(1, 1), (3, 4), (7, 5), (2, 9)]:
        c = CRFParams.init(T, np.random.default_rng(0))
        c.transition.data[...] = 0.0
        e = Tensor(np.zeros((n, T)))
        got = float(crf_mod.log_partition(c, e).data)
        assert abs(got - n * math.log(T)) <= 1e-12


def test_log_partition_slices_the_transition_table_without_matmul():
    rng = np.random.default_rng(57)
    c = random_crf(rng, 3)
    mask = crf_mod.illegal_mask(["O", "B-X", "I-X"])
    for m in (None, mask):
        graph = ad.trace(crf_mod.log_partition(c, random_emissions(rng, 4, 3), m))
        assert not any(node._op == "matmul" for node in graph)


def test_log_partition_is_one_node_over_emissions_and_transition():
    rng = np.random.default_rng(58)
    c = random_crf(rng, 3)
    e = random_emissions(rng, 5, 3)
    for m in (None, crf_mod.illegal_mask(["O", "B-X", "I-X"])):
        graph = ad.trace(crf_mod.log_partition(c, e, m))
        assert [node._op for node in graph] == ["leaf", "leaf", "crf_forward"]


def test_loss_graph_above_the_emissions_is_one_forward_and_one_inner_node():
    """The loss is one inner node over the emissions and the transition
    table, against constant tables of the gold path, and over the
    log-partition: no element-wise product, sum, broadcast or add node,
    one or many sequences.  A gold path the mask forbids adds a constant
    leaf and an add, and its loss is +inf."""
    rng = np.random.default_rng(61)
    c = random_crf(rng, 3)
    mask = crf_mod.illegal_mask(["O", "B-X", "I-X"])
    for m, lengths in ((None, None), (None, [2, 1, 2]), (mask, [2, 1, 2])):
        e = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        loss = crf_mod.crf_nll(c, e, [0, 1, 0, 1, 2], m, lengths)
        ops = [n._op for n in ad.trace(loss)]
        assert sorted(ops) == ["crf_forward", "inner", "leaf", "leaf"]
        assert loss._op == "inner" and np.isfinite(loss.item())
    # the third sequence opens with I-X, which the mask forbids after BOS
    e = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    loss = crf_mod.crf_nll(c, e, [0, 1, 0, 2, 2], mask, [2, 1, 2])
    assert sorted(n._op for n in ad.trace(loss)) == ["add", "crf_forward", "inner",
                                                      "leaf", "leaf", "leaf"]
    assert loss.item() == math.inf


def test_the_crf_table_decides_the_tag_count():
    """CRFParams holds only its (T+1, T+1) table; a table that is not square
    or smaller than 2 x 2 is refused, and emissions of another width are
    refused by every call."""
    assert CRFParams(Tensor(np.zeros((5, 5)))).num_tags == 4
    for shape in ((5, 4), (1, 1), (0, 0), (5,), (2, 2, 2)):
        with pytest.raises(ShapeError):
            CRFParams(Tensor(np.zeros(shape)))
    c = CRFParams(Tensor(np.zeros((5, 5))))
    e = Tensor(np.zeros((1, 3)))
    with pytest.raises(ShapeError):
        crf_mod.viterbi_decode(c, e)
    with pytest.raises(ShapeError):
        crf_mod.crf_nll(c, e, [0])
    with pytest.raises(ShapeError):
        crf_mod.score_sequence(c, e, [0])


def test_packed_score_partition_and_nll_are_sums_over_their_sequences():
    """One call over sequences packed back to back equals the sum of one
    call per sequence, in value and in every gradient, and builds one
    crf_forward node."""
    rng = np.random.default_rng(59)
    mask = crf_mod.illegal_mask(["O", "B-X", "I-X"])
    for m in (None, mask):
        c = random_crf(rng, 3)
        lengths = [3, 1, 4, 2]
        e = Tensor(rng.normal(size=(sum(lengths), 3)), requires_grad=True)
        labels = [0, 1, 2, 1, 0, 0, 1, 2, 1, 0]
        packed = crf_mod.crf_nll(c, e, labels, m, lengths)
        assert [n._op for n in ad.trace(packed)].count("crf_forward") == 1
        ad.backward(packed)
        got = (packed.item(), e.grad.copy(), c.transition.grad.copy())
        e.zero_grad()
        c.transition.zero_grad()
        want = 0.0
        for start, n in zip(np.cumsum([0] + lengths), lengths):
            rows = ad.take(e, slice(start, start + n))
            nll = crf_mod.crf_nll(c, rows, labels[start:start + n], m)
            ad.backward(nll)
            want += nll.item()
        assert abs(got[0] - want) <= 1e-10
        assert np.max(np.abs(got[1] - e.grad)) <= 1e-10
        assert np.max(np.abs(got[2] - c.transition.grad)) <= 1e-10
        c.transition.zero_grad()
        score = crf_mod.score_sequence(c, e, labels, m, lengths).item()
        want_score = sum(crf_mod.score_sequence(c, Tensor(e.data[a:a + n]),
                                                labels[a:a + n], m).item()
                         for a, n in zip(np.cumsum([0] + lengths), lengths))
        assert abs(score - want_score) <= 1e-10


def test_labels_that_are_not_integers_are_rejected():
    """A fractional, boolean or numeric-string label is refused by every
    call that reads labels, never truncated or parsed; numpy integers pass."""
    rng = np.random.default_rng(53)
    c = random_crf(rng, 3)
    e = random_emissions(rng, 2, 3)
    for labels in ([0, 1.7], [True, 2], [0, np.float64(2.9)], [0, "1"],
                   np.array([0.0, 1.0]), np.array([False, True])):
        for f in (crf_mod.score_sequence, crf_mod.crf_nll, crf_mod.log_prob):
            with pytest.raises(UsageError):
                f(c, e, labels)
    want = crf_mod.score_sequence(c, e, [0, 2]).item()
    for labels in ([np.int64(0), 2], np.array([0, 2]), np.array([0, 2], dtype=np.uint8)):
        assert crf_mod.score_sequence(c, e, labels).item() == want


@pytest.mark.parametrize("lengths", [[], [2, 0, 3], [2, 2], [3, 3], [-1, 6],
                                     [2.5, 2.5], [True, 4], ["2", "3"]])
def test_packed_calls_reject_lengths_that_do_not_split_the_rows(lengths):
    rng = np.random.default_rng(60)
    c = random_crf(rng, 2)
    e = random_emissions(rng, 5, 2)
    with pytest.raises(UsageError):
        crf_mod.log_partition(c, e, lengths=lengths)
    with pytest.raises(UsageError):
        crf_mod.score_sequence(c, e, [0] * 5, lengths=lengths)
    with pytest.raises(UsageError, match="sequence lengths"):
        crf_mod.viterbi_decode(c, e, lengths=lengths)


def test_a_mask_of_the_wrong_shape_is_rejected_everywhere():
    rng = np.random.default_rng(67)
    c = random_crf(rng, 3)
    e = random_emissions(rng, 2, 3)
    for mask in (np.zeros(4), np.zeros((5, 5)), np.zeros((3, 3)), np.zeros((4, 5))):
        with pytest.raises(ShapeError):
            crf_mod.viterbi_decode(c, e, mask)
        with pytest.raises(ShapeError):
            crf_mod.score_sequence(c, e, [0, 1], mask)
        with pytest.raises(ShapeError):
            crf_mod.log_partition(c, e, mask)


def test_path_probabilities_sum_to_one():
    rng = np.random.default_rng(55)
    for _ in range(10):
        T = int(rng.integers(2, 4))
        n = int(rng.integers(1, 5))
        c = random_crf(rng, T)
        e = random_emissions(rng, n, T)
        total = 0.0
        for labels in itertools.product(range(T), repeat=n):
            total += math.exp(float(crf_mod.log_prob(c, e, list(labels)).data))
        assert abs(total - 1.0) <= 1e-9


def test_log_prob_is_never_positive():
    rng = np.random.default_rng(56)
    for _ in range(20):
        T = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        c = random_crf(rng, T, scale=2.0)
        e = random_emissions(rng, n, T, scale=2.0)
        labels = [int(x) for x in rng.integers(0, T, size=n)]
        assert float(crf_mod.log_prob(c, e, labels).data) <= 1e-12


def test_log_prob_invariant_to_per_position_emission_shift():
    rng = np.random.default_rng(57)
    c = random_crf(rng, 3)
    e = random_emissions(rng, 5, 3)
    labels = [0, 2, 1, 1, 0]
    base = float(crf_mod.log_prob(c, e, labels).data)
    shifted = e.data.copy()
    shifted[2, :] += 7.5  # same constant added to every tag at one position
    after = float(crf_mod.log_prob(c, Tensor(shifted), labels).data)
    assert abs(base - after) <= 1e-10


# ---------------------------------------------------------------------------
# decoding


def test_viterbi_matches_brute_force():
    rng = np.random.default_rng(58)
    for _ in range(100):
        T = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        c = random_crf(rng, T)
        e = random_emissions(rng, n, T)
        got = crf_mod.viterbi_decode(c, e)
        want, want_score = crf_brute_argmax(e.data, c.transition.data)
        assert got == want
        assert abs(float(crf_mod.score_sequence(c, e, got).data) - want_score) <= 1e-10


def test_viterbi_all_zero_ties_choose_lowest_tag():
    c = CRFParams.init(3, np.random.default_rng(0))
    c.transition.data[...] = 0.0
    e = Tensor(np.zeros((4, 3)))
    assert crf_mod.viterbi_decode(c, e) == [0, 0, 0, 0]


def _decode_each(c, e, mask, lengths):
    """The labelings of the sequences packed in e, one decode call each."""
    path = []
    for start, n in zip(np.cumsum([0] + lengths), lengths):
        path += crf_mod.viterbi_decode(c, Tensor(e.data[start:start + n]), mask)
    return path


def test_packed_viterbi_equals_one_decode_per_sequence():
    """One packed call gives every sequence the labeling a call on it alone
    gives, masked or not, at every tag count down to one."""
    rng = np.random.default_rng(61)
    tags = ["O", "B-X", "I-X", "B-Y", "I-Y"]
    for trial in range(200):
        T = int(rng.integers(1, 6))
        c = random_crf(rng, T, scale=float(rng.choice([0.1, 1.0, 5.0])))
        lengths = rng.integers(1, 14, size=int(rng.integers(1, 9))).tolist()
        e = random_emissions(rng, sum(lengths), T, scale=2.0)
        for mask in (None, crf_mod.illegal_mask(tags[:T])):
            got = crf_mod.viterbi_decode(c, e, mask, lengths)
            assert got == _decode_each(c, e, mask, lengths), (trial, lengths)
            assert len(got) == sum(lengths) and all(0 <= j < T for j in got)


def test_packed_viterbi_breaks_exact_ties_toward_the_lowest_tag():
    """With every score tied, each sequence of a packed call decodes to tag
    0 throughout; with scores drawn from {0, 1}, where ties are common,
    each packed labeling is the one-sequence labeling and scores the
    brute-force maximum."""
    c = CRFParams(Tensor(np.zeros((4, 4))))
    assert crf_mod.viterbi_decode(c, Tensor(np.zeros((9, 3))), None, [4, 1, 3, 1]) == [0] * 9
    rng = np.random.default_rng(62)
    for _ in range(100):
        T = int(rng.integers(1, 4))
        c = CRFParams(Tensor(rng.integers(0, 2, size=(T + 1, T + 1)).astype(float)))
        lengths = rng.integers(1, 5, size=int(rng.integers(1, 5))).tolist()
        e = Tensor(rng.integers(0, 2, size=(sum(lengths), T)).astype(float))
        got = crf_mod.viterbi_decode(c, e, None, lengths)
        assert got == _decode_each(c, e, None, lengths)
        for start, n in zip(np.cumsum([0] + lengths), lengths):
            rows = e.data[start:start + n]
            best = crf_brute_argmax(rows, c.transition.data)[1]
            assert crf_path_score(rows, c.transition.data, got[start:start + n]) == best


def test_packed_viterbi_matches_brute_force_on_small_batches():
    rng = np.random.default_rng(63)
    for _ in range(60):
        T = int(rng.integers(1, 4))
        c = random_crf(rng, T)
        lengths = rng.integers(1, 6, size=int(rng.integers(1, 5))).tolist()
        e = random_emissions(rng, sum(lengths), T)
        got = crf_mod.viterbi_decode(c, e, None, lengths)
        for start, n in zip(np.cumsum([0] + lengths), lengths):
            want, _ = crf_brute_argmax(e.data[start:start + n], c.transition.data)
            assert got[start:start + n] == want


def test_viterbi_follows_transition_structure():
    # emissions prefer tag 1 everywhere, transitions forbid 1 -> 1
    c = CRFParams.init(2, np.random.default_rng(0))
    c.transition.data[...] = 0.0
    c.transition.data[1, 1] = -100.0
    e = Tensor(np.tile([0.0, 1.0], (4, 1)))
    path = crf_mod.viterbi_decode(c, e)
    assert all(not (a == 1 and b == 1) for a, b in zip(path, path[1:]))


# ---------------------------------------------------------------------------
# illegal-transition masking


TAGS = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]


def test_illegal_mask_structure():
    m = crf_mod.illegal_mask(TAGS)
    T = len(TAGS)
    assert m.shape == (T + 1, T + 1)
    i_per, i_loc = TAGS.index("I-PER"), TAGS.index("I-LOC")
    assert m[T, i_per] == -np.inf            # BOS -> I-PER
    assert m[TAGS.index("O"), i_per] == -np.inf
    assert m[TAGS.index("B-LOC"), i_per] == -np.inf
    assert m[TAGS.index("B-PER"), i_per] == 0.0
    assert m[i_per, i_per] == 0.0
    assert m[TAGS.index("B-PER"), i_loc] == -np.inf
    assert np.all(m[:, T] == 0.0)            # anything may end the sentence
    assert np.all(m[:, TAGS.index("O")] == 0.0)
    assert np.all(m[:, TAGS.index("B-PER")] == 0.0)


def test_illegal_mask_forbids_exactly_the_pairs_strict_validation_rejects():
    """Cell (i, j) is -inf exactly when validate_bio2 rejects a sentence
    that reaches tag i legally and then takes tag j; the BOS row's sentence
    is tag j alone.  The mask is bitwise the oracle's table."""
    tags = TAGS + ["B-ORG", "I-ORG"]
    mask = crf_mod.illegal_mask(tags)
    assert np.array_equal(mask, bio2_table(tags))
    lead_ins = [["B-" + t[2:], t] if t.startswith("I-") else [t] for t in tags] + [[]]
    for i, lead_in in enumerate(lead_ins):
        for j, tag in enumerate(tags):
            sentence = LabeledSentence(tuple(Token(f"w{k}", t)
                                             for k, t in enumerate(lead_in + [tag])))
            try:
                validate_bio2(sentence, "strict")
                rejected = False
            except ValidationError:
                rejected = True
            assert (mask[i, j] == -np.inf) == rejected, (lead_in, tag)
    assert np.all(mask[:, len(tags)] == 0.0)


def masked_enumeration(e, trans, mask):
    full = trans + mask
    out = [(labels, crf_path_score(e, full, labels))
           for labels, _ in crf_enumerate(e, trans)]
    return [(l, s) for l, s in out if s != -np.inf]


def test_log_partition_with_mask_matches_masked_enumeration():
    rng = np.random.default_rng(59)
    mask = crf_mod.illegal_mask(TAGS)
    for _ in range(10):
        c = random_crf(rng, len(TAGS))
        e = random_emissions(rng, 4, len(TAGS))
        legal = masked_enumeration(e.data, c.transition.data, mask)
        scores = np.array([s for _, s in legal])
        want = scores.max() + math.log(np.exp(scores - scores.max()).sum())
        got = float(crf_mod.log_partition(c, e, mask=mask).data)
        assert abs(got - want) <= 1e-10


def test_viterbi_with_mask_outputs_only_legal_paths():
    rng = np.random.default_rng(60)
    mask = crf_mod.illegal_mask(TAGS)
    for _ in range(20):
        c = random_crf(rng, len(TAGS), scale=2.0)
        e = random_emissions(rng, 5, len(TAGS), scale=3.0)
        path = crf_mod.viterbi_decode(c, e, mask=mask)
        legal = masked_enumeration(e.data, c.transition.data, mask)
        best = max(legal, key=lambda ls: ls[1])
        assert path == list(best[0])
        prev = "BOS"
        for tag in (TAGS[i] for i in path):
            if tag.startswith("I-"):
                assert prev in (f"B-{tag[2:]}", f"I-{tag[2:]}")
            prev = tag


def test_score_sequence_with_mask_penalizes_illegal_labelings():
    rng = np.random.default_rng(61)
    mask = crf_mod.illegal_mask(TAGS)
    c = random_crf(rng, len(TAGS))
    e = random_emissions(rng, 3, len(TAGS))
    legal = [TAGS.index(t) for t in ("B-PER", "I-PER", "O")]
    illegal = [TAGS.index(t) for t in ("O", "I-PER", "O")]
    unmasked = float(crf_mod.score_sequence(c, e, legal).data)
    masked = float(crf_mod.score_sequence(c, e, legal, mask=mask).data)
    assert abs(unmasked - masked) <= 1e-12
    assert float(crf_mod.score_sequence(c, e, illegal, mask=mask).data) == -np.inf


# ---------------------------------------------------------------------------
# gradients


def test_crf_nll_gradients_match_finite_differences():
    rng = np.random.default_rng(62)
    T, n = 3, 4
    labels = [0, 2, 1, 0]
    trans0 = rng.normal(size=(T + 1, T + 1))
    e0 = rng.normal(size=(n, T))

    def build(trans_a, e_a):
        c = CRFParams.init(T, np.random.default_rng(0))
        c.transition.data[...] = trans_a
        e = Tensor(e_a, requires_grad=True)
        return c, e, crf_mod.crf_nll(c, e, labels)

    c, e, loss = build(trans0, e0)
    ad.backward(loss)
    numeric = finite_diff(lambda ta, ea: build(ta, ea)[2].data, [trans0, e0])
    assert max_rel_error(c.transition.grad, numeric[0]) <= 1e-6
    assert max_rel_error(e.grad, numeric[1]) <= 1e-6


def test_log_partition_emission_gradients_are_marginals():
    rng = np.random.default_rng(63)
    c = random_crf(rng, 3)
    e = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    ad.backward(crf_mod.log_partition(c, e))
    marg = e.grad
    assert np.all(marg >= -1e-12) and np.all(marg <= 1.0 + 1e-12)
    assert np.max(np.abs(marg.sum(axis=1) - 1.0)) <= 1e-10


def test_crf_nll_gradient_with_mask_keeps_masked_cells_silent():
    rng = np.random.default_rng(64)
    mask = crf_mod.illegal_mask(TAGS)
    c = random_crf(rng, len(TAGS))
    e = Tensor(rng.normal(size=(3, len(TAGS))), requires_grad=True)
    labels = [TAGS.index(t) for t in ("B-PER", "I-PER", "O")]
    loss = crf_mod.crf_nll(c, e, labels, mask=mask)
    ad.backward(loss)
    g = c.transition.grad
    assert np.isfinite(float(loss.data))
    assert np.all(np.isfinite(g))
    assert np.all(g[mask == -np.inf] == 0.0)


# ---------------------------------------------------------------------------
# softmax head


def linear_nll(e, labels):
    """The linear head's loss: crf_nll over zero transitions, each row its
    own one-row sequence, unmasked."""
    return crf_mod.crf_nll(zero_crf(e.shape[1]), e, labels, None, [1] * len(labels))


def test_linear_nll_matches_numpy_cross_entropy():
    rng = np.random.default_rng(65)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        T = int(rng.integers(2, 5))
        e = rng.normal(scale=2.0, size=(n, T))
        labels = [int(x) for x in rng.integers(0, T, size=n)]
        got = float(linear_nll(Tensor(e), labels).data)
        m = e.max(axis=1, keepdims=True)
        logits = e - m
        lse = np.log(np.exp(logits).sum(axis=1)) + m[:, 0]
        want = float(np.sum(lse - e[np.arange(n), labels]))
        assert abs(got - want) <= 1e-10


def test_linear_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(66)
    e0 = rng.normal(size=(3, 4))
    labels = [1, 3, 0]

    def build(ea):
        e = Tensor(ea, requires_grad=True)
        return e, linear_nll(e, labels)

    e, loss = build(e0)
    ad.backward(loss)
    numeric = finite_diff(lambda ea: build(ea)[1].data, [e0])
    assert max_rel_error(e.grad, numeric[0]) <= 1e-6


def test_linear_nll_is_bitwise_the_softmax_cross_entropy():
    rng = np.random.default_rng(67)
    for _ in range(300):
        n, T = int(rng.integers(1, 10)), int(rng.integers(1, 8))
        scale = float(rng.choice([0.1, 1.0, 10.0]))
        e0 = rng.normal(scale=scale, size=(n, T))
        labels = [int(x) for x in rng.integers(0, T, size=n)]
        got, want = Tensor(e0.copy(), requires_grad=True), Tensor(e0.copy(), requires_grad=True)
        loss, ref = linear_nll(got, labels), softmax_nll(want, labels)
        assert loss.item() == ref.item()
        ad.backward(loss)
        ad.backward(ref)
        assert np.max(np.abs(got.grad - want.grad)) <= 1e-12


def zero_crf(num_tags):
    """The transition table a linear head decodes with: all zeros, constant."""
    return CRFParams(Tensor(np.zeros((num_tags + 1, num_tags + 1))))


def random_bio2_tags(rng):
    """O and a random subset of B-/I- tags of three types, shuffled."""
    tags = ["O"] + [f"{p}-{k}" for k in "XYZ" for p in "BI" if rng.random() < 0.6]
    return [tags[i] for i in rng.permutation(len(tags))]


def test_linear_decode_argmax_and_tie_to_lowest():
    e = Tensor(np.array([[0.1, 0.9, 0.3],
                         [2.0, 2.0, 1.0],
                         [-1.0, -2.0, -0.5]]))
    assert crf_mod.viterbi_decode(zero_crf(3), e) == [1, 0, 2]
    with pytest.raises(ShapeError):
        crf_mod.viterbi_decode(zero_crf(3), Tensor(np.zeros(3)))


def test_linear_decode_is_per_token_argmax_on_random_emissions():
    rng = np.random.default_rng(73)
    for _ in range(200):
        n, T = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        e = Tensor(rng.normal(scale=float(rng.choice([0.1, 1.0, 100.0])), size=(n, T)))
        assert crf_mod.viterbi_decode(zero_crf(T), e) == list(np.argmax(e.data, axis=1))
    # exact ties, many of them: integer-valued emissions
    for _ in range(100):
        e = Tensor(rng.integers(-2, 3, size=(int(rng.integers(1, 8)), 4)).astype(float))
        assert crf_mod.viterbi_decode(zero_crf(4), e) == list(np.argmax(e.data, axis=1))


def test_linear_nll_validation():
    def nll(e, labels):
        return crf_mod.crf_nll(zero_crf(3), Tensor(e), labels, None, [1] * len(labels))

    with pytest.raises(ShapeError):
        nll(np.zeros(3), [0])
    with pytest.raises(UsageError):
        nll(np.zeros((2, 3)), [0, 3])
    with pytest.raises(ShapeError):
        nll(np.zeros((2, 3)), [0])
    with pytest.raises(ShapeError):
        nll(np.float64(1.0), [0])
    with pytest.raises(UsageError):
        nll(np.zeros((0, 3)), [])


def test_constrained_decode_matches_linear_decode_under_a_free_mask():
    rng = np.random.default_rng(71)
    e = Tensor(rng.normal(size=(6, 5)))
    free = np.zeros((6, 6))
    assert (crf_mod.viterbi_decode(zero_crf(5), e, free)
            == crf_mod.viterbi_decode(zero_crf(5), e))


def test_constrained_decode_skips_forbidden_start():
    tags = ["O", "B-PER", "I-PER"]
    mask = crf_mod.illegal_mask(tags)
    # the raw argmax would open with I-PER, which nothing precedes
    e = Tensor(np.array([[0.0, 1.0, 5.0],
                         [0.0, 0.0, 4.0]]))
    path = crf_mod.viterbi_decode(zero_crf(3), e, mask)
    assert path[0] in (0, 1)
    assert path == [1, 2]  # B-PER is the runner-up, then I-PER is legal


def test_constrained_decode_walks_only_legal_bigrams():
    tags = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
    mask = crf_mod.illegal_mask(tags)
    rng = np.random.default_rng(72)
    for _ in range(50):
        e = Tensor(rng.normal(size=(rng.integers(1, 8), 5)))
        path = crf_mod.viterbi_decode(zero_crf(5), e, mask)
        prev = 5
        for idx in path:
            assert mask[prev, idx] == 0.0
            prev = idx


def test_constrained_decode_finds_the_best_legal_path_not_a_greedy_one():
    # greedy left-to-right decoding takes O (1.0 > 0.9) and then cannot
    # enter I-X, scoring 1.0; the best legal path is B-X I-X at 10.9
    mask = crf_mod.illegal_mask(["O", "B-X", "I-X"])
    e = Tensor(np.array([[1.0, 0.9, -5.0],
                         [0.0, -5.0, 10.0]]))
    assert crf_mod.viterbi_decode(zero_crf(3), e, mask) == [1, 2]


def test_constrained_decode_matches_brute_force_on_random_bio2_tag_sets():
    rng = np.random.default_rng(74)
    for _ in range(150):
        tags = random_bio2_tags(rng)
        T, n = len(tags), int(rng.integers(1, 5))
        mask = crf_mod.illegal_mask(tags)
        e = Tensor(rng.normal(scale=3.0, size=(n, T)))
        got = crf_mod.viterbi_decode(zero_crf(T), e, mask)
        want, want_score = crf_brute_argmax(e.data, np.zeros((T + 1, T + 1)) + mask)
        assert got == want
        assert np.isfinite(want_score)
        assert abs(crf_path_score(e.data, mask, got) - want_score) <= 1e-12
