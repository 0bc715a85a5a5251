import math
import pathlib
import unicodedata

import numpy as np
import pytest

from seqtag import subword as sw
from seqtag.errors import (AlignmentError, ConfigError, ParseError, UsageError,
                           ValidationError)
from seqtag.subword import (UnigramVocab, decode, load_vocab, save_vocab,
                            segment, train_unigram, vocab_from_text, vocab_to_text)
from seqtag.synth import generate_corpus

from oracles import (PAD, align_labels, all_segmentations, best_segmentation,
                     cheapest_per_piece, project_predictions, segment_rescanning,
                     segmentation_score_rescanning, unigram_expected_counts)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def make_vocab(items):
    """Vocab from {piece: weight}; weights normalized to probabilities."""
    total = sum(items.values())
    return UnigramVocab({p: math.log(w / total) for p, w in items.items()})


# ---------------------------------------------------------------------------
# training


POOL = ["a", "b", "c", "ab", "bc", "ca", "abc", "bca", "aa", "cab", "abca"]


def _random_inventories():
    """40 small corpora over POOL's alphabet, {word: count}, each with random
    log-probabilities for POOL and some multi-character pieces pruned to
    -inf; yields (words, lp, pruned ids)."""
    for trial in range(40):
        rng = np.random.default_rng(200 + trial)
        lp = np.log(rng.random(len(POOL)) + 0.05)
        pruned = [k for k in range(3, len(POOL)) if rng.random() < 0.3]
        lp[pruned] = -math.inf
        words = {}
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(1, 8))
            words["".join("abc"[i] for i in rng.integers(0, 3, size=n))] = int(rng.integers(1, 5))
        yield words, lp, pruned


def _seed_inventory_with_a_fifth_pruned():
    """The seed inventory train_unigram starts from on generate_corpus(200,
    seed=0) at 200 pieces, a fifth of its pieces (all multi-character)
    pruned to -inf; (words, pieces, lp)."""
    words = sw._word_counts([" ".join(s.surfaces) for s in generate_corpus(200, seed=0)])
    seed = sw._seed_pieces(words, 200, 10)
    pieces, lp = list(seed), np.array(list(seed.values()))
    multi = [k for k, p in enumerate(pieces) if len(p) > 1]
    lp[np.random.default_rng(34).choice(multi, size=len(pieces) // 5, replace=False)] = -math.inf
    return words, pieces, lp


def test_lattice_expected_counts_equal_enumeration():
    """On random small inventories, some pieces pruned to -inf, the array EM
    gives every piece the posterior count that weighting every segmentation
    of every word by its probability gives."""
    for words, lp, pruned in _random_inventories():
        alive = {p: float(v) for p, v in zip(POOL, lp) if v > -math.inf}
        lattice = sw._Lattice(words, POOL, max(map(len, POOL)))
        got = lattice.expected_counts(lp)
        want = np.zeros(len(POOL))
        for word, count in words.items():
            segs = list(all_segmentations(word, alive))
            log_z = np.logaddexp.reduce([score for _, score in segs])
            for pieces, score in segs:
                for piece in pieces:
                    want[POOL.index(piece)] += count * math.exp(score - log_z)
        assert np.all(got[pruned] == 0.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_lattice_expected_counts_are_bitwise_the_scalar_recursion():
    """The level-scheduled passes give bitwise the counts of a per-word
    scalar recursion, on the random inventories and on a realistic seed
    inventory with a fifth of its pieces pruned."""
    cases = [(words, POOL, lp) for words, lp, _ in _random_inventories()]
    cases.append(_seed_inventory_with_a_fifth_pruned())
    for words, pieces, lp in cases:
        max_len = max(map(len, pieces))
        got = sw._Lattice(words, pieces, max_len).expected_counts(lp)
        assert np.array_equal(got, unigram_expected_counts(words, pieces, lp, max_len))


def _pruned_inventories():
    """The seed inventory with a fifth pruned, and 30 random corpora over
    "abcd" with random inventories of pieces of up to five letters, every
    letter kept and about a third of the longer pieces pruned; yields
    (words, pieces, lp)."""
    yield _seed_inventory_with_a_fifth_pruned()
    for trial in range(30):
        rng = np.random.default_rng(500 + trial)
        letters = lambda lo, hi: "".join(  # noqa: E731
            "abcd"[i] for i in rng.integers(0, 4, size=int(rng.integers(lo, hi))))
        pieces = sorted({letters(2, 6) for _ in range(int(rng.integers(1, 25)))} | set("abcd"))
        lp = np.log(rng.random(len(pieces)) + 0.05)
        lp[[k for k, p in enumerate(pieces) if len(p) > 1 and rng.random() < 0.3]] = -math.inf
        words = {letters(1, 9): int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 12)))}
        yield words, pieces, lp


def test_split_scores_are_bitwise_the_viterbi_score_of_each_piece():
    """The max-plus pass gives each alive multi-character piece bitwise the
    score _viterbi_word finds for it over the other alive pieces."""
    for _, pieces, lp in _pruned_inventories():
        max_len = max(map(len, pieces))
        splits = sw._Splits(pieces, max_len)
        got = splits.best(lp)
        live = {p: float(v) for p, v in zip(pieces, lp) if v > -math.inf}
        checked = 0
        for k, score in zip(splits.ids.tolist(), got.tolist()):
            if lp[k] == -math.inf:
                continue
            others = {p: v for p, v in live.items() if p != pieces[k]}
            assert score == sw._viterbi_word(pieces[k], others, max_len)[1], pieces[k]
            checked += 1
        assert checked == sum(len(p) > 1 for p in live)


def test_cheapest_drops_the_ids_the_per_piece_search_drops():
    """Pruning scored by the max-plus pass drops the ids that one Viterbi
    search per piece picks, at several caps on how many may go."""
    for words, pieces, lp in _pruned_inventories():
        max_len = max(map(len, pieces))
        usage = unigram_expected_counts(words, pieces, lp, max_len)
        lattice, splits = sw._Lattice(words, pieces, max_len), sw._Splits(pieces, max_len)
        for most in (1, 3, len(pieces)):
            want = cheapest_per_piece(usage, lp, pieces, max_len, most, sw._PRUNE_FRACTION)
            assert sw._cheapest(lattice, splits, lp, pieces, most) == want


def test_lattice_names_a_word_the_inventory_cannot_cover():
    pool = ["a", "b", "ab"]
    lattice = sw._Lattice({"ab": 2, "ba": 1}, pool, 2)
    lp = np.log(np.array([0.5, 0.25, 0.25]))
    lp[1] = -math.inf  # "ab" is still covered by its own piece, "ba" is not
    with pytest.raises(UsageError, match="'ba'"):
        lattice.expected_counts(lp)


def test_train_reproduces_the_pinned_inventory():
    """The inventory of test 7's corpus, pinned by
    tests/fixtures/make_unigram_fixture.py: the same pieces in the same
    order, with log-probabilities equal up to a libm's last bit."""
    pinned = [line.split("\t") for line in
              (FIXTURES / "unigram_gen2000_v200.tsv").read_text(encoding="utf-8").splitlines()]
    corpus = generate_corpus(2000, seed=0)
    v = train_unigram([" ".join(s.surfaces) for s in corpus], 200, seed=0)
    assert list(v.pieces) == [piece for piece, _ in pinned]
    for piece, lp in pinned:
        assert abs(v.pieces[piece] - float(lp)) <= 1e-12, piece


def test_train_two_symbol_corpus_promotes_multichar_piece():
    v = train_unigram("ababab", vocab_size=3, seed=0)
    assert len(v) == 3
    assert "a" in v.pieces and "b" in v.pieces
    (multi,) = [p for p in v.pieces if len(p) > 1]
    assert set(multi) <= {"a", "b"}
    # the learned multi-char piece absorbs nearly all probability mass
    assert math.exp(v.logprob(multi)) > 0.9
    assert math.exp(v.logprob(multi)) > math.exp(v.logprob("a"))
    total = sum(math.exp(lp) for lp in v.pieces.values())
    assert abs(total - 1.0) <= 1e-9


def test_train_vocab_size_equal_alphabet_gives_character_tokenizer():
    v = train_unigram("abc cab bca", vocab_size=3, seed=0)
    assert sorted(v.pieces) == ["a", "b", "c"]
    assert segment(v, "cab") == [sw.MARKER + "c", "a", "b"]


def test_train_vocab_size_below_alphabet_rejected():
    with pytest.raises(ConfigError):
        train_unigram("abcdef", vocab_size=3)
    with pytest.raises(UsageError):
        train_unigram("   \n  ", vocab_size=5)


@pytest.mark.parametrize("max_piece_len", [0, -2, 1.5, True])
def test_train_rejects_a_max_piece_len_that_is_no_positive_integer(max_piece_len):
    with pytest.raises(ConfigError, match="max_piece_len"):
        train_unigram("abc cab bca", vocab_size=5, max_piece_len=max_piece_len)


def test_train_is_deterministic():
    corpus = "evler evlerde evde kedi kediler kedilere sular sulara"
    a = train_unigram(corpus, vocab_size=15, seed=1)
    b = train_unigram(corpus, vocab_size=15, seed=1)
    assert a.pieces == b.pieces
    assert list(a.pieces) == list(b.pieces)


def test_train_covers_every_observed_character():
    rng = np.random.default_rng(80)
    alphabet = "abcdefg"
    words = ["".join(alphabet[i] for i in rng.integers(0, 7, size=rng.integers(1, 9)))
             for _ in range(30)]
    corpus = " ".join(words)
    v = train_unigram(corpus, vocab_size=12, seed=0)
    observed = set("".join(words))
    assert observed <= set(v.pieces)
    assert len(v) <= 12


def test_trained_probabilities_are_normalized():
    for size in (9, 12, 16):
        v = train_unigram("paris parte partizan pazar pazartesi", size, seed=0)
        total = sum(math.exp(lp) for lp in v.pieces.values())
        assert abs(total - 1.0) <= 1e-9
        assert len(v) <= size


def test_frequent_word_becomes_single_piece():
    corpus = ("istanbul " * 50) + "is tan bul dag"
    v = train_unigram(corpus, vocab_size=12, seed=0)
    assert "istanbul" in v.pieces
    assert segment(v, "istanbul") == [sw.MARKER + "istanbul"]


# ---------------------------------------------------------------------------
# segmentation


def test_segment_dominant_whole_word_piece_wins():
    v = make_vocab({"kedi": 100, "k": 1, "e": 1, "d": 1, "i": 1})
    assert segment(v, "kedi") == [sw.MARKER + "kedi"]


def test_segment_round_trip_random_text():
    rng = np.random.default_rng(81)
    v = make_vocab({"a": 4, "b": 3, "c": 2, "ab": 5, "bc": 4, "abc": 6})
    letters = "abcq"  # q is not in the inventory
    for _ in range(100):
        words = []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 8))
            words.append("".join(letters[i] for i in rng.integers(0, 4, size=n)))
        text = "  ".join(words)
        pieces = segment(v, text)
        assert decode(v, pieces) == " ".join(text.split())


def test_segment_matches_enumeration_on_small_vocabs():
    rng = np.random.default_rng(82)
    for _ in range(50):
        alphabet = "abc"
        # random inventory of at most 8 pieces, singles always present
        candidates = ["ab", "bc", "ca", "abc", "bca", "aa", "bb", "cab", "abca"]
        chosen = [c for c in candidates if rng.random() < 0.5][:5]
        weights = {ch: float(rng.integers(1, 10)) for ch in alphabet}
        for c in chosen:
            weights[c] = float(rng.integers(1, 20))
        v = make_vocab(weights)
        assert len(v) <= 8
        word = "".join(alphabet[i] for i in rng.integers(0, 3, size=rng.integers(1, 9)))
        pieces = segment(v, word)
        stripped = [p[len(sw.MARKER):] if p.startswith(sw.MARKER) else p
                    for p in pieces]
        got = sum(v.logprob(p) for p in stripped)
        _, want = best_segmentation(word, v.pieces)
        assert abs(got - want) <= 1e-12


def test_segment_and_score_equal_the_rescanning_oracle():
    """The unknown-character score and the longest piece length are computed
    once per vocabulary; segmenting and scoring must give what recomputing
    them on every call gives, for words with characters outside the
    inventory too."""
    rng = np.random.default_rng(84)
    letters = "abcdeqxy"  # q, x and y are never in the inventory
    for _ in range(40):
        pieces = {ch: float(rng.integers(1, 10)) for ch in "abcde"}
        for _ in range(int(rng.integers(0, 8))):
            n = int(rng.integers(2, 7))
            pieces["".join("abcde"[i] for i in rng.integers(0, 5, size=n))] = float(
                rng.integers(1, 30))
        v = make_vocab(pieces)
        assert v.max_piece_len == max(len(p) for p in v.pieces)
        for _ in range(10):
            words = ["".join(letters[i] for i in rng.integers(0, 8, size=rng.integers(1, 12)))
                     for _ in range(int(rng.integers(1, 4)))]
            text = " ".join(words)
            got = segment(v, text)
            assert got == segment_rescanning(v, text)
            for word in words:  # the lattice's best score, with the cached unknown score
                score = sw._viterbi_word(word, v.pieces, v.max_piece_len, v.unk_logprob)[1]
                assert score == segmentation_score_rescanning(v, segment(v, word))


def test_segment_marks_exactly_word_initial_pieces():
    v = make_vocab({"an": 3, "kara": 3, "a": 1, "n": 1, "k": 1, "r": 1})
    pieces = segment(v, "ankara kara")
    marked = [p for p in pieces if p.startswith(sw.MARKER)]
    assert len(marked) == 2
    assert pieces[0].startswith(sw.MARKER)


def test_segment_unknown_characters_become_single_pieces():
    v = make_vocab({"ab": 2, "a": 1, "b": 1})
    pieces = segment(v, "aqb")
    stripped = [p.replace(sw.MARKER, "") for p in pieces]
    assert "q" in stripped
    assert "".join(stripped) == "aqb"
    assert decode(v, pieces) == "aqb"


def test_segment_empty_text():
    v = make_vocab({"a": 1})
    assert segment(v, "") == []
    assert segment(v, "   ") == []
    assert decode(v, []) == ""


def test_decode_rejects_unanchored_pieces():
    v = make_vocab({"a": 1})
    with pytest.raises(AlignmentError):
        decode(v, ["a"])


# ---------------------------------------------------------------------------
# label alignment


def test_align_first_piece_takes_tag_rest_pad():
    pieces = [sw.MARKER + "Melih", "a", sw.MARKER + "geldi"]
    out = align_labels(["Meliha", "geldi"], ["B-PERSON", "O"], pieces)
    assert out.labels == ["B-PERSON", PAD, "O"]
    assert out.word_index == [0, 0, 1]
    assert out.is_word_initial == [True, False, True]


def test_align_single_piece_words_copy_tags():
    pieces = [sw.MARKER + "ev", sw.MARKER + "su"]
    out = align_labels(["ev", "su"], ["O", "B-LOC"], pieces)
    assert out.labels == ["O", "B-LOC"]
    assert all(out.is_word_initial)


def test_align_pad_count_is_piece_count_minus_word_count():
    rng = np.random.default_rng(83)
    v = make_vocab({"a": 3, "b": 3, "ab": 4, "ba": 2, "aab": 5})
    for _ in range(50):
        words = ["".join("ab"[i] for i in rng.integers(0, 2, size=rng.integers(1, 7)))
                 for _ in range(int(rng.integers(1, 5)))]
        tags = [f"B-T{k}" for k in range(len(words))]
        pieces = segment(v, " ".join(words))
        out = align_labels(words, tags, pieces)
        assert out.labels.count(PAD) == len(pieces) - len(words)
        # exactly one word-initial piece per word
        for w in range(len(words)):
            initials = [out.is_word_initial[k] for k in range(len(pieces))
                        if out.word_index[k] == w]
            assert initials.count(True) == 1


def test_align_rejects_partition_mismatches():
    words, tags = ["ab"], ["O"]
    with pytest.raises(AlignmentError):
        align_labels(words, tags, ["ab"])  # missing marker on first piece
    with pytest.raises(AlignmentError):
        align_labels(words, tags, [sw.MARKER + "ax"])  # wrong text
    with pytest.raises(AlignmentError):
        align_labels(words, tags, [sw.MARKER + "a"])  # word incomplete
    with pytest.raises(AlignmentError):
        align_labels(words, tags, [sw.MARKER + "ab", sw.MARKER + "c"])  # extra word
    with pytest.raises(AlignmentError):
        align_labels(words, ["O", "O"], [sw.MARKER + "ab"])  # tag count
    with pytest.raises(AlignmentError):
        align_labels(["ab", "c"], ["O", "O"], [sw.MARKER + "ab"])  # word missing
    with pytest.raises(AlignmentError):
        align_labels(words, tags, [sw.MARKER + "ab", sw.MARKER])  # empty piece


def test_project_takes_initial_piece_predictions():
    pieces = [sw.MARKER + "Melih", "a", sw.MARKER + "geldi"]
    aligned = align_labels(["Meliha", "geldi"], ["B-PERSON", "O"], pieces)
    assert project_predictions(aligned, ["B-PER", "I-ORG", "O"]) == ["B-PER", "O"]
    with pytest.raises(AlignmentError):
        project_predictions(aligned, ["O"])


def test_align_then_project_is_identity_on_word_tags():
    rng = np.random.default_rng(84)
    v = make_vocab({"a": 3, "b": 3, "c": 2, "ab": 4, "bc": 3, "abc": 5})
    tag_pool = ["O", "B-PER", "I-PER", "B-LOC"]
    for _ in range(50):
        words = ["".join("abc"[i] for i in rng.integers(0, 3, size=rng.integers(1, 7)))
                 for _ in range(int(rng.integers(1, 6)))]
        tags = [tag_pool[i] for i in rng.integers(0, len(tag_pool), size=len(words))]
        pieces = segment(v, " ".join(words))
        aligned = align_labels(words, tags, pieces)
        filled = [lab if lab is not PAD else "O" for lab in aligned.labels]
        # project from the aligned gold labels themselves
        assert project_predictions(aligned, filled) == tags


# ---------------------------------------------------------------------------
# the segmentation memo

CORPUS = "evler evlerde evde kedi kediler"


def _searched_words(monkeypatch):
    """The words segment passes to _viterbi_word from now on, in order."""
    searched = []
    search = sw._viterbi_word

    def counting(word, *args, **kwargs):
        searched.append(word)
        return search(word, *args, **kwargs)

    monkeypatch.setattr(sw, "_viterbi_word", counting)
    return searched


def test_segment_searches_a_repeated_word_once(monkeypatch):
    v = train_unigram(CORPUS, vocab_size=12)
    searched = _searched_words(monkeypatch)
    first = segment(v, "evlerde kedi evlerde")
    again = segment(v, "kedi evlerde")
    assert searched == ["evlerde", "kedi"]
    fresh = train_unigram(CORPUS, vocab_size=12)
    assert first == segment(fresh, "evlerde kedi evlerde")
    assert again == segment(fresh, "kedi evlerde")


def test_segment_memo_keys_an_nfd_word_by_its_nfc_form(monkeypatch):
    v = make_vocab({ch: 1.0 for ch in "kdeiçü"} | {"küçük": 3.0})
    searched = _searched_words(monkeypatch)
    composed = segment(v, "küçük")
    decomposed = unicodedata.normalize("NFD", "küçük")
    assert decomposed != "küçük"
    assert segment(v, decomposed) == composed == ["▁küçük"]
    assert searched == ["küçük"] and list(v.memo) == ["küçük"]


@pytest.mark.parametrize("text", ["evlerde", "evlerde kedi"])
def test_mutating_a_segmentation_leaves_the_next_one_alone(text):
    v = train_unigram(CORPUS, vocab_size=12)
    pieces = segment(v, text)
    want = list(pieces)
    pieces[0] = "x"
    pieces.append("y")
    assert segment(v, text) == want


def test_segment_memo_stops_growing_at_its_bound(monkeypatch):
    monkeypatch.setattr(sw, "MEMO_WORDS", 2)
    v = train_unigram(CORPUS, vocab_size=12)
    text = CORPUS + " evlerimiz kedicik"
    got = segment(v, text)
    assert list(v.memo) == ["evler", "evlerde"]
    assert got == segment(v, text) == segment_rescanning(v, text)
    assert list(v.memo) == ["evler", "evlerde"]


def test_segmenting_leaves_a_tokenizer_equal_and_its_text_unchanged():
    v = train_unigram(CORPUS, vocab_size=12)
    twin = train_unigram(CORPUS, vocab_size=12)
    text = vocab_to_text(v)
    segment(v, CORPUS + " evlerimiz")
    assert v.memo and not twin.memo
    assert v == twin
    assert vocab_to_text(v) == text
    assert repr(v) == repr(twin)


# ---------------------------------------------------------------------------
# vocabulary files


def test_vocab_file_round_trip_is_exact(tmp_path):
    v = train_unigram("evler evlerde evde kedi kediler", vocab_size=10, seed=0)
    path = tmp_path / "pieces.vocab"
    save_vocab(v, path)
    loaded = load_vocab(path)
    assert loaded.pieces == v.pieces
    assert list(loaded.pieces) == list(v.pieces)


def test_trained_tokenizer_equals_its_own_text_round_trip():
    """The text form stores all a tokenizer holds."""
    for size in (9, 16):
        v = train_unigram("evler evlerde evde kedi kediler", vocab_size=size, seed=0)
        assert vocab_from_text(vocab_to_text(v)) == v


def test_vocab_file_parse_errors(tmp_path):
    path = tmp_path / "bad.vocab"
    path.write_text("a\t-0.5\nnot a line\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_vocab(path)
    assert err.value.line == 2
    path.write_text("a\tNOPE\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_vocab(path)
    path.write_text(f"a\t{math.log(0.5)!r}\na\t{math.log(0.5)!r}\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_vocab(path)


def test_vocab_rejects_unnormalized_probabilities(tmp_path):
    with pytest.raises(ValidationError):
        UnigramVocab({"a": math.log(0.5), "b": math.log(0.4)})
    with pytest.raises(ValidationError):
        UnigramVocab({})
    path = tmp_path / "unnorm.vocab"
    path.write_text("a\t-0.1\nb\t-0.1\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_vocab(path)


@pytest.mark.parametrize("value", ["nan", "-inf", "inf"])
def test_vocab_rejects_non_finite_log_probabilities(tmp_path, value):
    """Each names its piece, also -inf, whose probabilities still sum to 1."""
    path = tmp_path / "bad.vocab"
    half = repr(math.log(0.5))
    path.write_text(f"a\t{half}\nb\t{value}\nc\t{half}\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="piece 'b'"):
        load_vocab(path)
    with pytest.raises(ValidationError, match="piece 'b'"):
        UnigramVocab({"a": 0.0, "b": float(value)})


def test_enumeration_oracle_spot_check():
    # tiny fixture where the best segmentation is known in closed form
    vocab = {"a": math.log(0.3), "b": math.log(0.2), "ab": math.log(0.5)}
    segs = dict((tuple(p), lp) for p, lp in all_segmentations("ab", vocab))
    assert set(segs) == {("a", "b"), ("ab",)}
    assert abs(segs[("ab",)] - math.log(0.5)) <= 1e-12
    pieces, lp = best_segmentation("ab", vocab)
    assert pieces == ["ab"]
    assert abs(lp - math.log(0.5)) <= 1e-12


def test_nfd_text_trains_and_segments_as_its_nfc_form():
    text = [" ".join(s.surfaces) for s in generate_corpus(40, seed=0)]
    decomposed = [unicodedata.normalize("NFD", line) for line in text]
    assert decomposed != text
    v = train_unigram(text, 80)
    assert train_unigram(decomposed, 80).pieces == v.pieces
    assert train_unigram("\n".join(decomposed), 80).pieces == v.pieces
    assert [segment(v, line) for line in decomposed] == [segment(v, line) for line in text]
