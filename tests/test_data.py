import numpy as np
import pytest

from seqtag import data
from seqtag.data import (CorpusSplit, LabeledSentence, TagSet, Token,
                         build_vocab, parse_conll, serialize_conll,
                         split_corpus, validate_bio2)
from seqtag.errors import ConfigError, ParseError, UsageError, ValidationError

from oracles import naive_spans

EXHIBIT = """\
Meliha B-PERSON
Düzağaç'ın I-PERSON
resimleri O
7 O
Ekim'e O
dek O
Ankara B-ORGANIZATION
TCDD I-ORGANIZATION
Sanat I-ORGANIZATION
Galerisi'nde I-ORGANIZATION
sergilenecek O
. O
"""


def sent(pairs, morphs=None):
    toks = []
    for i, (w, t) in enumerate(pairs):
        m = morphs[i] if morphs else None
        toks.append(Token(w, t, m))
    return LabeledSentence(tuple(toks))


def test_tokens_and_sentences_hold_no_per_instance_dict():
    """A corpus is mostly Token objects: slots keep each one to its three
    references, and both stay frozen."""
    s = sent([("Ankara", "B-LOCATION")])
    for obj, field in ((s, "tokens"), (s.tokens[0], "surface")):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))


# ---------------------------------------------------------------------------
# parsing


def test_parse_exhibit_sentence():
    corpus = parse_conll(EXHIBIT)
    assert len(corpus) == 1
    s = corpus[0]
    assert len(s) == 12
    assert s.surfaces[0] == "Meliha"
    assert s.surfaces[-1] == "."
    assert s.tags[:2] == ["B-PERSON", "I-PERSON"]
    assert all(m is None for m in s.morphs)
    spans = naive_spans(s.tags)
    assert spans == {("PERSON", 0, 2), ("ORGANIZATION", 6, 10)}
    assert " ".join(s.surfaces[0:2]) == "Meliha Düzağaç'ın"
    assert " ".join(s.surfaces[6:10]) == "Ankara TCDD Sanat Galerisi'nde"


def test_parse_empty_input_and_trailing_blanks():
    assert parse_conll("") == []
    assert parse_conll("\n\n\n") == []
    base = parse_conll(EXHIBIT)
    assert parse_conll(EXHIBIT + "\n\n\n") == base
    assert parse_conll(EXHIBIT.rstrip("\n")) == base


def test_parse_multiple_sentences_and_blank_runs():
    text = "a O\nb O\n\n\n\nc B-LOC\n"
    corpus = parse_conll(text)
    assert [s.surfaces for s in corpus] == [["a", "b"], ["c"]]


def test_parse_three_column_morph():
    text = "evde ev+Noun+Loc O\nkedi kedi+Noun B-ANIMAL\n"
    corpus = parse_conll(text)
    s = corpus[0]
    assert s.morphs == ["ev+Noun+Loc", "kedi+Noun"]
    assert s.tags == ["O", "B-ANIMAL"]


def test_parse_normalizes_lines_to_nfc():
    composed = "\u0130stanbul"  # Turkish dotted capital I as one code point
    decomposed = "I\u0307stanbul"
    nfd = parse_conll(f"{decomposed} {decomposed}+Noun B-LOC\n")
    nfc = parse_conll(f"{composed} {composed}+Noun B-LOC\n")
    assert nfd == nfc
    assert nfd[0].surfaces == [composed]


def test_token_normalizes_its_surface_and_analysis_to_nfc():
    token = Token("I\u0307stanbul", "B-LOC", "I\u0307stanbul+Noun")
    assert token == Token("\u0130stanbul", "B-LOC", "\u0130stanbul+Noun")
    assert token.surface == "\u0130stanbul"
    assert token.morph_analysis == "\u0130stanbul+Noun"
    assert Token("x", "O").morph_analysis is None


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_conll("a O\nb\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_conll("a O\nb NOTATAG\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_conll("a x O\nb O\n")  # 3 columns then 2
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_conll("a b c d O\n")
    assert err.value.line == 1


def test_parse_rejects_malformed_tags():
    for bad in ("B-", "Z-LOC", "b-LOC", "I"):
        with pytest.raises(ParseError):
            parse_conll(f"w {bad}\n")


def test_round_trip_two_and_three_column():
    two = parse_conll(EXHIBIT)
    assert parse_conll(serialize_conll(two)) == two
    three = parse_conll("evde ev+Noun+Loc O\nkedi kedi+Noun B-ANIMAL\n\nsu su+Noun O\n")
    assert parse_conll(serialize_conll(three)) == three
    assert serialize_conll([]) == ""


def test_a_token_either_survives_the_round_trip_or_is_rejected():
    """A surface or analysis holding whitespace would split into other
    columns when read back: "New York" came back as surface New with
    analysis York."""
    texts = ["", " ", "New York", "York\t", "a\u00a0b", "a\u2028b", "\n", "İzmir'de",
             "I\u0307zmir", "ev+Noun+Loc", "'", "-"]
    for text in texts:
        for surface, analysis in ((text, None), ("ev", text)):
            try:
                s = sent([(surface, "B-LOC")], morphs=[analysis])
            except ValidationError:
                assert text.split() != [text], text
                continue
            assert text.split() == [text], text
            assert parse_conll(serialize_conll([s])) == [s]
    with pytest.raises(ValidationError, match="surface"):
        Token("New York", "B-LOC")
    with pytest.raises(ValidationError, match="surface"):
        Token(None, "B-LOC")
    with pytest.raises(ValidationError, match="analysis"):
        Token("York", "B-LOC", "new york")


def test_serialize_rejects_mixed_morph_presence():
    mixed = [sent([("a", "O")]), sent([("b", "O")], morphs=["b+Noun"])]
    with pytest.raises(UsageError):
        serialize_conll(mixed)


# ---------------------------------------------------------------------------
# BIO2 validation


def test_validate_strict_flags_orphan_with_index():
    s = sent([("x", "O"), ("y", "I-PERSON")])
    with pytest.raises(ValidationError) as err:
        validate_bio2(s, "strict")
    assert "index 1" in str(err.value)


def test_validate_repair_rewrites_orphans():
    s = sent([("x", "O"), ("y", "I-PERSON")])
    assert validate_bio2(s, "repair").tags == ["O", "B-PERSON"]
    s = sent([("x", "B-LOC"), ("y", "I-ORG")])
    assert validate_bio2(s, "repair").tags == ["B-LOC", "B-ORG"]
    s = sent([("x", "I-LOC")])
    assert validate_bio2(s, "repair").tags == ["B-LOC"]


def test_validate_accepts_legal_sequences():
    s = sent([("a", "B-PER"), ("b", "I-PER"), ("c", "O"), ("d", "B-PER")])
    assert validate_bio2(s, "strict").tags == s.tags
    with pytest.raises(ConfigError):
        validate_bio2(s, "fix")


def test_repair_then_strict_always_passes():
    rng = np.random.default_rng(70)
    tags = ["O", "B-A", "I-A", "B-B", "I-B"]
    for _ in range(200):
        n = int(rng.integers(1, 9))
        seq = [tags[i] for i in rng.integers(0, len(tags), size=n)]
        s = sent([(f"w{i}", t) for i, t in enumerate(seq)])
        repaired = validate_bio2(s, "repair")
        validate_bio2(repaired, "strict")


# ---------------------------------------------------------------------------
# corpus splitting


def ten_sentences():
    return [sent([(f"w{i}", "O")]) for i in range(10)]


def test_split_corpus_sizes_and_determinism():
    sents = ten_sentences()
    a = split_corpus(sents, valid_fraction=0.2, seed=5)
    b = split_corpus(sents, valid_fraction=0.2, seed=5)
    assert len(a.train) == 8 and len(a.valid) == 2
    assert a.train == b.train and a.valid == b.valid
    assert a.seed == 5


def test_split_corpus_covers_input_disjointly():
    sents = ten_sentences()
    out = split_corpus(sents, valid_fraction=0.3, seed=1)
    merged = sorted(s.surfaces[0] for s in out.train + out.valid)
    assert merged == sorted(s.surfaces[0] for s in sents)
    train_ids = {id(s) for s in out.train}
    assert all(id(s) not in train_ids for s in out.valid)


def test_split_corpus_different_seed_changes_assignment():
    sents = ten_sentences()
    a = split_corpus(sents, seed=0)
    b = split_corpus(sents, seed=1)
    assert a.valid != b.valid or a.train != b.train


def test_split_corpus_errors():
    sents = ten_sentences()
    with pytest.raises(ConfigError):
        split_corpus(sents, valid_fraction=0.0)
    with pytest.raises(ConfigError):
        split_corpus(sents, valid_fraction=1.0)
    with pytest.raises(UsageError):
        split_corpus(sents[:1], valid_fraction=0.2)


def test_split_corpus_carries_test_set():
    sents = ten_sentences()
    test = [sent([("t", "O")])]
    out = split_corpus(sents, seed=0, test=test)
    assert out.test == test


# ---------------------------------------------------------------------------
# vocabularies


def test_build_vocab_orders_tokens_by_frequency():
    # ties keep their first-seen order; the tables add the reserved rows
    s = sent([("cb", "O"), ("a", "O"), ("a", "O"), ("b", "O")])
    v = build_vocab([s])
    assert v.word == ["a", "cb", "b"]
    assert v.char == ["b", "a", "c"]
    assert v.morph_char == []
    assert v.tags.tags == ["O"]


def test_build_vocab_min_count_drops_hapax():
    s = sent([("a", "O"), ("b", "O"), ("a", "O")])
    v = build_vocab([s], min_count=2)
    assert "a" in v.word and "b" not in v.word


def test_build_vocab_seven_tags_over_three_entity_types():
    tags = ["B-PERSON", "I-PERSON", "O", "B-LOCATION", "I-LOCATION",
            "B-ORGANIZATION", "I-ORGANIZATION", "O"]
    s = sent([(f"w{i}", t) for i, t in enumerate(tags)])
    v = build_vocab([s])
    assert len(v.tags) == 7
    assert set(v.tags) == {"O", "B-PERSON", "I-PERSON", "B-LOCATION",
                           "I-LOCATION", "B-ORGANIZATION", "I-ORGANIZATION"}


def test_build_vocab_morph_chars_and_determinism():
    s = sent([("ev", "O"), ("su", "O")], morphs=["ev+Loc", "su+Nom"])
    v1 = build_vocab([s])
    v2 = build_vocab([s])
    assert v1.word == v2.word and v1.char == v2.char
    assert v1.morph_char == v2.morph_char and v1.tags == v2.tags
    assert "+" in v1.morph_char
    assert "+" not in v1.char
    with pytest.raises(UsageError):
        build_vocab([])


def test_build_vocab_most_frequent_tag_gets_lowest_id():
    tags = ["O", "O", "O", "B-PER", "I-PER"]
    s = sent([(f"w{i}", t) for i, t in enumerate(tags)])
    v = build_vocab([s])
    assert v.tags.id_of("O") == 0


# ---------------------------------------------------------------------------
# domain types


def test_tagset_validation_rules():
    TagSet(["O", "B-PER", "I-PER"])
    with pytest.raises(ValidationError):
        TagSet(["B-PER"])  # no O
    with pytest.raises(ValidationError):
        TagSet(["O", "I-PER"])  # I without B
    with pytest.raises(ValidationError):
        TagSet(["O", "O"])
    ts = TagSet(["O", "B-PER", "I-PER"])
    assert ts.id_of("I-PER") == 2 and ts.tag_of(2) == "I-PER"
    assert "B-PER" in ts and "B-LOC" not in ts
    with pytest.raises(UsageError):
        ts.id_of("B-LOC")
    with pytest.raises(UsageError):
        ts.tag_of(3)


def test_token_and_sentence_invariants():
    with pytest.raises(ValidationError):
        Token("", "O")
    with pytest.raises(ValidationError):
        Token("x", "BAD")
    with pytest.raises(ValidationError):
        LabeledSentence(())
    s = sent([("a", "O")])
    with pytest.raises(UsageError):
        s.with_tags(["O", "O"])


def test_with_tags_copies_the_tokens_without_normalizing_them_again(monkeypatch):
    """with_tags replaces only the tags: the surfaces and analyses, already
    normalized when the tokens were made, are copied without a call to
    nfc_word, while a wrong tag count or a malformed tag still raises."""
    s = LabeledSentence((Token("İzmir", "O", "izmir+noun"), Token("geldi", "O")))
    calls = []
    monkeypatch.setattr(data, "nfc_word", lambda text, what: calls.append(text) or text)
    tagged = s.with_tags(["B-LOCATION", "O"])
    assert calls == []
    assert tagged.tags == ["B-LOCATION", "O"] and s.tags == ["O", "O"]
    assert tagged.surfaces == ["İzmir", "geldi"] == s.surfaces
    assert tagged.morphs == ["izmir+noun", None]
    assert tagged == LabeledSentence((Token("İzmir", "B-LOCATION", "izmir+noun"),
                                      Token("geldi", "O")))
    for tags in (["O"], ["O", "O", "O"], []):
        with pytest.raises(UsageError):
            s.with_tags(tags)
    for bad in ("BAD", "I-", "B_LOC", ""):
        with pytest.raises(ValidationError, match="malformed tag"):
            s.with_tags(["O", bad])
