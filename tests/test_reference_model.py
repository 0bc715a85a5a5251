"""Every model kind against a whole-model reference: oracles.reference_loss
and reference_tags recompute a model from its named parameters with plain
loops, one lstm_run per word, source and direction for the BiLSTM kinds and
one softmax_rows per head and layer for the transformer kinds, and score
each sentence by enumerating every labelling."""

import numpy as np
import pytest

from seqtag import autodiff as ad
from seqtag.data import LabeledSentence, build_vocab
from seqtag.encoders import ComposerConfig, ToyTransformerConfig
from seqtag.models import TrainConfig, build_model
from seqtag.subword import segment, train_unigram
from seqtag.synth import generate_corpus

from oracles import finite_diff, max_rel_error, reference_loss, reference_tags

SOURCES = ("word", "char", "morph", "subword")


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(40, seed=2)


@pytest.fixture(scope="module")
def vocab(corpus):
    return build_vocab(corpus)


@pytest.fixture(scope="module")
def tokenizer(corpus):
    return train_unigram([" ".join(s.surfaces) for s in corpus], 80)


@pytest.fixture(scope="module")
def short(corpus):
    """Sentences of 4, 1, 2 and 3 words cut from the corpus, so that
    enumeration stays cheap; a BIO2 prefix is BIO2 too."""
    picked = [s for s in corpus if len(s) >= 4 and any(t.startswith("I-") for t in s.tags[:4])]
    return [LabeledSentence(s.tokens[:n]) for s, n in zip(picked, (4, 1, 2, 3))]


def _model(vocab, tokenizer, kind, mask_illegal, sources=SOURCES, max_len=32):
    """A model of the kind, a BiLSTM kind with the given sources on and a
    transformer kind with two layers of two heads and windows of max_len
    pieces, and every parameter redrawn at scale 0.5, so no bias or table
    row is left at its init."""
    composer = ComposerConfig(**{"use_" + s: s in sources for s in SOURCES}, word_dim=5,
                              char_dim=4, char_hidden=3, morph_dim=4, morph_hidden=2,
                              subword_dim=4, subword_hidden=3)
    transformer = ToyTransformerConfig(num_layers=2, num_heads=2, hidden_units=6,
                                       ff_units=5, max_len=max_len, dropout_p=0.0)
    cfg = TrainConfig(model_kind=kind, composer=composer, hidden_dim=4, dropout_p=0.0,
                      transformer=transformer, mask_illegal=mask_illegal)
    model = build_model(cfg, vocab, np.random.default_rng(0), tokenizer)
    rng = np.random.default_rng(1)
    for t in model.parameters():
        t.data[...] = rng.normal(scale=0.5, size=t.shape)
    return model


def _assert_matches_the_reference(model, sentences):
    got = model.loss(*sentences, training=False).item()
    want = reference_loss(model, sentences)
    assert abs(got - want) <= 1e-10 * abs(want)
    for s in sentences:
        assert model.predict(s.surfaces, s.morphs) == reference_tags(model, s)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("mask_illegal", [False, True])
@pytest.mark.parametrize("kind", ["bilstm-crf", "bilstm-linear"])
def test_bilstm_kinds_with_every_source_match_the_reference(vocab, tokenizer, short,
                                                            kind, mask_illegal, batch):
    _assert_matches_the_reference(_model(vocab, tokenizer, kind, mask_illegal),
                                  short[:batch])


@pytest.mark.parametrize("source", SOURCES)
def test_each_source_alone_matches_the_reference(vocab, tokenizer, short, source):
    _assert_matches_the_reference(_model(vocab, tokenizer, "bilstm-crf", True, [source]),
                                  short)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("mask_illegal", [False, True])
@pytest.mark.parametrize("kind", ["transformer-crf", "transformer-linear"])
def test_transformer_kinds_match_the_reference(vocab, tokenizer, short, kind,
                                               mask_illegal, batch):
    """With every sentence in one window of 32 pieces, and in windows of 3
    and of 1 piece."""
    for max_len in (32, 3, 1):
        _assert_matches_the_reference(
            _model(vocab, tokenizer, kind, mask_illegal, max_len=max_len), short[:batch])


def test_the_short_sentences_have_words_of_several_pieces(tokenizer, short):
    """So the transformer cases read first pieces off rows that are not the
    word indices, and at max_len 3 a window boundary falls inside a word:
    one of its pieces ends a window and the next one opens the next."""
    counts = [[len(segment(tokenizer, w)) for w in s.surfaces] for s in short]
    assert max(map(max, counts)) > 1
    inside = []
    for sentence in counts:
        starts = np.cumsum([0] + sentence)
        inside += [start < k < start + n for start, n in zip(starts, sentence)
                   for k in range(3, starts[-1], 3)]
    assert any(inside)


def _assert_gradients_match_the_reference(model, batch):
    """For every parameter, its entry of largest gradient."""
    ad.backward(model.loss(*batch, training=False))
    for name, t in model.named_parameters().items():
        flat, index = t.data.reshape(-1), int(np.argmax(np.abs(t.grad)))
        value = flat[index]

        def f(v):
            flat[index] = v[0]
            return reference_loss(model, batch)

        (numeric,) = finite_diff(f, [np.array([value])])
        flat[index] = value
        assert max_rel_error(t.grad.reshape(-1)[index], numeric) <= 1e-6, name


def test_loss_gradients_match_finite_differences_of_the_reference(vocab, tokenizer, short):
    """Over a batch of a one-word and a two-word sentence."""
    _assert_gradients_match_the_reference(_model(vocab, tokenizer, "bilstm-crf", True),
                                          short[1:3])


def test_transformer_loss_gradients_match_finite_differences_of_the_reference(
        vocab, tokenizer, short):
    """Over a batch of a four-word and a two-word sentence."""
    _assert_gradients_match_the_reference(
        _model(vocab, tokenizer, "transformer-crf", True), [short[0], short[2]])
