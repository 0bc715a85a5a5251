import gc
import importlib.util
import io
import json
import math
import pathlib
import time
import unicodedata
import zipfile

import numpy as np
import pytest

from seqtag import autodiff as ad
from seqtag import models
from seqtag.cli import main
from seqtag.data import (LabeledSentence, Token, build_vocab, serialize_conll,
                         split_corpus, validate_bio2)
from seqtag.encoders import ComposerConfig, ToyTransformerConfig, transformer_encode
from seqtag.errors import ArtifactError, ConfigError, UsageError, ValidationError
from seqtag.models import (ARTIFACT_VERSION, MODEL_KINDS, SequenceTagger, TrainConfig,
                           build_model, load_model, save_model, tag_corpus)
from seqtag.subword import segment, train_unigram, vocab_to_text
from seqtag.synth import generate_corpus
from seqtag.training import train

from oracles import align_labels, reference_tags, softmax_nll


def tiny_cfg(kind="bilstm-crf", **kw):
    defaults = dict(
        model_kind=kind,
        composer=ComposerConfig(word_dim=16, char_dim=8, char_hidden=6,
                                morph_dim=8, morph_hidden=4,
                                subword_dim=8, subword_hidden=4),
        transformer=ToyTransformerConfig(num_layers=1, num_heads=2,
                                         hidden_units=12, ff_units=16,
                                         max_len=32, dropout_p=0.0),
        hidden_dim=8, dropout_p=0.0, epochs=1, lr=0.05, batch_size=4,
        subword_vocab_size=80)
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(40, seed=2)


@pytest.fixture(scope="module")
def vocab(corpus):
    return build_vocab(corpus)


@pytest.fixture(scope="module")
def tokenizer(corpus):
    return train_unigram([" ".join(s.surfaces) for s in corpus], 80)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_unknown_kind_and_optimizer():
    with pytest.raises(ConfigError):
        tiny_cfg(kind="gru-crf")
    with pytest.raises(ConfigError):
        tiny_cfg(optimizer="rmsprop")


@pytest.mark.parametrize("field,value", [
    ("lr", 0.0), ("lr", -1.0), ("dropout_p", 1.0), ("dropout_p", -0.1),
    ("epochs", 0), ("batch_size", 0), ("clip_norm", 0.0),
    ("momentum", 1.0), ("lambda_l2", -1e-9), ("hidden_dim", 0),
    ("seed", -1), ("seed", 1.5), ("seed", True), ("min_count", 0), ("min_count", -3),
    ("mask_illegal", "false"), ("mask_illegal", 1), ("mask_illegal", None),
    *((name, value) for name in ("epochs", "batch_size", "hidden_dim")
      for value in (1.5, True, "8")),
    *((name, value) for name in ("lr", "clip_norm", "lambda_l2")
      for value in (math.nan, math.inf)),
])
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ConfigError):
        tiny_cfg(**{field: value})


@pytest.mark.parametrize("value", [True, False, "0.1", [0.1]])
def test_config_rejects_rates_that_are_not_numbers(value):
    """True would train at lr 1.0, and a string would fail in a comparison."""
    for field in ("lr", "momentum", "clip_norm", "dropout_p", "lambda_l2"):
        with pytest.raises(ConfigError, match=field):
            tiny_cfg(**{field: value})
    with pytest.raises(ConfigError, match="lambda_l2"):
        tiny_cfg(lambda_l2=None)


@pytest.mark.parametrize("value", [0, -1, 2.5, "200", True])
def test_config_rejects_a_subword_vocab_size_that_is_not_a_positive_integer(value):
    with pytest.raises(ConfigError, match="subword_vocab_size"):
        tiny_cfg(subword_vocab_size=value)


# ---------------------------------------------------------------------------
# construction and forward passes


def test_all_four_kinds_build_and_predict(corpus, vocab, tokenizer):
    words = corpus[0].surfaces
    for kind in MODEL_KINDS:
        model = build_model(tiny_cfg(kind), vocab, np.random.default_rng(0),
                            tokenizer)
        tags = model.predict(words, corpus[0].morphs)
        assert len(tags) == len(words)
        assert all(t in vocab.tags for t in tags)


def test_parameter_names_are_unique_and_trainable(vocab, tokenizer):
    for kind in MODEL_KINDS:
        model = build_model(tiny_cfg(kind), vocab, np.random.default_rng(0),
                            tokenizer)
        named = model.named_parameters()
        assert len(named) == len(set(named))
        assert all(t.requires_grad for t in named.values())
        assert model.parameters() == list(named.values())


def test_each_bilstm_holds_one_block(vocab, tokenizer):
    """A bilstm-crf with all four sources has 11 parameter tensors: four
    tables, the one (2, 4H, D + 2 + H) block [W_x | b_x | b_h | W_h] of
    each of its four BiLSTMs, the two directions stacked on axis 0, then
    w_out, b_out and the transitions."""
    composer = ComposerConfig(use_morph=True, use_subword=True, word_dim=16, char_dim=8,
                              char_hidden=6, morph_dim=8, morph_hidden=4, subword_dim=8,
                              subword_hidden=4)
    model = build_model(tiny_cfg(composer=composer), vocab, np.random.default_rng(0),
                        tokenizer)
    named = model.named_parameters()
    assert len(named) == 11
    bilstms = {"encoder.": (composer.output_dim, 8), "composer.char_bilstm.": (8, 6),
               "composer.morph_bilstm.": (8, 4), "composer.subword_bilstm.": (8, 4)}
    for prefix, (D, H) in bilstms.items():
        assert {n: t.shape for n, t in named.items() if n.startswith(prefix)} == {
            prefix + "W": (2, 4 * H, D + 2 + H)}


# (out, in) shape and entries [0, 1], [-1, 0], [-1, -2] of each matmul weight
# of the seed-0 tiny transformer-crf, as artifact version 2 stored them; Wqkv
# holds the draws of Wq, Wk and Wv as its bands 0, 1 and 2
_OUT_IN_DRAWS = {
    ("transformer.layer0.Wqkv", 0): ((12, 12), 0.09099989916719609, 0.3084982463820144,
                                     0.4952686566916433),
    ("transformer.layer0.Wqkv", 1): ((12, 12), -0.13681911883491082, 0.4497268024822514,
                                     -0.18335982936301404),
    ("transformer.layer0.Wqkv", 2): ((12, 12), -0.5601677584525295, -0.08076314577790805,
                                     0.24879238568029538),
    ("transformer.layer0.Wo", 0): ((12, 12), -0.49623797161629535, -0.11792490687774748,
                                   0.28394914736763976),
    ("transformer.layer0.W_ff1", 0): ((16, 12), 0.22728264233073092, 0.1196104525721311,
                                      -0.0617609527263282),
    ("transformer.layer0.W_ff2", 0): ((12, 16), -0.15543145670785824, 0.05138985738496371,
                                      0.32142671931078837),
    ("w_out", 0): ((6, 12), -0.09458907406827222, -0.5639654304969823, -0.5395451206706988),
}


def test_matmul_weights_are_stored_in_out_with_the_out_in_draws(vocab, tokenizer):
    """Each weight x @ W multiplies is stored (in, out), C-contiguous, and
    each (in, out) band of it holds the (out, in) Xavier draw it held
    before, transposed, so seeded models are the same models."""
    model = build_model(tiny_cfg("transformer-crf"), vocab, np.random.default_rng(0),
                        tokenizer)
    named = model.named_parameters()
    for (name, band), ((out, in_), *entries) in _OUT_IN_DRAWS.items():
        w = named[name].data
        assert w.shape[0] == in_ and w.flags["C_CONTIGUOUS"], name
        w = w[:, band * out:(band + 1) * out]
        assert w.shape == (in_, out), (name, band)
        assert [w[1, 0], w[0, -1], w[-2, -1]] == entries, (name, band)
    assert named["transformer.layer0.Wqkv"].shape == (12, 36)


def test_crf_kind_has_transition_table_and_linear_kind_does_not(vocab):
    crf_model = build_model(tiny_cfg("bilstm-crf"), vocab,
                            np.random.default_rng(0))
    lin_model = build_model(tiny_cfg("bilstm-linear"), vocab,
                            np.random.default_rng(0))
    assert any(n.startswith("crf.") for n in crf_model.named_parameters())
    assert not any(n.startswith("crf.") for n in lin_model.named_parameters())


def test_transformer_tag_graph_grows_by_its_rows_not_its_pieces(vocab, tokenizer):
    model = build_model(tiny_cfg("transformer-crf"), vocab,
                        np.random.default_rng(0), tokenizer)
    sentences = [["ev"], ["kütüphanelerimizdekilerden"], ["ev", "kitap"],
                 ["Ankara'daki", "büyükelçiliklerimizden", "geldi"]]
    piece_counts, extra = [], set()
    for words in sentences:
        piece_counts.append(sum(len(segment(tokenizer, w)) for w in words))
        rows, _ = model.emission_rows(words)
        extra.add(len(ad.trace(ad.stack(rows))) - len(rows))
    assert len(set(piece_counts)) == len(sentences)
    assert len(extra) == 1


def _piece_count(tokenizer, sentence):
    return sum(len(segment(tokenizer, w)) for w in sentence.surfaces)


def _loss_and_gradients(model, build):
    params = model.named_parameters()
    for t in params.values():
        t.zero_grad()
    loss = build()
    ad.backward(loss)
    return loss.item(), {name: t.grad.copy() for name, t in params.items()}


BATCH_CASES = [(kind, False) for kind in MODEL_KINDS] + [("bilstm-crf", True)]


@pytest.mark.parametrize("kind,all_composers", BATCH_CASES)
def test_batched_loss_equals_the_sum_of_sentence_losses(corpus, vocab, tokenizer,
                                                        kind, all_composers):
    cfg = tiny_cfg(kind, mask_illegal=True)
    cfg.transformer.max_len = 10  # the longest sentence below takes two windows
    if all_composers:
        cfg.composer.use_morph = cfg.composer.use_subword = True
    model = build_model(cfg, vocab, np.random.default_rng(3), tokenizer)
    batch = sorted(corpus[:12], key=len)[::3]
    assert len({len(s) for s in batch}) == len(batch)
    assert _piece_count(tokenizer, batch[-1]) > 10

    def summed():
        total = None
        for s in batch:
            nll = model.loss(s, training=True, rng=np.random.default_rng(0))
            total = nll if total is None else total + nll
        return total

    got, got_grads = _loss_and_gradients(
        model, lambda: model.loss(*batch, training=True, rng=np.random.default_rng(0)))
    want, want_grads = _loss_and_gradients(model, summed)
    assert abs(got - want) <= 1e-10
    for name, grad in want_grads.items():
        assert np.max(np.abs(got_grads[name] - grad)) <= 1e-10, name


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_batched_loss_has_one_crf_or_softmax_node(corpus, vocab, tokenizer, kind):
    model = build_model(tiny_cfg(kind), vocab, np.random.default_rng(0), tokenizer)
    ops = [node._op for node in ad.trace(model.loss(*corpus[:5], training=False))]
    assert ops.count("crf_forward") == 1


def test_a_word_and_char_bilstm_loss_has_one_scan_per_bilstm(corpus, vocab):
    """Each BiLSTM is one lstm_scan node for both directions: the char
    composer's reads off each word's final states, so the only concat is the
    composer's word | char one and the only gathers are the two lookups."""
    model = build_model(tiny_cfg("bilstm-crf"), vocab, np.random.default_rng(0))
    assert [name for name, _, _ in model.composer.cfg.sources] == ["word", "char"]
    ops = [node._op for node in ad.trace(model.loss(corpus[0], training=False))]
    assert [ops.count(op) for op in ("lstm_scan", "concat", "gather_rows")] == [2, 1, 2]


@pytest.mark.parametrize("mask_illegal", [False, True])
@pytest.mark.parametrize("kind", ["bilstm-linear", "transformer-linear"])
def test_linear_loss_is_bitwise_the_softmax_cross_entropy(corpus, vocab, tokenizer,
                                                          kind, mask_illegal):
    """The BIO2 mask leaves the linear loss alone: each word is a one-row
    sequence, so under the mask every gold I-X would open after BOS."""
    cfg = tiny_cfg(kind, mask_illegal=mask_illegal)
    cfg.transformer.max_len = 10  # the longest sentence below takes two windows
    model = build_model(cfg, vocab, np.random.default_rng(3), tokenizer)
    batch = sorted(corpus[:12], key=len)[::3]
    words = [w for s in batch for w in s.surfaces]
    morphs = [m for s in batch for m in s.morphs]
    gold = [model.tags.id_of(t) for s in batch for t in s.tags]
    sizes = [len(s) for s in batch]

    def reference():
        rows, _ = model.emission_rows(words, morphs, lengths=sizes)
        return softmax_nll(ad.stack(rows), gold)

    assert any(t.startswith("I-") for s in batch for t in s.tags)
    assert _piece_count(tokenizer, batch[-1]) > 10
    got, got_grads = _loss_and_gradients(model, lambda: model.loss(*batch, training=False))
    want, want_grads = _loss_and_gradients(model, reference)
    assert got == want
    for name, grad in want_grads.items():
        assert np.max(np.abs(got_grads[name] - grad)) <= 1e-12, name


def test_every_engine_op_is_a_node_of_some_model_loss(corpus, vocab, tokenizer):
    """autodiff.py keeps no op that no model builds: with every input
    source and dropout on, the training losses of the model kinds hold a
    node of every op it gives _result."""
    from test_autodiff import _result_ops

    seen = set()
    for kind in MODEL_KINDS:
        cfg = tiny_cfg(kind, dropout_p=0.2, composer=ComposerConfig(
            word_dim=8, char_dim=4, char_hidden=3, use_morph=True, morph_dim=4,
            morph_hidden=3, use_subword=True, subword_dim=4, subword_hidden=3))
        model = build_model(cfg, vocab, np.random.default_rng(0), tokenizer)
        loss = model.loss(*corpus[:2], training=True, rng=np.random.default_rng(1))
        seen.update(node._op for node in ad.trace(loss))
    ops = _result_ops(ad)
    assert ops <= seen, f"ops no model builds: {sorted(ops - seen)}"


def test_transformer_graph_has_no_attention_mask_or_batch_square(corpus, vocab, tokenizer):
    cfg = tiny_cfg("transformer-crf", transformer=ToyTransformerConfig(
        num_layers=2, num_heads=2, hidden_units=12, ff_units=16, max_len=32, dropout_p=0.0))
    model = build_model(cfg, vocab, np.random.default_rng(0), tokenizer)

    def masked_nodes(loss):
        return [node._op for node in ad.trace(loss) if np.isneginf(node.data).any()]

    assert masked_nodes(model.loss(corpus[0], training=False)) == []
    # two sentences: each attends within itself in one node per layer, and
    # no node holds scores over the pieces of both sentences
    loss = model.loss(*corpus[:2], training=False)
    assert masked_nodes(loss) == []
    nodes = ad.trace(loss)
    ops = [n._op for n in nodes]
    layers = cfg.transformer.num_layers
    assert ops.count("attention") == layers
    # one projection to [q | k | v], Wo and the two feed-forward ones per
    # layer, then w_out
    assert ops.count("matmul") == 4 * layers + 1
    # each sublayer is one fused node, with no primitive left over from it
    assert ops.count("layer_norm") == 2 * layers
    assert ops.count("gelu") == layers
    assert not {"exp", "log", "reshape", "tanh"} & set(ops)
    n_pieces = max(n.shape[0] for n in nodes if n._op == "attention")
    assert n_pieces not in (12, 16)  # no weight matrix is (n_pieces, n_pieces)
    assert not any(n.shape == (n_pieces, n_pieces) for n in nodes)


def test_batched_loss_rejects_an_empty_batch(vocab):
    model = build_model(tiny_cfg("bilstm-crf"), vocab, np.random.default_rng(0))
    with pytest.raises(UsageError):
        model.loss()
    with pytest.raises(UsageError):
        model.emission_rows(["a", "b"], lengths=[1, 2])


def test_loss_is_finite_and_backward_reaches_the_embeddings(corpus, vocab):
    model = build_model(tiny_cfg("bilstm-crf"), vocab, np.random.default_rng(1))
    loss = model.loss(corpus[0], training=False)
    assert np.isfinite(loss.data)
    ad.backward(loss)
    word_grad = model.composer.word_table.matrix.grad
    assert np.abs(word_grad).sum() > 0
    assert np.abs(model.crf.transition.grad).sum() > 0


def test_transformer_loss_backward_reaches_pieces(corpus, vocab, tokenizer):
    model = build_model(tiny_cfg("transformer-crf"), vocab,
                        np.random.default_rng(1), tokenizer)
    loss = model.loss(corpus[0], training=False)
    assert np.isfinite(loss.data)
    ad.backward(loss)
    assert np.abs(model.transformer.piece_table.matrix.grad).sum() > 0


def test_predict_on_empty_input_is_empty(vocab):
    model = build_model(tiny_cfg("bilstm-linear"), vocab,
                        np.random.default_rng(0))
    assert model.predict([]) == []


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_word_or_analysis_that_is_empty_or_holds_whitespace_is_rejected(
        vocab, tokenizer, kind):
    """A transformer kind read a piece-less word's row off the next word, or
    failed in gather_rows; a BiLSTM kind encoded " " as a space character."""
    composer = ComposerConfig(word_dim=16, char_dim=8, char_hidden=6, use_morph=True,
                              morph_dim=8, morph_hidden=4)
    model = build_model(tiny_cfg(kind, composer=composer), vocab,
                        np.random.default_rng(0), tokenizer)
    for bad in ("", " ", "\t", "New York", " Ankara"):
        for words in (["Ankara", bad, "geldi"], ["Ankara", bad]):
            with pytest.raises(ValidationError, match="word"):
                model.predict(words)
            with pytest.raises(ValidationError, match="word"):
                model.emission_rows(words, lengths=[len(words)])
    for bad in (" ", "ankara +noun"):
        with pytest.raises(ValidationError, match="analysis"):
            model.predict(["Ankara", "geldi"], ["ankara+noun", bad])
    # an empty or missing analysis means the word has none
    assert model.predict(["Ankara", "geldi"], ["", None]) == model.predict(["Ankara", "geldi"])


def test_subword_composer_requires_a_tokenizer(vocab, tokenizer):
    cfg = tiny_cfg("bilstm-crf")
    cfg.composer.use_subword = True
    with pytest.raises(UsageError):
        build_model(cfg, vocab, np.random.default_rng(0))
    model = build_model(cfg, vocab, np.random.default_rng(0), tokenizer)
    tags = model.predict(["Meliha", "geldi", "."])
    assert len(tags) == 3


def test_transformer_kinds_require_a_tokenizer(vocab):
    with pytest.raises(UsageError):
        build_model(tiny_cfg("transformer-crf"), vocab,
                    np.random.default_rng(0))


def test_masked_predictions_are_always_valid_bio2(corpus, vocab):
    # an untrained model with random scores is the adversarial case
    model = build_model(tiny_cfg("bilstm-linear", mask_illegal=True), vocab,
                        np.random.default_rng(3))
    for sentence in corpus:
        tagged = sentence.with_tags(model.predict(sentence.surfaces))
        validate_bio2(tagged, mode="strict")


def test_mask_override_at_predict_time(corpus, vocab):
    # the mask is read when predict runs, not fixed when the model is built
    model = build_model(tiny_cfg("bilstm-linear"), vocab,
                        np.random.default_rng(3))
    model.mask_illegal = True
    for sentence in corpus:
        tagged = sentence.with_tags(model.predict(sentence.surfaces))
        validate_bio2(tagged, mode="strict")


@pytest.mark.parametrize("kind", ["bilstm-linear", "transformer-linear"])
def test_unmasked_linear_predict_is_the_per_word_argmax(corpus, vocab, tokenizer, kind):
    model = build_model(tiny_cfg(kind), vocab, np.random.default_rng(4), tokenizer)
    assert model.crf is None
    assert all(not name.startswith("crf") for name in model.named_parameters())
    for sentence in corpus:
        rows, _ = model.emission_rows(sentence.surfaces, sentence.morphs)
        want = [model.tags.tag_of(int(np.argmax(row.data))) for row in rows]
        assert model.predict(sentence.surfaces, sentence.morphs) == want


def test_transformer_rows_are_the_first_pieces_the_oracle_aligns(corpus, vocab, tokenizer):
    """Row w of the emissions is the projected encoder row of the w-th
    word-initial piece of the string-level alignment.  A sentence of more
    than max_len pieces reads it from the window of max_len pieces that
    piece falls in, each window encoded alone."""
    model = build_model(tiny_cfg("transformer-crf"), vocab, np.random.default_rng(0),
                        tokenizer)
    table, cfg = model.transformer.piece_table, model.transformer_cfg

    def first_pieces(sentence):
        pieces = segment(tokenizer, " ".join(sentence.surfaces))
        aligned = align_labels(sentence.surfaces, sentence.tags, pieces)
        return pieces, [k for k, first in enumerate(aligned.is_word_initial) if first]

    def assert_rows(sentences):
        for sentence in sentences:
            pieces, initial = first_pieces(sentence)
            ids = [table.id_of(p) for p in pieces]
            hidden = np.concatenate([
                transformer_encode(cfg, model.transformer, ids[k:k + cfg.max_len]).data
                for k in range(0, len(ids), cfg.max_len)])
            projected = model._project(ad.Tensor(hidden)).data
            rows, covered = model.emission_rows(sentence.surfaces)
            assert covered == list(range(len(sentence)))
            for w, row in enumerate(rows):
                assert np.max(np.abs(row.data - projected[initial[w]])) <= 1e-12

    whole = [s for s in corpus if len(first_pieces(s)[0]) <= cfg.max_len]
    assert len(whole) > 30
    assert_rows(whole)
    cfg.max_len = 10
    windowed = [s for s in corpus if len(first_pieces(s)[0]) > cfg.max_len]
    assert len(windowed) > 5
    assert_rows(windowed)


def test_windowed_predict_equals_the_reference_tags(corpus, vocab, tokenizer):
    """At max_len 3 every sentence below spans several windows, and each
    of its words is tagged as the windowed reference oracle tags it."""
    cfg = tiny_cfg("transformer-crf", mask_illegal=True)
    cfg.transformer.max_len = 3
    model = build_model(cfg, vocab, np.random.default_rng(0), tokenizer)
    rng = np.random.default_rng(1)
    for t in model.parameters():
        t.data[...] = rng.normal(scale=0.5, size=t.shape)
    sentences = [LabeledSentence(s.tokens[:4]) for s in corpus[:6]]
    assert all(_piece_count(tokenizer, s) > 3 for s in sentences)
    for sentence in sentences:
        assert model.predict(sentence.surfaces) == reference_tags(model, sentence)


def test_predict_path_records_no_graph(corpus, vocab):
    model = build_model(tiny_cfg("bilstm-crf"), vocab, np.random.default_rng(0))
    sentence = corpus[0]
    with ad.no_grad():
        rows, covered = model.emission_rows(sentence.surfaces, sentence.morphs)
    assert len(rows) == len(covered) == len(sentence)
    assert all(r._parents == () and r._backward is None and r.grad is None
               for r in rows)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_loss_backward_and_predict_leave_no_reference_cycles(corpus, vocab,
                                                             tokenizer, kind):
    cfg = tiny_cfg(kind, dropout_p=0.3)
    cfg.composer.use_morph = True
    model = build_model(cfg, vocab, np.random.default_rng(0), tokenizer)
    sentence = corpus[0]
    gc.collect()
    gc.disable()
    try:
        loss = model.loss(sentence, training=True, rng=np.random.default_rng(1))
        ad.backward(loss)
        model.predict(sentence.surfaces, sentence.morphs)
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# fitting behavior


def test_one_epoch_on_one_sentence_decreases_the_loss(corpus, vocab):
    sentence = corpus[0]
    cfg = tiny_cfg("bilstm-crf", lr=0.1, batch_size=1)
    model = build_model(cfg, vocab, np.random.default_rng(0))
    split = split_corpus([sentence, sentence], valid_fraction=0.5, seed=0)
    before = float(model.loss(sentence, training=False).data)
    result = train(cfg, split)
    after = float(result.model.loss(sentence, training=False).data)
    assert after < before


def test_overfitting_one_sentence_reproduces_its_gold_tags(corpus):
    sentence = next(s for s in corpus if any(t != "O" for t in s.tags))
    cfg = tiny_cfg("bilstm-crf", lr=0.2, batch_size=1, epochs=50,
                   lambda_l2=0.0)
    split = split_corpus([sentence, sentence], valid_fraction=0.5, seed=0)
    result = train(cfg, split, target_f1=100.0)
    assert result.model.predict(sentence.surfaces, sentence.morphs) == sentence.tags


# ---------------------------------------------------------------------------
# artifact persistence


def assert_same_predictions(a: SequenceTagger, b: SequenceTagger, corpus):
    for sentence in corpus:
        assert (a.predict(sentence.surfaces, sentence.morphs)
                == b.predict(sentence.surfaces, sentence.morphs))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_artifact_round_trip_preserves_every_tensor(tmp_path, corpus, vocab,
                                                    tokenizer, kind):
    model = build_model(tiny_cfg(kind), vocab, np.random.default_rng(5),
                        tokenizer)
    path = tmp_path / "model.zip"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == model.kind
    assert list(loaded.tags) == list(model.tags)
    original = model.named_parameters()
    restored = loaded.named_parameters()
    assert set(original) == set(restored)
    for name in original:
        assert np.array_equal(original[name].data, restored[name].data), name
    assert_same_predictions(model, loaded, corpus[:8])


def test_artifact_keeps_the_tokenizer(tmp_path, vocab, tokenizer):
    model = build_model(tiny_cfg("transformer-linear"), vocab,
                        np.random.default_rng(0), tokenizer)
    path = tmp_path / "model.zip"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.tokenizer.pieces == tokenizer.pieces


def test_saving_one_model_twice_gives_the_same_bytes(tmp_path, vocab, tokenizer,
                                                     monkeypatch):
    model = build_model(tiny_cfg("transformer-crf"), vocab,
                        np.random.default_rng(0), tokenizer)
    save_model(model, tmp_path / "first.zip")
    an_hour_later = time.time() + 3600.0
    monkeypatch.setattr(time, "time", lambda: an_hour_later)
    save_model(model, tmp_path / "second.zip")
    assert (tmp_path / "first.zip").read_bytes() == (tmp_path / "second.zip").read_bytes()


def test_loading_garbage_raises_artifact_error(tmp_path):
    path = tmp_path / "bad.zip"
    path.write_bytes(b"this is not a zip archive")
    with pytest.raises(ArtifactError):
        load_model(path)


def test_loading_zip_without_members_raises(tmp_path):
    path = tmp_path / "empty.zip"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("readme.txt", "nothing here")
    with pytest.raises(ArtifactError):
        load_model(path)


def _tamper(src, dst, edit_manifest=None, edit_npz=None, keep_tokenizer=True):
    with zipfile.ZipFile(src) as zf:
        manifest = json.loads(zf.read("manifest.json").decode("utf-8"))
        npz = zf.read("tensors.npz")
        tok = (zf.read("tokenizer.tsv")
               if keep_tokenizer and "tokenizer.tsv" in zf.namelist() else None)
    if edit_manifest:
        edit_manifest(manifest)
    if edit_npz:
        npz = edit_npz(npz)
    with zipfile.ZipFile(dst, "w") as zf:
        zf.writestr("manifest.json", json.dumps(manifest))
        if tok is not None:
            zf.writestr("tokenizer.tsv", tok)
        zf.writestr("tensors.npz", npz)


def test_unsupported_version_is_reported(tmp_path, corpus, vocab):
    model = build_model(tiny_cfg("bilstm-crf"), vocab, np.random.default_rng(0))
    src = tmp_path / "ok.zip"
    save_model(model, src)
    dst = tmp_path / "future.zip"
    _tamper(src, dst, edit_manifest=lambda m: m.update(format_version=99))
    with pytest.raises(ArtifactError, match="version"):
        load_model(dst)


@pytest.mark.parametrize("version", [0, ARTIFACT_VERSION + 1, None, "2", True, 1.0])
def test_versions_outside_one_to_artifact_version_are_rejected(tmp_path, vocab, version):
    """Only the int versions 1 to ARTIFACT_VERSION load."""
    model = build_model(tiny_cfg("bilstm-crf"), vocab, np.random.default_rng(0))
    src = tmp_path / "ok.zip"
    save_model(model, src)
    dst = tmp_path / "other.zip"
    _tamper(src, dst, edit_manifest=lambda m: m.update(format_version=version))
    with pytest.raises(ArtifactError, match="version"):
        load_model(dst)


def _edit_tensor(name, value):
    """An edit_npz for _tamper that replaces one stored tensor."""
    def edit(raw):
        with np.load(io.BytesIO(raw)) as arrays:
            data = {k: arrays[k] for k in arrays.files}
        data[name] = value(data[name])
        buf = io.BytesIO()
        np.savez(buf, **data)
        return buf.getvalue()
    return edit


def _with_nan(arr):
    arr = arr.copy()
    arr[0, 0] = np.nan
    return arr


@pytest.mark.parametrize("edit_npz,match", [
    (_edit_tensor("w_out", _with_nan), "non-finite"),
    (_edit_tensor("w_out", lambda a: a.astype(str)), "dtype"),
    (_edit_tensor("w_out", lambda a: a.astype(object)), "tensors"),
    (lambda raw: raw[:len(raw) // 2], "tensors"),
], ids=["nan", "string-dtype", "object-dtype", "truncated-npz"])
def test_malformed_tensors_are_reported(tmp_path, vocab, edit_npz, match):
    model = build_model(tiny_cfg("bilstm-crf"), vocab, np.random.default_rng(0))
    src = tmp_path / "ok.zip"
    save_model(model, src)
    dst = tmp_path / "bad.zip"
    _tamper(src, dst, edit_npz=edit_npz)
    with pytest.raises(ArtifactError, match=match):
        load_model(dst)


def _rename_first_piece(manifest):
    vocab = manifest["tables"]["transformer_piece"]["vocab"]
    piece = next(p for p in vocab if p not in ("<pad>", "<unk>"))
    manifest["tables"]["transformer_piece"]["vocab"] = {
        ("renamed" if p == piece else p): i for p, i in vocab.items()}


SUBWORD = dict(composer=ComposerConfig(use_subword=True, word_dim=16,
                                       char_dim=8, char_hidden=6,
                                       subword_dim=8, subword_hidden=4))


@pytest.mark.parametrize("kind,cfg_kw,edit_manifest,keep_tokenizer", [
    ("transformer-crf", {}, None, False),
    ("bilstm-crf", SUBWORD, None, False),
    ("transformer-crf", {}, lambda m: m["transformer"].update(num_heads=5), True),
    ("bilstm-crf", {}, lambda m: m["composer"].update(
        use_word=False, use_char=False, use_morph=False, use_subword=False), True),
    ("bilstm-crf", {}, lambda m: m["composer"].update(use_morph=True), True),
    ("transformer-crf", {}, _rename_first_piece, True),
    ("bilstm-crf", {}, lambda m: m.update(mask_illegal="false"), True),
    ("bilstm-crf", {}, lambda m: m["composer"].update(use_char="true"), True),
    ("bilstm-crf", {}, lambda m: m.update(dropout_p="0.1"), True),
    ("bilstm-crf", {}, lambda m: m.update(dropout_p=False), True),
    ("transformer-crf", {}, lambda m: m["transformer"].update(dropout_p=False), True),
], ids=["transformer-without-tokenizer", "subword-composer-without-tokenizer",
        "heads-not-dividing-hidden-units", "no-composer-source",
        "morph-without-morph-table", "piece-table-disagrees-with-tokenizer",
        "mask-illegal-not-a-boolean", "use-char-not-a-boolean",
        "dropout-p-a-string", "dropout-p-a-boolean",
        "transformer-dropout-p-a-boolean"])
def test_manifest_that_describes_no_buildable_model_is_an_artifact_error(
        tmp_path, corpus, vocab, tokenizer, kind, cfg_kw, edit_manifest,
        keep_tokenizer):
    model = build_model(tiny_cfg(kind, **cfg_kw), vocab,
                        np.random.default_rng(0), tokenizer)
    src = tmp_path / "ok.zip"
    save_model(model, src)
    dst = tmp_path / "bad.zip"
    _tamper(src, dst, edit_manifest=edit_manifest, keep_tokenizer=keep_tokenizer)
    with pytest.raises(ArtifactError):
        load_model(dst)
    data = tmp_path / "data.conll"
    data.write_text(serialize_conll(corpus[:3]), encoding="utf-8")
    assert main(["evaluate", "--model", str(dst), "--data", str(data)]) == 2


@pytest.mark.parametrize("text", [b"bad line", b"a\t-5.0\n", b"\xff\t0.0\n"],
                         ids=["unparsable", "probabilities-not-summing-to-one",
                              "not-utf-8"])
def test_malformed_tokenizer_is_an_artifact_error(tmp_path, corpus, vocab, tokenizer,
                                                  text):
    _assert_the_tokenizer_is_refused(tmp_path, corpus, vocab, tokenizer, text)


@pytest.mark.parametrize("value", ["nan", "-inf", "inf"])
def test_tokenizer_with_a_non_finite_log_probability_is_an_artifact_error(
        tmp_path, corpus, vocab, tokenizer, value):
    """The same pieces, so the stored piece table still matches; one of
    them with a non-finite log-probability."""
    lines = vocab_to_text(tokenizer).splitlines(keepends=True)
    piece = lines[0].split("\t")[0]
    lines[0] = f"{piece}\t{value}\n"
    _assert_the_tokenizer_is_refused(tmp_path, corpus, vocab, tokenizer,
                                     "".join(lines).encode("utf-8"), f"piece {piece!r}")


def _assert_the_tokenizer_is_refused(tmp_path, corpus, vocab, tokenizer, text,
                                     match="tokenizer"):
    """An artifact whose tokenizer.tsv holds text neither loads nor evaluates."""
    model = build_model(tiny_cfg("transformer-crf"), vocab,
                        np.random.default_rng(0), tokenizer)
    src = tmp_path / "ok.zip"
    save_model(model, src)
    dst = tmp_path / "bad.zip"
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for name in zin.namelist():
            zout.writestr(name, text if name == "tokenizer.tsv" else zin.read(name))
    with pytest.raises(ArtifactError, match=match):
        load_model(dst)
    data = tmp_path / "data.conll"
    data.write_text(serialize_conll(corpus[:3]), encoding="utf-8")
    assert main(["evaluate", "--model", str(dst), "--data", str(data)]) == 2


@pytest.mark.parametrize("manifest", [b"\xff{}", b"[]"],
                         ids=["not-utf-8", "not-an-object"])
def test_manifest_that_is_no_json_object_is_an_artifact_error(tmp_path, corpus, vocab,
                                                              manifest):
    model = build_model(tiny_cfg("bilstm-crf"), vocab, np.random.default_rng(0))
    src = tmp_path / "ok.zip"
    save_model(model, src)
    dst = tmp_path / "bad.zip"
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for name in zin.namelist():
            zout.writestr(name, manifest if name == "manifest.json" else zin.read(name))
    with pytest.raises(ArtifactError, match="manifest"):
        load_model(dst)
    data = tmp_path / "data.conll"
    data.write_text(serialize_conll(corpus[:3]), encoding="utf-8")
    assert main(["evaluate", "--model", str(dst), "--data", str(data)]) == 2


def test_transformer_artifact_with_hidden_dim_zero_loads(tmp_path, corpus,
                                                         vocab, tokenizer):
    """Transformer kinds do not use hidden_dim, and builds that loaded and
    re-saved such an artifact stored 0 there."""
    model = build_model(tiny_cfg("transformer-crf"), vocab,
                        np.random.default_rng(0), tokenizer)
    src = tmp_path / "ok.zip"
    save_model(model, src)
    dst = tmp_path / "zero.zip"
    _tamper(src, dst, edit_manifest=lambda m: m.update(hidden_dim=0))
    assert_same_predictions(model, load_model(dst), corpus[:4])


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


# every artifact version before the current one, and its two fixture models
OLDER_FIXTURES = [f"v{version}_{model}" for version in range(1, ARTIFACT_VERSION)
                  for model in ("bilstm_crf", "transformer_crf")]


def test_every_older_version_has_its_fixtures():
    """Each version 1 to ARTIFACT_VERSION - 1 has both fixture zips and an
    entry for each in its expected-tags file, so a version bump that does
    not record the version it replaces fails here."""
    for name in OLDER_FIXTURES:
        version = name.partition("_")[0]
        assert (FIXTURES / f"{name}.zip").is_file(), name
        with open(FIXTURES / f"{version}_expected_tags.json", encoding="utf-8") as fh:
            assert json.load(fh).get(name), name


def _assert_loads_and_tags_as_recorded(directory, name, tmp_path):
    """The fixture model name in directory, and a resave of it, give each
    recorded sentence its recorded tags and gold-tag loss, and tag_corpus
    gives the recorded sentences their recorded tags."""
    version = name.partition("_")[0]
    with open(directory / f"{version}_expected_tags.json", encoding="utf-8") as fh:
        expected = json.load(fh)[name]
    model = load_model(directory / f"{name}.zip")
    save_model(model, tmp_path / "current.zip")
    resaved = load_model(tmp_path / "current.zip")
    sentences = [LabeledSentence(tuple(Token(w, t, m) for w, t, m in
                                       zip(s["words"], s["gold"], s["morphs"])))
                 for s in expected]
    for m in (model, resaved):
        for s, sentence in zip(expected, sentences):
            assert m.predict(s["words"], s["morphs"]) == s["tags"]
            nll = m.loss(sentence, training=False).item()
            assert abs(nll - s["nll"]) <= 1e-9 * abs(s["nll"])
        assert [t.tags for t in tag_corpus(m, sentences)] == [s["tags"] for s in expected]


@pytest.mark.parametrize("name", OLDER_FIXTURES)
def test_older_artifacts_load_and_tag_as_before(tmp_path, name):
    """Fixtures written by the code of each older version
    (tests/fixtures/make_version_fixtures.py): a bilstm-crf with char, morph
    and subword composers and a two-head transformer-crf, with the tags and
    gold-tag losses that code gave."""
    _assert_loads_and_tags_as_recorded(FIXTURES, name, tmp_path)


def test_the_fixture_writer_records_the_current_version(tmp_path, monkeypatch):
    """make_version_fixtures.py, run on this checkout with its output
    directory moved to tmp_path, writes both current-version fixtures and
    their expected tags, and they load and tag as recorded; so the script
    still works when the next version bump needs it."""
    spec = importlib.util.spec_from_file_location("make_version_fixtures",
                                                  FIXTURES / "make_version_fixtures.py")
    writer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(writer)
    out = tmp_path / "fixtures"
    out.mkdir()
    monkeypatch.setattr(writer, "HERE", out)
    writer.main()
    names = [f"v{ARTIFACT_VERSION}_{model}" for model in ("bilstm_crf", "transformer_crf")]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{name}.zip" for name in names] + [f"v{ARTIFACT_VERSION}_expected_tags.json"])
    for name in names:
        _assert_loads_and_tags_as_recorded(out, name, tmp_path)


def test_missing_tensor_is_reported(tmp_path, vocab):
    model = build_model(tiny_cfg("bilstm-crf"), vocab, np.random.default_rng(0))
    src = tmp_path / "ok.zip"
    save_model(model, src)

    def drop_one(raw):
        with np.load(io.BytesIO(raw)) as arrays:
            data = {k: arrays[k] for k in arrays.files}
        data.pop("w_out")
        buf = io.BytesIO()
        np.savez(buf, **data)
        return buf.getvalue()

    dst = tmp_path / "short.zip"
    _tamper(src, dst, edit_npz=drop_one)
    with pytest.raises(ArtifactError, match="w_out"):
        load_model(dst)


def test_shape_mismatch_is_reported(tmp_path, vocab):
    model = build_model(tiny_cfg("bilstm-crf"), vocab, np.random.default_rng(0))
    src = tmp_path / "ok.zip"
    save_model(model, src)

    def reshape_one(raw):
        with np.load(io.BytesIO(raw)) as arrays:
            data = {k: arrays[k] for k in arrays.files}
        data["b_out"] = np.zeros(len(data["b_out"]) + 2)
        buf = io.BytesIO()
        np.savez(buf, **data)
        return buf.getvalue()

    dst = tmp_path / "warped.zip"
    _tamper(src, dst, edit_npz=reshape_one)
    with pytest.raises(ArtifactError, match="shape"):
        load_model(dst)


ALL_SOURCES = ComposerConfig(use_morph=True, use_subword=True, word_dim=16, char_dim=8,
                             char_hidden=6, morph_dim=8, morph_hidden=4, subword_dim=8,
                             subword_hidden=3)


@pytest.mark.parametrize("path", [("hidden_dim",), ("composer", "char_hidden"),
                                  ("composer", "morph_hidden"), ("composer", "subword_hidden")])
@pytest.mark.parametrize("step", [-1, 1])
def test_a_hidden_size_that_disagrees_with_the_stored_block_fails_before_building(
        tmp_path, monkeypatch, vocab, tokenizer, path, step):
    """Each BiLSTM's hidden size is read off the 4H rows of its stored
    block: a manifest one unit off raises ArtifactError naming the field,
    and build_model is never called."""
    model = build_model(tiny_cfg(composer=ALL_SOURCES), vocab, np.random.default_rng(0),
                        tokenizer)
    src = tmp_path / "ok.zip"
    save_model(model, src)

    def edit(manifest):
        parent = manifest if len(path) == 1 else manifest[path[0]]
        parent[path[-1]] += step

    dst = tmp_path / "off.zip"
    _tamper(src, dst, edit_manifest=edit)
    built = []
    monkeypatch.setattr(models, "build_model", lambda *a, **kw: built.append(a))
    with pytest.raises(ArtifactError, match=path[-1]):
        load_model(dst)
    assert built == []


@pytest.mark.parametrize("block,shape", [("b_x", lambda a: a[:, :-1]),
                                         ("W_h", lambda a: a[:1]),
                                         ("b_h", lambda a: a[..., None])])
def test_a_version_5_artifact_whose_four_blocks_do_not_join_is_an_artifact_error(
        tmp_path, block, shape):
    """_upgrade_tensors joins a version-5 BiLSTM's W_x, b_x, b_h and W_h
    along axis 2; parts that do not fit raise ArtifactError, not a numpy
    error."""
    dst = tmp_path / "warped.zip"
    _tamper(FIXTURES / "v5_bilstm_crf.zip", dst,
            edit_npz=_edit_tensor(f"encoder.{block}", shape))
    with pytest.raises(ArtifactError):
        load_model(dst)


def test_tag_corpus_preserves_sentence_structure(corpus, vocab):
    model = build_model(tiny_cfg("bilstm-linear"), vocab,
                        np.random.default_rng(0))
    tagged = tag_corpus(model, corpus[:5])
    assert [s.surfaces for s in tagged] == [s.surfaces for s in corpus[:5]]
    assert all(len(s.tags) == len(s) for s in tagged)


# ---------------------------------------------------------------------------
# packed prediction


def _randomized(model, seed):
    """model with every parameter redrawn at a larger scale, so that scores
    differ between tags and decoding is not decided by ties."""
    rng = np.random.default_rng(seed)
    for t in model.parameters():
        t.data[...] = rng.normal(scale=0.5, size=t.shape)
    return model


def _packed_tags(model, sentences):
    """Each sentence's tags from one packed predict call over all of them."""
    flat = model.predict([w for s in sentences for w in s.surfaces],
                         [m for s in sentences for m in s.morphs],
                         [len(s) for s in sentences])
    starts = np.cumsum([0] + [len(s) for s in sentences])
    return [flat[a:a + len(s)] for a, s in zip(starts, sentences)]


@pytest.mark.parametrize("mask_illegal", [False, True])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_packed_predict_equals_one_predict_per_sentence(corpus, vocab, tokenizer, kind,
                                                        mask_illegal):
    composer = ComposerConfig(word_dim=16, char_dim=8, char_hidden=6, use_morph=True,
                              morph_dim=8, morph_hidden=4)
    model = _randomized(build_model(tiny_cfg(kind, composer=composer, mask_illegal=mask_illegal),
                                    vocab, np.random.default_rng(0), tokenizer), 7)
    sentences = corpus[:30]
    want = [model.predict(s.surfaces, s.morphs) for s in sentences]
    assert len({t for tags in want for t in tags}) > 1  # not one tag throughout
    assert _packed_tags(model, sentences) == want
    assert [s.tags for s in tag_corpus(model, sentences)] == want


def test_an_over_long_transformer_sentence_inside_a_chunk_is_tagged_as_alone(
        corpus, vocab, tokenizer):
    """At max_len 5 some sentences of the chunk span several windows and
    some fit in one; each is tagged as predict on it alone and as the
    windowed reference oracle tags it."""
    cfg = tiny_cfg("transformer-crf", mask_illegal=True)
    cfg.transformer.max_len = 5
    model = _randomized(build_model(cfg, vocab, np.random.default_rng(0), tokenizer), 1)
    sentences = [corpus[0], LabeledSentence(corpus[1].tokens[:1])] + corpus[2:8]
    counts = [_piece_count(tokenizer, s) for s in sentences]
    assert max(counts) > 2 * cfg.transformer.max_len and min(counts) <= cfg.transformer.max_len
    want = [model.predict(s.surfaces) for s in sentences]
    assert _packed_tags(model, sentences) == want
    short = [LabeledSentence(s.tokens[:4]) for s in sentences]
    assert _packed_tags(model, short) == [reference_tags(model, s) for s in short]


def test_tag_corpus_packs_its_sentences_in_chunks(monkeypatch, corpus, vocab):
    """With TAG_CHUNK at 3, ten sentences go to predict as chunks of 3, 3, 3
    and 1, and each is tagged as predict on it alone tags it."""
    model = _randomized(build_model(tiny_cfg("bilstm-crf"), vocab,
                                    np.random.default_rng(0)), 2)
    sentences = corpus[:10]
    want = [model.predict(s.surfaces, s.morphs) for s in sentences]
    monkeypatch.setattr(models, "TAG_CHUNK", 3)
    calls = []
    predict = SequenceTagger.predict

    def recorded(self, words, morphs=None, lengths=None):
        calls.append(lengths)
        return predict(self, words, morphs, lengths)

    monkeypatch.setattr(SequenceTagger, "predict", recorded)
    tagged = tag_corpus(model, sentences)
    assert calls == [[len(s) for s in sentences[k:k + 3]] for k in (0, 3, 6, 9)]
    assert [s.tags for s in tagged] == want
    assert [s.surfaces for s in tagged] == [s.surfaces for s in sentences]
    assert tag_corpus(model, []) == []
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# Unicode normalization


def _nfd(text):
    return text and unicodedata.normalize("NFD", text)


@pytest.mark.parametrize("kind", ["bilstm-crf", "transformer-crf"])
def test_nfd_text_is_tagged_as_its_nfc_form(corpus, vocab, tokenizer, kind):
    composer = ComposerConfig(word_dim=16, char_dim=8, char_hidden=6, use_morph=True,
                              morph_dim=8, morph_hidden=4)
    model = build_model(tiny_cfg(kind, composer=composer), vocab,
                        np.random.default_rng(0), tokenizer)
    sentences = corpus[:20]
    want = [model.predict(s.surfaces, s.morphs) for s in sentences]
    words = [[_nfd(w) for w in s.surfaces] for s in sentences]
    assert any(w != s.surfaces for w, s in zip(words, sentences))
    got = [model.predict(w, [_nfd(m) for m in s.morphs]) for w, s in zip(words, sentences)]
    assert got == want
    decomposed = [LabeledSentence(tuple(Token(_nfd(t.surface), t.gold_tag,
                                              _nfd(t.morph_analysis)) for t in s.tokens))
                  for s in sentences]
    assert [s.tags for s in tag_corpus(model, decomposed)] == want
