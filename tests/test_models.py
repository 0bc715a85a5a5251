import gc
import io
import json
import pathlib
import zipfile

import numpy as np
import pytest

from seqtag import autodiff as ad
from seqtag.cli import main
from seqtag.data import (LabeledSentence, Token, build_vocab, serialize_conll,
                         split_corpus, validate_bio2)
from seqtag.encoders import ComposerConfig, ToyTransformerConfig
from seqtag.errors import ArtifactError, ConfigError, UsageError
from seqtag.models import (MODEL_KINDS, SequenceTagger, TrainConfig,
                           build_model, load_model, save_model, tag_corpus)
from seqtag.subword import segment, train_unigram
from seqtag.synth import generate_corpus
from seqtag.training import train


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
    *((name, value) for name in ("epochs", "batch_size", "hidden_dim")
      for value in (1.5, True, "8")),
])
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ConfigError):
        tiny_cfg(**{field: value})


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
    cfg.transformer.max_len = 10  # the longest sentence below is cut short
    if all_composers:
        cfg.composer.use_morph = cfg.composer.use_subword = True
    model = build_model(cfg, vocab, np.random.default_rng(3), tokenizer)
    batch = sorted(corpus[:12], key=len)[::3]
    assert len({len(s) for s in batch}) == len(batch)
    if kind.startswith("transformer"):
        _, covered = model.emission_rows(batch[-1].surfaces)
        assert len(covered) < len(batch[-1])

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
    head = "crf_forward" if kind.endswith("-crf") else "log_sum_exp"
    assert ops.count(head) == 1


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
    model = build_model(tiny_cfg("bilstm-linear"), vocab,
                        np.random.default_rng(3))
    for sentence in corpus[:10]:
        tagged = sentence.with_tags(
            model.predict(sentence.surfaces, mask_illegal=True))
        validate_bio2(tagged, mode="strict")


def test_truncated_words_fall_back_to_outside(vocab, tokenizer):
    cfg = tiny_cfg("transformer-crf")
    cfg.transformer.max_len = 3
    model = build_model(cfg, vocab, np.random.default_rng(0), tokenizer)
    words = ["Meliha", "Ankara", "Galerisi", "sergi", "açıldı", "."]
    tags = model.predict(words)
    assert len(tags) == len(words)
    assert tags[-1] == "O"  # beyond the length limit


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


@pytest.mark.parametrize("version", [0, 3, None, "2", True, 1.0])
def test_versions_other_than_one_and_two_are_rejected(tmp_path, vocab, version):
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
], ids=["transformer-without-tokenizer", "subword-composer-without-tokenizer",
        "heads-not-dividing-hidden-units", "no-composer-source",
        "morph-without-morph-table", "piece-table-disagrees-with-tokenizer"])
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
    model = build_model(tiny_cfg("transformer-crf"), vocab,
                        np.random.default_rng(0), tokenizer)
    src = tmp_path / "ok.zip"
    save_model(model, src)
    dst = tmp_path / "bad.zip"
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for name in zin.namelist():
            zout.writestr(name, text if name == "tokenizer.tsv" else zin.read(name))
    with pytest.raises(ArtifactError, match="tokenizer"):
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


@pytest.mark.parametrize("name", ["v1_bilstm_crf", "v1_transformer_crf"])
def test_version_1_artifacts_load_and_tag_as_before(tmp_path, name):
    """Fixtures written by the version-1 code (tests/fixtures/make_v1_fixtures.py):
    a bilstm-crf with char, morph and subword composers and a two-head
    transformer-crf, with the tags and gold-tag losses that code gave."""
    with open(FIXTURES / "v1_expected_tags.json", encoding="utf-8") as fh:
        expected = json.load(fh)[name]
    model = load_model(FIXTURES / f"{name}.zip")
    save_model(model, tmp_path / "v2.zip")
    resaved = load_model(tmp_path / "v2.zip")
    for s in expected:
        sentence = LabeledSentence(tuple(
            Token(w, t, m) for w, t, m in zip(s["words"], s["gold"], s["morphs"])))
        for m in (model, resaved):
            assert m.predict(s["words"], s["morphs"]) == s["tags"]
            nll = m.loss(sentence, training=False).item()
            assert abs(nll - s["nll"]) <= 1e-9 * abs(s["nll"])


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


def test_tag_corpus_preserves_sentence_structure(corpus, vocab):
    model = build_model(tiny_cfg("bilstm-linear"), vocab,
                        np.random.default_rng(0))
    tagged = tag_corpus(model, corpus[:5])
    assert [s.surfaces for s in tagged] == [s.surfaces for s in corpus[:5]]
    assert all(len(s.tags) == len(s) for s in tagged)
