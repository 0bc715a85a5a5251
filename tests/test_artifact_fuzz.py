"""Property test of load_model on artifacts whose manifest has one field
deleted or replaced: it returns a model that tags a sentence, or it raises
ArtifactError."""

import copy
import io
import json
import zipfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from seqtag.data import build_vocab
from seqtag.encoders import ComposerConfig, ToyTransformerConfig
from seqtag.errors import ArtifactError
from seqtag.models import TrainConfig, build_model, load_model, save_model
from seqtag.subword import train_unigram
from seqtag.synth import generate_corpus

# Small values only: a manifest that names a huge dimension makes build_model
# allocate it before any tensor shape is checked.
VALUES = [None, 0, -1, 3, 1.5, "x", [], {}, True]
DELETE = "<delete>"

CONFIGS = {
    "bilstm-crf": TrainConfig(
        model_kind="bilstm-crf", hidden_dim=3,
        composer=ComposerConfig(use_morph=True, use_subword=True, word_dim=4,
                                char_dim=3, char_hidden=2, morph_dim=3,
                                morph_hidden=2, subword_dim=3, subword_hidden=2)),
    "transformer-crf": TrainConfig(
        model_kind="transformer-crf",
        transformer=ToyTransformerConfig(num_layers=1, num_heads=2,
                                         hidden_units=4, ff_units=4,
                                         max_len=16, dropout_p=0.0)),
}


def _field_paths(obj, prefix=()):
    """Key paths of every dict entry in the manifest, short of the token
    entries inside a table's vocab."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict) and key != "vocab":
            yield from _field_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def artifacts():
    """Per kind: the saved manifest, the other zip members and one sentence."""
    corpus = generate_corpus(12, seed=2)
    vocab = build_vocab(corpus)
    tokenizer = train_unigram([" ".join(s.surfaces) for s in corpus], 60)
    out = {}
    for kind, cfg in CONFIGS.items():
        buf = io.BytesIO()
        save_model(build_model(cfg, vocab, np.random.default_rng(0), tokenizer), buf)
        with zipfile.ZipFile(buf) as zf:
            members = {name: zf.read(name) for name in zf.namelist()}
        manifest = json.loads(members.pop("manifest.json"))
        out[kind] = (manifest, members, corpus[0])
    return out


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_mutated_manifest_loads_a_working_model_or_raises_artifact_error(
        artifacts, data):
    kind = data.draw(st.sampled_from(sorted(artifacts)), label="kind")
    manifest, members, sentence = artifacts[kind]
    path = data.draw(st.sampled_from(list(_field_paths(manifest))), label="field")
    value = data.draw(st.sampled_from([DELETE] + VALUES), label="value")
    manifest = copy.deepcopy(manifest)
    parent = manifest
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("manifest.json", json.dumps(manifest))
        for name, raw in members.items():
            zf.writestr(name, raw)
    try:
        model = load_model(io.BytesIO(buf.getvalue()))
    except ArtifactError:
        return
    tags = model.predict(sentence.surfaces, sentence.morphs)
    assert len(tags) == len(sentence) and set(tags) <= set(model.tags)
