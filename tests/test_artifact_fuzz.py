"""Property test of load_model on artifacts whose manifest has one field
deleted or replaced: it returns a model that tags a sentence, or it raises
ArtifactError, and either way it allocates little."""

import copy
import io
import json
import math
import tracemalloc
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

# The large values would ask for gigabytes if a dimension they name were
# allocated before it is checked against the stored tensors.
LARGE = [400_000, 10**9]
VALUES = [None, 0, -1, 3, 1.5, "x", [], {}, True] + LARGE
DELETE = "<delete>"
# peak bytes one load may allocate; loading either artifact unchanged takes
# about 0.2 MB
LOAD_BUDGET = 2_000_000

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
    try:
        model = _load_measured(manifest, members)
    except ArtifactError:
        return
    tags = model.predict(sentence.surfaces, sentence.morphs)
    assert len(tags) == len(sentence) and set(tags) <= set(model.tags)


def _load_measured(manifest, members):
    """load_model on an artifact with this manifest and these other members,
    deflated as save_model deflates them, asserting that it allocates at most
    LOAD_BUDGET bytes at its peak, whether it returns or raises."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("manifest.json", json.dumps(manifest))
        for name, raw in members.items():
            zf.writestr(name, raw)
    raw = buf.getvalue()
    tracemalloc.start()
    try:
        return load_model(io.BytesIO(raw))
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= LOAD_BUDGET, f"load_model allocated {peak} bytes"


# every manifest field that sizes a tensor of the model kind
DIMENSIONS = {
    "bilstm-crf": [("hidden_dim",)] + [
        ("composer", f"{source}_{part}") for source in ("word", "char", "morph", "subword")
        for part in ("dim", "hidden") if (source, part) != ("word", "hidden")],
    "transformer-crf": [("transformer", name) for name in
                        ("num_layers", "num_heads", "hidden_units", "ff_units", "max_len")],
}


@pytest.mark.parametrize("kind,path,value", [
    (kind, path, value) for kind, paths in DIMENSIONS.items() for path in paths
    for value in LARGE])
def test_a_large_dimension_fails_before_it_is_allocated(artifacts, kind, path, value):
    manifest, members, _ = artifacts[kind]
    manifest = copy.deepcopy(manifest)
    parent = manifest
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ArtifactError):
        _load_measured(manifest, members)


def test_a_long_tag_list_fails_before_it_is_allocated(artifacts):
    """Two thousand tags would make a 32 MB transition table."""
    manifest, members, _ = artifacts["transformer-crf"]
    manifest = dict(manifest, tags=["O"] + [f"B-X{i}" for i in range(2000)])
    with pytest.raises(ArtifactError, match="tag count"):
        _load_measured(manifest, members)


def test_a_table_vocabulary_longer_than_its_stored_rows_is_rejected_first(artifacts):
    manifest, members, _ = artifacts["bilstm-crf"]
    manifest = copy.deepcopy(manifest)
    vocab = manifest["tables"]["word"]["vocab"]
    vocab.update({f"extra{i}": len(vocab) + i for i in range(1000)})
    with pytest.raises(ArtifactError, match="tables.word size"):
        _load_measured(manifest, members)


def test_a_tokenizer_longer_than_the_stored_piece_table_is_rejected_first(artifacts):
    """Twenty thousand pieces would make a piece table of 40,002 rows."""
    manifest, members, _ = artifacts["transformer-crf"]
    logprob = -math.log(20_000)
    pieces = "".join(f"p{i}\t{logprob!r}\n" for i in range(20_000))
    with pytest.raises(ArtifactError, match="tokenizer"):
        _load_measured(manifest, {**members, "tokenizer.tsv": pieces.encode()})


def test_a_deflated_tokenizer_bomb_is_rejected_before_it_is_inflated(artifacts):
    """Twenty megabytes of spaces deflate to about 20 KB; the stored piece
    table allows the tokenizer a few kilobytes."""
    manifest, members, _ = artifacts["transformer-crf"]
    with pytest.raises(ArtifactError, match="tokenizer.tsv"):
        _load_measured(manifest, {**members, "tokenizer.tsv": b" " * 20_000_000})
