"""Sequence tagging models and their on-disk artifact format.

Four model kinds share one interface: a recurrent or attention encoder over
composed token inputs feeds a per-position linear projection to tag scores,
trained by crf_nll and decoded by Viterbi over a learned transition table
(structured kinds) or an all-zero one (per-position softmax).  Trained
models round-trip through a versioned zip artifact with named float64
tensors and UTF-8 vocabulary tables.  load_model rebuilds a saved model
with build_model, so a manifest that does not describe a model build_model
can make is an ArtifactError.
"""

from __future__ import annotations

import io
import json
import math
import zipfile
import zlib
from dataclasses import dataclass, field, asdict
from itertools import islice

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .crf import CRFParams, crf_nll, illegal_mask, viterbi_decode
from .data import LabeledSentence, TagSet, Vocabulary, nfc_word
from .encoders import (SOURCES, BiLSTM, ComposerConfig, InputComposer,
                       ToyTransformerConfig, TransformerParams,
                       _require_bools, _require_positive_ints, _require_reals,
                       transformer_encode, xavier_uniform)
from .errors import (ArtifactError, ConfigError, ParseError, UsageError,
                     ValidationError)
from .subword import MARKER, UnigramVocab, segment, vocab_from_text, vocab_to_text

MODEL_KINDS = ("bilstm-crf", "bilstm-linear", "transformer-crf",
               "transformer-linear")
OPTIMIZER_KINDS = ("sgd-momentum", "adam-decoupled-decay")
ARTIFACT_VERSION = 6
# load_model reads no artifact member past these sizes: manifest.json and
# tensors.npz have fixed caps, and tokenizer.tsv may hold one line of at
# most TOKENIZER_LINE_MAX_BYTES per row of the stored piece table
MANIFEST_MAX_BYTES = 16 * 2**20
TENSORS_MAX_BYTES = 512 * 2**20
TOKENIZER_LINE_MAX_BYTES = 1024


@dataclass
class TrainConfig:
    """Everything a training run needs beyond the corpus itself."""

    model_kind: str = "bilstm-crf"
    composer: ComposerConfig = field(default_factory=ComposerConfig)
    optimizer: str = "sgd-momentum"
    lr: float | None = None  # None: 0.05 for sgd-momentum, 5e-5 for adam
    momentum: float = 0.9
    clip_norm: float = 5.0
    dropout_p: float = 0.5
    epochs: int = 30
    lambda_l2: float = 1e-8
    seed: int = 0
    batch_size: int | None = None  # None: 1 for bilstm kinds, 32 for transformer
    hidden_dim: int = 256  # sentence encoder units per direction
    transformer: ToyTransformerConfig = field(default_factory=ToyTransformerConfig)
    subword_vocab_size: int = 200
    min_count: int = 1
    mask_illegal: bool = False

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model_kind!r}; "
                              f"expected one of {', '.join(MODEL_KINDS)}")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; "
                              f"expected one of {', '.join(OPTIMIZER_KINDS)}")
        if self.lr is None:
            self.lr = 0.05 if self.optimizer == "sgd-momentum" else 5e-5
        if self.batch_size is None:
            self.batch_size = 1 if self.model_kind.startswith("bilstm") else 32
        _require_reals(self, ("lr", "momentum", "clip_norm", "dropout_p", "lambda_l2"))
        for name in ("lr", "clip_norm"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p must lie in [0, 1)")
        _require_positive_ints(self, ("epochs", "batch_size", "hidden_dim", "min_count",
                                      "subword_vocab_size"))
        _require_bools(self, ("mask_illegal",))
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not 0.0 <= self.lambda_l2 < math.inf:
            raise ConfigError("lambda_l2 must be non-negative and finite")


@dataclass(eq=False)
class SequenceTagger:
    """One trained (or trainable) tagging model.

    BiLSTM kinds run the input composer over every token and encode the
    sentence with a bidirectional recurrent pass; transformer kinds segment
    each word into subword pieces, encode the piece sequence with
    self-attention, and read word features off each word's first piece.
    mask_illegal is read whenever a loss is built or a sentence decoded.
    """

    kind: str
    tags: TagSet
    dropout_p: float
    mask_illegal: bool
    w_out: Tensor  # (features, tags): (in, out), as every matmul weight
    b_out: Tensor
    composer: InputComposer | None = None
    encoder: BiLSTM | None = None
    crf: CRFParams | None = None
    tokenizer: UnigramVocab | None = None
    transformer_cfg: ToyTransformerConfig | None = None
    transformer: TransformerParams | None = None
    hidden_dim: int = 0

    def __post_init__(self):
        T = len(self.tags)
        # linear kinds train and decode as a CRF with constant zero transitions
        self._zero_crf = CRFParams(Tensor(np.zeros((T + 1, T + 1))))
        self._illegal = illegal_mask(list(self.tags))

    def _mask(self) -> np.ndarray | None:
        """The BIO2 mask if mask_illegal is set now, else None."""
        return self._illegal if self.mask_illegal else None

    # ------------------------------------------------------------------
    # parameters

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name in ("composer", "encoder", "transformer", "w_out", "b_out", "crf"):
            part = getattr(self, name)
            if isinstance(part, Tensor):
                out[name] = part
            elif part is not None:
                out.update(part.named_parameters(name + "."))
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    # ------------------------------------------------------------------
    # forward

    def _project(self, h: Tensor) -> Tensor:
        """Emission rows (n, T) of the (n, F) feature rows h."""
        return ad.matmul(h, self.w_out) + self.b_out

    def _bilstm_features(self, words, morphs, lengths, training, rng):
        pieces = None
        if self.composer.cfg.use_subword:
            pieces = [segment(self.tokenizer, word) for word in words]
        x = self.composer.compose_input(words, morphs or None, pieces)
        x = ad.dropout(x, self.dropout_p, training, rng)
        return self.encoder.encode(x, lengths)

    def _transformer_features(self, words, lengths, training, rng):
        # each sentence's pieces are encoded as consecutive windows of at most
        # max_len pieces, and each word reads the row of its first piece,
        # wherever the window boundaries fall
        table = self.transformer.piece_table
        max_len = self.transformer_cfg.max_len
        ids: list[int] = []  # pieces of all sentences, back to back
        windows: list[int] = []  # pieces per window
        first_rows: list[int] = []  # hidden row of each word's first piece
        start = 0  # words of the earlier sentences
        for n in lengths:
            begin = len(ids)
            for word in words[start:start + n]:
                first_rows.append(len(ids))
                ids.extend(table.id_of(p) for p in segment(self.tokenizer, word))
            windows.extend(min(max_len, len(ids) - k) for k in range(begin, len(ids), max_len))
            start += n
        hidden = transformer_encode(self.transformer_cfg, self.transformer,
                                    ids, training, rng, windows)
        return ad.gather_rows(hidden, first_rows)

    def emission_rows(self, words: list[str], morphs=None, training: bool = False,
                      rng: np.random.Generator | None = None, lengths=None):
        """The (n, T) tag scores of the n words, one row per word, as one
        tensor, plus the indices of the words they cover, which are all of
        them.

        words holds one sentence, or several back to back, with lengths
        giving each one's word count; morphs, if given, runs parallel to
        words.  Words and morphs are read in Unicode NFC, and one that is
        empty or holds whitespace raises ValidationError (data.nfc_word); an
        empty or None morph means the word has none.  All sentences are
        encoded in one graph; a transformer kind encodes a sentence of more
        than max_len pieces as consecutive windows of max_len pieces.
        """
        words = [nfc_word(w, "word") for w in words]
        if morphs:
            morphs = [m and nfc_word(m, "morphological analysis") for m in morphs]
        lengths = ad.checked_lengths(lengths, len(words)).tolist()
        if training and rng is None:
            raise UsageError("training mode requires an rng for dropout")
        if self.kind.startswith("bilstm"):
            features = self._bilstm_features(words, morphs, lengths, training, rng)
        else:
            features = self._transformer_features(words, lengths, training, rng)
        return self._project(features), list(range(len(words)))

    # ------------------------------------------------------------------
    # loss and decoding

    def loss(self, *sentences: LabeledSentence, training: bool = True,
             rng: np.random.Generator | None = None) -> Tensor:
        """Summed negative log-likelihood of the sentences' gold labelings.

        The whole mini-batch is one graph: one encoder pass over all its
        sentences, then one crf_nll over their emission matrix.  A CRF
        kind reads each sentence's words as one packed sequence; a linear
        kind reads each word as a one-row sequence over the zero
        transitions, unmasked, which is the summed softmax cross-entropy.
        """
        if not sentences:
            raise UsageError("loss needs at least one sentence")
        words = [w for s in sentences for w in s.surfaces]
        morphs = [m for s in sentences for m in s.morphs]
        labels = [self.tags.id_of(t) for s in sentences for t in s.tags]
        sizes = [len(s) for s in sentences]
        emissions, _ = self.emission_rows(words, morphs, training, rng, sizes)
        if self.crf is None:
            return crf_nll(self._zero_crf, emissions, labels, None, [1] * len(labels))
        return crf_nll(self.crf, emissions, labels, self._mask(), sizes)

    def predict(self, words: list[str], morphs=None, lengths=None) -> list[str]:
        """Tag strings for one sentence, or with lengths for several back
        to back (lengths[b] words each, as for emission_rows), in word order.

        All sentences are encoded in one no-grad emission_rows pass, and
        its emission matrix goes whole to one packed viterbi_decode call.
        The decode treats each sentence as a call on it alone would; a
        BiLSTM kind's emission rows may differ from that call's in the last
        bits.
        """
        if not words:
            return []
        with ad.no_grad():
            emissions, _ = self.emission_rows(words, morphs, training=False, lengths=lengths)
        ids = viterbi_decode(self.crf or self._zero_crf, emissions, self._mask(), lengths)
        return [self.tags.tag_of(i) for i in ids]


# sentences per packed predict call when tag_words tags many
TAG_CHUNK = 64


def tag_words(model: SequenceTagger, sentences: list[list[str]],
              morphs: list | None = None) -> list[list[str]]:
    """The tags of each word list in sentences, in order, predicted
    TAG_CHUNK sentences per packed model.predict call.  morphs, if given,
    holds each sentence's analyses, parallel to sentences."""
    tags: list[list[str]] = []
    for lo in range(0, len(sentences), TAG_CHUNK):
        chunk = sentences[lo:lo + TAG_CHUNK]
        chunk_morphs = None if morphs is None else [
            m for analyses in morphs[lo:lo + TAG_CHUNK] for m in analyses]
        lengths = [len(words) for words in chunk]
        flat = iter(model.predict([w for words in chunk for w in words],
                                  chunk_morphs, lengths))
        tags += [list(islice(flat, n)) for n in lengths]
    return tags


def tag_corpus(model: SequenceTagger,
               sentences: list[LabeledSentence]) -> list[LabeledSentence]:
    """Each sentence with the model's tags in place of its own (tag_words)."""
    tags = tag_words(model, [s.surfaces for s in sentences], [s.morphs for s in sentences])
    return [s.with_tags(t) for s, t in zip(sentences, tags)]


def _marked_piece_tokens(tokenizer: UnigramVocab) -> list[str]:
    """Embedding entries for every piece in both word-initial and inner form."""
    out = []
    for piece in tokenizer.pieces:
        out.append(MARKER + piece)
        out.append(piece)
    return out


def needs_tokenizer(cfg: TrainConfig) -> bool:
    """Whether the configured model segments words into subword pieces."""
    return cfg.model_kind.startswith("transformer") or cfg.composer.use_subword


def build_model(cfg: TrainConfig, vocab: Vocabulary,
                rng: np.random.Generator,
                tokenizer: UnigramVocab | None = None) -> SequenceTagger:
    """Freshly initialized model of the configured kind."""
    tags = vocab.tags
    T = len(tags)
    kind = cfg.model_kind
    if needs_tokenizer(cfg) and tokenizer is None:
        raise UsageError(f"model kind {kind!r} with this composer needs a "
                         "subword tokenizer")
    kw = {}
    if kind.startswith("bilstm"):
        piece_tokens = _marked_piece_tokens(tokenizer) if cfg.composer.use_subword else ()
        composer = InputComposer.build(cfg.composer, rng,
                                       {"word": vocab.word, "char": vocab.char,
                                        "morph": vocab.morph_char, "subword": piece_tokens})
        encoder = BiLSTM.init(cfg.composer.output_dim, cfg.hidden_dim, rng)
        feature_dim = 2 * cfg.hidden_dim
        kw.update(composer=composer, encoder=encoder,
                  tokenizer=tokenizer if cfg.composer.use_subword else None)
    else:
        transformer = TransformerParams.init(cfg.transformer,
                                             _marked_piece_tokens(tokenizer), rng)
        feature_dim = cfg.transformer.hidden_units
        kw.update(transformer_cfg=cfg.transformer, transformer=transformer,
                  tokenizer=tokenizer)
    w_out = Tensor(np.ascontiguousarray(xavier_uniform(rng, T, feature_dim).T),
                   requires_grad=True)  # drawn (T, F), stored (F, T)
    b_out = Tensor(np.zeros(T), requires_grad=True)
    crf = CRFParams.init(T, rng) if kind.endswith("-crf") else None
    return SequenceTagger(kind, tags, cfg.dropout_p, cfg.mask_illegal,
                          w_out, b_out, crf=crf, hidden_dim=cfg.hidden_dim, **kw)


# ---------------------------------------------------------------------------
# artifact persistence


def _table_entries(model: SequenceTagger) -> dict:
    """The manifest's tables block: each embedding table's token ids, width
    and reserved ids, or None for a table the model does not have."""
    tables = {table.removesuffix("_table"): getattr(model.composer, table, None)
              for _, table, _ in SOURCES}
    tables["transformer_piece"] = getattr(model.transformer, "piece_table", None)
    return {name: None if table is None else
            {"vocab": table.vocab, "dim": table.dim,
             "pad_id": table.pad_id, "unk_id": table.unk_id}
            for name, table in tables.items()}


def save_model(model: SequenceTagger, path) -> None:
    """Write the model to a zip artifact at path: manifest.json, then
    tokenizer.tsv if the model has a tokenizer, both deflated, then
    tensors.npz, stored uncompressed: deflate shrinks float tensors by a
    few percent, and inflating them would be about half of a load.
    load_model reads either method for each member."""
    named = model.named_parameters()
    manifest = {
        "format_version": ARTIFACT_VERSION,
        "kind": model.kind,
        "tags": list(model.tags),
        "dropout_p": model.dropout_p,
        "mask_illegal": model.mask_illegal,
        "hidden_dim": model.hidden_dim,
        "composer": asdict(model.composer.cfg) if model.composer else None,
        "transformer": asdict(model.transformer_cfg) if model.transformer_cfg else None,
        "tables": _table_entries(model),
        "tensors": sorted(named),
    }
    buf = io.BytesIO()
    np.savez(buf, **{name: t.data for name, t in named.items()})
    members = {"manifest.json": json.dumps(manifest, ensure_ascii=False, indent=1)}
    if model.tokenizer is not None:
        members["tokenizer.tsv"] = vocab_to_text(model.tokenizer)
    members["tensors.npz"] = buf.getvalue()
    with zipfile.ZipFile(path, "w") as zf:
        for name, content in members.items():
            # a fixed date, as np.savez gives its members: equal models, equal bytes
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.external_attr = 0o600 << 16  # rw-------, as writestr gives a bare name
            zf.writestr(info, content, zipfile.ZIP_STORED if name == "tensors.npz"
                        else zipfile.ZIP_DEFLATED)


def _upgrade_tensors(arrays: dict, version: int, num_heads: int) -> dict:
    """Tensors of an artifact of an earlier version in the current layout.

    Version 1 kept sixteen per-gate tensors per LSTM direction (W_ii, W_hi,
    ..., b_ho) and one attention projection per head (Wq.0, Wq.1, ...); each
    group is concatenated in gate or head order into its stacked block.
    Versions 1 and 2 stored w_out and each transformer layer's Wq, Wk, Wv,
    Wo, W_ff1 and W_ff2 as (out, in); each is transposed to (in, out).
    Versions 1 to 3 kept a layer's Wq, Wk and Wv apart; after the steps
    above, the three (in, out) weights are joined side by side into its
    Wqkv.  Versions 1 to 4 kept each BiLSTM direction apart, as P.fwd.X
    and P.bwd.X; each pair is stacked, forward first, into P.X.  Versions 1
    to 5 kept each BiLSTM as four blocks, P.W_x, P.W_h, P.b_x and P.b_h;
    they are joined along axis 2 into its one block P.W = [W_x | b_x | b_h
    | W_h]."""
    out = dict(arrays)
    for name in arrays:
        if name.endswith("W_ii"):
            prefix = name[:-len("W_ii")]
            for block, side in (("W_x", "W_i"), ("W_h", "W_h"), ("b_x", "b_i"), ("b_h", "b_h")):
                out[prefix + block] = np.concatenate(
                    [out.pop(prefix + side + gate) for gate in "ifgo"])
        elif name.endswith("Wq.0"):
            prefix = name[:-len("Wq.0")]
            for proj in ("Wq", "Wk", "Wv"):
                out[prefix + proj] = np.concatenate(
                    [out.pop(f"{prefix}{proj}.{h}") for h in range(num_heads)])
    if version < 3:
        for name, arr in out.items():
            if name.rpartition(".")[2] in ("w_out", "Wq", "Wk", "Wv", "Wo", "W_ff1", "W_ff2"):
                out[name] = np.ascontiguousarray(arr.T)
    for name in [name for name in out if name.endswith(".Wq")]:
        prefix = name[:-len("Wq")]
        out[prefix + "Wqkv"] = np.concatenate(
            [out.pop(prefix + proj) for proj in ("Wq", "Wk", "Wv")], axis=1)
    for name in [name for name in out if ".fwd." in name]:
        prefix, _, block = name.rpartition("fwd.")
        out[prefix + block] = np.stack([out.pop(name), out.pop(prefix + "bwd." + block)])
    for name in [name for name in out if name.endswith(".W_x")]:
        prefix = name[:-len("W_x")]
        w_x, b_x, b_h, w_h = (out.pop(prefix + block) for block in ("W_x", "b_x", "b_h", "W_h"))
        out[prefix + "W"] = np.concatenate([w_x, b_x[..., None], b_h[..., None], w_h], axis=2)
    return out


# the stored tensor whose rows each manifest table's vocabulary gives
_TABLE_TENSORS = {table.removesuffix("_table"): "composer." + table for _, table, _ in SOURCES}
_TABLE_TENSORS["transformer_piece"] = "transformer.piece_table"


def _check_sizes(cfg: TrainConfig, num_tags: int, table_sizes: dict,
                 arrays: dict) -> None:
    """Raise ArtifactError unless every size the manifest gives to a tensor
    build_model allocates, a configured dimension, the tag count or a
    table's vocabulary size, equals that tensor's stored extent; a BiLSTM's
    hidden size is read off the 4H rows of its block.  So a manifest cannot
    make load_model allocate more than its tensors hold."""
    # (size, given, tensor, axis, stored rows per unit of the size)
    checks = [("tag count", num_tags, "b_out", 0, 1)]
    checks += [(f"tables.{name} size", size, _TABLE_TENSORS.get(name), 0, 1)
               for name, size in table_sizes.items()]
    if cfg.model_kind.startswith("transformer"):
        t = cfg.transformer
        layers = sum(1 for name in arrays
                     if name.startswith("transformer.layer") and name.endswith(".Wqkv"))
        if t.num_layers != layers:
            raise ArtifactError(f"manifest transformer.num_layers is {t.num_layers!r}, "
                                f"but {layers} layers are stored")
        checks += [("transformer.max_len", t.max_len, "transformer.positions", 0, 1),
                   ("transformer.hidden_units", t.hidden_units, "transformer.positions", 1, 1),
                   ("transformer.ff_units", t.ff_units, "transformer.layer0.W_ff1", 1, 1)]
    else:
        c = cfg.composer
        checks.append(("hidden_dim", cfg.hidden_dim, "encoder.W", 1, 4))
        for source, table, bilstm in c.sources:
            checks.append((f"composer.{source}_dim", getattr(c, source + "_dim"),
                           f"composer.{table}", 1, 1))
            if bilstm:
                checks.append((f"composer.{source}_hidden", getattr(c, source + "_hidden"),
                               f"composer.{bilstm}.W", 1, 4))
    for size, given, tensor, axis, per in checks:
        arr = arrays.get(tensor)
        if arr is None or arr.ndim <= axis or arr.shape[axis] != per * given:
            stored = "is missing" if arr is None else f"has shape {arr.shape}"
            raise ArtifactError(f"manifest {size} is {given!r}, but stored tensor "
                                f"{tensor!r} {stored}")


def _read_member(zf: zipfile.ZipFile, name: str, cap: int) -> bytes:
    """The bytes of member name, refused before decompression when its
    stored size exceeds cap, and read no further than cap + 1 bytes."""
    size = zf.getinfo(name).file_size
    if size > cap:
        raise ArtifactError(f"artifact member {name!r} holds {size} bytes, "
                            f"more than the {cap} it may")
    try:
        with zf.open(name) as fh:
            raw = fh.read(cap + 1)
    except (zipfile.BadZipFile, zlib.error, EOFError) as exc:
        raise ArtifactError(f"not a model artifact: {exc}") from exc
    if len(raw) > cap:
        raise ArtifactError(f"artifact member {name!r} holds more than "
                            f"{cap} bytes")
    return raw


def _read_tensors(npz_bytes: bytes) -> dict:
    """The arrays of tensors.npz, as np.load gives them, each .npy header
    read before its data: a shape and dtype that ask for more bytes than
    the member stores, or for more than TENSORS_MAX_BYTES over all members,
    raise ArtifactError before anything is allocated for them."""
    readers = {(1, 0): np.lib.format.read_array_header_1_0,
               (2, 0): np.lib.format.read_array_header_2_0}
    arrays, total = {}, 0
    with zipfile.ZipFile(io.BytesIO(npz_bytes)) as npz:
        for info in npz.infolist():
            with npz.open(info) as fh:
                try:
                    shape, fortran, dtype = readers[np.lib.format.read_magic(fh)](fh)
                except (KeyError, ValueError) as exc:
                    raise ArtifactError(f"artifact tensor {info.filename!r} is not "
                                        f"a .npy array: {exc!r}") from exc
                size = math.prod(shape) * dtype.itemsize
                total += size
                if size > info.file_size or total > TENSORS_MAX_BYTES:
                    raise ArtifactError(f"artifact tensor {info.filename!r} declares "
                                        f"{size} bytes in a member of {info.file_size}")
                data = bytearray(fh.read(size))  # a short read fails the reshape
            arrays[info.filename.removesuffix(".npy")] = np.frombuffer(
                data, dtype).reshape(shape, order="F" if fortran else "C")
    return arrays


def _read_tokenizer(cfg: TrainConfig, zf: zipfile.ZipFile,
                    arrays: dict) -> UnigramVocab | None:
    """The artifact's tokenizer, or None.  Each piece takes a row of its own
    in the piece table build_model makes from it, so tokenizer.tsv is read
    no further than TOKENIZER_LINE_MAX_BYTES per stored row, and a file of
    more lines than the stored table has rows is rejected before it is
    parsed.  A model without a piece table takes no tokenizer."""
    if "tokenizer.tsv" not in zf.namelist():
        return None
    name = ("transformer" if cfg.model_kind.startswith("transformer")
            else "composer") + ".piece_table"
    rows = 0
    if needs_tokenizer(cfg) and name in arrays and arrays[name].ndim:
        rows = arrays[name].shape[0]
    raw = _read_member(zf, "tokenizer.tsv", rows * TOKENIZER_LINE_MAX_BYTES)
    if raw.count(b"\n") > rows:
        raise ArtifactError(f"artifact tokenizer has more pieces than the "
                            f"{rows} rows of stored tensor {name!r}")
    try:
        return vocab_from_text(raw.decode("utf-8"))
    except (ParseError, ValidationError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"corrupt artifact tokenizer: {exc}") from exc


def load_model(path) -> SequenceTagger:
    """Read a model artifact of any version from 1 to ARTIFACT_VERSION;
    raises ArtifactError on anything malformed.

    The stored tensors are read first, and every size the manifest gives
    to one of them must match it; the tokenizer may list no more pieces
    than the stored piece table has rows.  No member is read past its cap
    (MANIFEST_MAX_BYTES, TENSORS_MAX_BYTES, and TOKENIZER_LINE_MAX_BYTES
    per piece-table row).  build_model then makes the model from the
    config, tags and tables the manifest names, and the stored tensors, in
    the current layout (_upgrade_tensors), replace its initial weights.
    The rebuilt tables must reproduce the manifest's exactly."""
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        raise ArtifactError(f"not a model artifact: {exc}") from exc
    with zf:
        return _load_zip(zf)


def _load_zip(zf: zipfile.ZipFile) -> SequenceTagger:
    names = set(zf.namelist())
    if "manifest.json" not in names or "tensors.npz" not in names:
        raise ArtifactError("artifact is missing manifest.json or "
                            "tensors.npz")
    try:
        manifest = json.loads(_read_member(zf, "manifest.json",
                                           MANIFEST_MAX_BYTES).decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"corrupt artifact manifest: {exc}") from exc
    npz_bytes = _read_member(zf, "tensors.npz", TENSORS_MAX_BYTES)
    if not isinstance(manifest, dict):
        raise ArtifactError("corrupt artifact manifest: not a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or not 1 <= version <= ARTIFACT_VERSION:
        raise ArtifactError(f"artifact format version {version!r} is not "
                            f"supported; this build reads versions 1 to "
                            f"{ARTIFACT_VERSION}")
    try:
        cfg = TrainConfig(
            model_kind=manifest["kind"],
            composer=ComposerConfig(**(manifest["composer"] or {})),
            transformer=ToyTransformerConfig(**(manifest["transformer"] or {})),
            # transformer kinds do not use hidden_dim; earlier builds that
            # loaded and re-saved such an artifact stored 0 there
            hidden_dim=manifest["hidden_dim"] or TrainConfig.hidden_dim,
            dropout_p=manifest["dropout_p"],
            mask_illegal=manifest["mask_illegal"])
        tables = manifest["tables"]
        table_sizes = {name: len(tables[name]["vocab"]) for name in tables
                       if tables[name]}
        word, char, morph = (list(tables[name]["vocab"]) if tables[name] else []
                             for name in ("word", "char", "morph"))
        vocab = Vocabulary(word, char, morph, TagSet(list(manifest["tags"])))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ArtifactError(f"artifact manifest does not describe a model "
                            f"build_model can make: {exc!r}") from exc
    try:
        arrays = _read_tensors(npz_bytes)
        if version < ARTIFACT_VERSION:
            arrays = _upgrade_tensors(arrays, version, cfg.transformer.num_heads)
    except ArtifactError:
        raise
    except (zipfile.BadZipFile, zlib.error, OSError, EOFError, KeyError,
            ValueError) as exc:
        raise ArtifactError(f"corrupt artifact tensors: {exc!r}") from exc
    _check_sizes(cfg, len(vocab.tags), table_sizes, arrays)
    tokenizer = _read_tokenizer(cfg, zf, arrays)
    try:
        # placeholder weights, overwritten below
        model = build_model(cfg, vocab, np.random.default_rng(0), tokenizer)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ArtifactError(f"artifact manifest does not describe a model "
                            f"build_model can make: {exc!r}") from exc
    if _table_entries(model) != tables:
        raise ArtifactError("artifact tables do not match the tables its "
                            "config, vocabulary and tokenizer give")
    named = model.named_parameters()
    if set(arrays) != set(named):
        missing = sorted(set(named) - set(arrays))
        extra = sorted(set(arrays) - set(named))
        raise ArtifactError(f"artifact tensors do not match the manifest "
                            f"(missing {missing}, unexpected {extra})")
    for name, tensor in named.items():
        arr = arrays[name]
        if arr.dtype.kind != "f":
            raise ArtifactError(f"tensor {name!r} has dtype {arr.dtype}, "
                                f"expected floating point")
        if arr.shape != tensor.data.shape:
            raise ArtifactError(f"tensor {name!r} has shape {arr.shape}, "
                                f"expected {tensor.data.shape}")
        if not np.all(np.isfinite(arr)):
            raise ArtifactError(f"tensor {name!r} holds non-finite values")
        tensor.data = arr.astype(np.float64, copy=False)
    return model
