"""Embedding composition and sequence encoders.

A token can be represented by up to four concatenated sources: a word vector,
a character-BiLSTM summary, a morphological-analysis-BiLSTM summary, and a
subword-piece-BiLSTM summary.  Sentences are then encoded either by a
bidirectional LSTM or by a small trainable transformer encoder.

Every BiLSTM runs as one fused autodiff op (autodiff.lstm_scan) that steps
both directions together over sequences packed back to back: a composer
summarizes all words it is given in one scan, and the sentence encoder scans
every sentence of a mini-batch in one.  A BiLSTM stores each of its four
weights with both directions stacked, as the op reads them.  The transformer
packs the pieces of a mini-batch into one matrix the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, UsageError


def xavier_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


# ---------------------------------------------------------------------------
# embedding tables


class EmbeddingTable:
    """Token-to-vector map; row 0 is padding and row 1 the unknown token."""

    pad_id = 0
    unk_id = 1

    def __init__(self, vocab: dict[str, int], dim: int, rng: np.random.Generator):
        self.vocab = vocab
        self.dim = dim
        self.matrix = Tensor(rng.uniform(-0.1, 0.1, size=(len(vocab), dim)), requires_grad=True)

    @classmethod
    def from_tokens(cls, tokens, dim: int, rng: np.random.Generator) -> "EmbeddingTable":
        """Table over <pad>, <unk> and then the given tokens, each once, its
        rows drawn uniform in [-0.1, 0.1]."""
        keys = dict.fromkeys(("<pad>", "<unk>", *tokens))
        return cls({tok: i for i, tok in enumerate(keys)}, dim, rng)

    def id_of(self, token: str) -> int:
        return self.vocab.get(token, self.unk_id)


# ---------------------------------------------------------------------------
# LSTM


@dataclass
class BiLSTM:
    """Gate weights of both LSTM directions, index 0 forward and 1 backward,
    each direction stacked in row bands of H for the input, forget, cell and
    output gates: W_x (2, 4H, D), W_h (2, 4H, H), b_x (2, 4H) and b_h (2, 4H),
    the blocks autodiff.lstm_scan reads as stored.

    Both bias vectors are kept, so every gate has an input-side and a
    hidden-side bias; the forget gate's hidden-side one carries the usual
    init of 1.
    """

    W_x: Tensor
    W_h: Tensor
    b_x: Tensor
    b_h: Tensor

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> "BiLSTM":
        H = hidden_dim
        # direction by direction, then gate by gate, an input-side then a
        # hidden-side matrix: seeded models depend on this draw order
        drawn = [[xavier_uniform(rng, H, cols) for _ in range(4) for cols in (input_dim, H)]
                 for _ in range(2)]
        b_h = np.zeros((2, 4 * H))
        b_h[:, H:2 * H] = 1.0
        return cls(W_x=Tensor(np.stack([np.concatenate(d[0::2]) for d in drawn]),
                              requires_grad=True),
                   W_h=Tensor(np.stack([np.concatenate(d[1::2]) for d in drawn]),
                              requires_grad=True),
                   b_x=Tensor(np.zeros((2, 4 * H)), requires_grad=True),
                   b_h=Tensor(b_h, requires_grad=True))

    def encode(self, x: Tensor, lengths=None) -> Tensor:
        """Per-position concatenation of forward and backward hidden states.

        x is (n, D): the rows of one sequence, or of several back to back, with
        lengths giving each one's row count.  The result is (n, 2H), row for row.
        """
        return ad.lstm_scan(x, lengths, self.W_x, self.W_h, self.b_x, self.b_h)

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {prefix + f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# composers: one call covers every word of a mini-batch


def _compose(table: EmbeddingTable, bilstm: BiLSTM, sequences) -> Tensor:
    """concat(last forward hidden, last backward hidden) of each token
    sequence, embedded from the rows of table; (len(sequences), 2H)."""
    ids = [table.id_of(tok) for seq in sequences for tok in seq]
    return ad.lstm_scan(ad.gather_rows(table.matrix, ids), [len(seq) for seq in sequences],
                        bilstm.W_x, bilstm.W_h, bilstm.b_x, bilstm.b_h, finals=True)


def char_compose(char_table: EmbeddingTable, char_bilstm: BiLSTM,
                 words: list[str]) -> Tensor:
    """_compose over each word's characters, under a name of its own so that
    perfbench/tracer.py can time the char source."""
    return _compose(char_table, char_bilstm, words)


def _require_positive_ints(cfg, names) -> None:
    for name in names:
        value = getattr(cfg, name)
        if type(value) is not int or value < 1:  # a bool such as JSON true is no width
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def _require_reals(cfg, names) -> None:
    for name in names:
        value = getattr(cfg, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{name} must be a number, got {value!r}")


def _require_bools(cfg, names) -> None:
    for name in names:
        value = getattr(cfg, name)
        if type(value) is not bool:  # a string such as "false" is truthy
            raise ConfigError(f"{name} must be true or false, got {value!r}")


# The embedding sources, in concatenation and seeded draw order: (name, table
# attribute, BiLSTM attribute or None).  ComposerConfig reads use_<name>,
# <name>_dim and, for a BiLSTM source, <name>_hidden; InputComposer holds the
# source's table and BiLSTM under the given attributes.
SOURCES = (("word", "word_table", None),
           ("char", "char_table", "char_bilstm"),
           ("morph", "morph_table", "morph_bilstm"),
           ("subword", "piece_table", "subword_bilstm"))


@dataclass
class ComposerConfig:
    use_word: bool = True
    use_char: bool = True
    use_morph: bool = False
    use_subword: bool = False
    word_dim: int = 300
    subword_dim: int = 300
    char_dim: int = 200
    morph_dim: int = 200
    char_hidden: int = 100
    morph_hidden: int = 100
    subword_hidden: int = 150

    def __post_init__(self):
        _require_positive_ints(self, ("word_dim", "subword_dim", "char_dim", "morph_dim",
                                      "char_hidden", "morph_hidden", "subword_hidden"))
        _require_bools(self, ["use_" + name for name, _, _ in SOURCES])
        if not self.sources:
            raise ConfigError("at least one embedding source must be enabled")

    @property
    def sources(self) -> list[tuple]:
        """The enabled entries of SOURCES, in concatenation order."""
        return [source for source in SOURCES if getattr(self, "use_" + source[0])]

    @property
    def output_dim(self) -> int:
        return sum(2 * getattr(self, name + "_hidden") if bilstm
                   else getattr(self, name + "_dim") for name, _, bilstm in self.sources)


@dataclass(eq=False)
class InputComposer:
    """Bundles the embedding tables and composer BiLSTMs for one model.

    compose_input concatenates the enabled sources in the order SOURCES
    lists them.
    """

    cfg: ComposerConfig
    word_table: EmbeddingTable | None = None
    char_table: EmbeddingTable | None = None
    morph_table: EmbeddingTable | None = None
    piece_table: EmbeddingTable | None = None
    char_bilstm: BiLSTM | None = None
    morph_bilstm: BiLSTM | None = None
    subword_bilstm: BiLSTM | None = None

    @classmethod
    def build(cls, cfg: ComposerConfig, rng: np.random.Generator,
              vocabs: dict) -> "InputComposer":
        """Tables and BiLSTMs of the enabled sources, each table over the
        tokens vocabs gives its source name."""
        kw = {}
        for name, table, bilstm in cfg.sources:
            dim = getattr(cfg, name + "_dim")
            kw[table] = EmbeddingTable.from_tokens(vocabs[name], dim, rng)
            if bilstm:
                kw[bilstm] = BiLSTM.init(dim, getattr(cfg, name + "_hidden"), rng)
        return cls(cfg, **kw)

    def compose_input(self, words: list[str], analyses: list | None = None,
                      pieces: list[list[str]] | None = None) -> Tensor:
        """Input rows (len(words), output_dim) of the given words: one
        sentence, or every sentence of a mini-batch back to back.

        analyses, when given, holds each word's morphological analysis; a
        word without one falls back to its surface string.  pieces holds each
        word's subword pieces and is required by the subword source.
        """
        if not words:
            raise UsageError("compose_input requires at least one word")
        for name, per_word in (("analyses", analyses), ("pieces", pieces)):
            if per_word is not None and len(per_word) != len(words):
                raise UsageError(f"{len(per_word)} {name} for {len(words)} words")
        parts = []
        if self.cfg.use_word:
            table = self.word_table
            parts.append(ad.gather_rows(table.matrix, [table.id_of(w) for w in words]))
        if self.cfg.use_char:
            parts.append(char_compose(self.char_table, self.char_bilstm, words))
        if self.cfg.use_morph:
            analyses = analyses or [None] * len(words)
            parts.append(_compose(self.morph_table, self.morph_bilstm,
                                  [a or w for w, a in zip(words, analyses)]))
        if self.cfg.use_subword:
            if pieces is None:
                raise UsageError("subword source enabled but no pieces supplied")
            parts.append(_compose(self.piece_table, self.subword_bilstm, pieces))
        return parts[0] if len(parts) == 1 else ad.concat(parts, axis=1)

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = {}
        for _, table, bilstm in self.cfg.sources:
            out[prefix + table] = getattr(self, table).matrix
            if bilstm:
                out.update(getattr(self, bilstm).named_parameters(f"{prefix}{bilstm}."))
        return out


# ---------------------------------------------------------------------------
# toy transformer encoder


@dataclass
class ToyTransformerConfig:
    num_layers: int = 2
    num_heads: int = 2
    hidden_units: int = 64
    ff_units: int = 256
    max_len: int = 128
    dropout_p: float = 0.1

    def __post_init__(self):
        _require_positive_ints(self, ("num_layers", "num_heads", "hidden_units",
                                      "ff_units", "max_len"))
        _require_reals(self, ("dropout_p",))
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p must lie in [0, 1)")
        if self.hidden_units % self.num_heads != 0:
            raise ConfigError(
                f"hidden_units {self.hidden_units} not divisible by "
                f"num_heads {self.num_heads}")


@dataclass
class TransformerLayer:
    # (hidden, 3 hidden), (in, out): the q, k and v projections side by side,
    # head h owning columns h*dk:(h+1)*dk of each
    Wqkv: Tensor
    Wo: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    W_ff1: Tensor
    b_ff1: Tensor
    W_ff2: Tensor
    b_ff2: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor

    @classmethod
    def init(cls, cfg: ToyTransformerConfig, rng: np.random.Generator) -> "TransformerLayer":
        d, heads = cfg.hidden_units, cfg.num_heads

        def mat(draw):
            # drawn (out, in), stored (in, out) for x @ W
            return Tensor(np.ascontiguousarray(draw.T), requires_grad=True)

        def per_head():
            # drawn head by head, each with its own (dk, d) Xavier range
            return np.concatenate([xavier_uniform(rng, d // heads, d) for _ in range(heads)])

        return cls(
            Wqkv=mat(np.concatenate([per_head() for _ in "qkv"])),  # q, k, v in draw order
            Wo=mat(xavier_uniform(rng, d, d)),
            ln1_gain=Tensor(np.ones(d), requires_grad=True),
            ln1_bias=Tensor(np.zeros(d), requires_grad=True),
            W_ff1=mat(xavier_uniform(rng, cfg.ff_units, d)),
            b_ff1=Tensor(np.zeros(cfg.ff_units), requires_grad=True),
            W_ff2=mat(xavier_uniform(rng, d, cfg.ff_units)),
            b_ff2=Tensor(np.zeros(d), requires_grad=True),
            ln2_gain=Tensor(np.ones(d), requires_grad=True),
            ln2_bias=Tensor(np.zeros(d), requires_grad=True),
        )

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {prefix + f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class TransformerParams:
    piece_table: EmbeddingTable
    positions: Tensor  # (max_len, hidden) learned positional embeddings
    layers: list = field(default_factory=list)

    @classmethod
    def init(cls, cfg: ToyTransformerConfig, piece_vocab, rng: np.random.Generator) -> "TransformerParams":
        table = EmbeddingTable.from_tokens(piece_vocab, cfg.hidden_units, rng)
        positions = Tensor(rng.uniform(-0.1, 0.1, size=(cfg.max_len, cfg.hidden_units)),
                           requires_grad=True)
        layers = [TransformerLayer.init(cfg, rng) for _ in range(cfg.num_layers)]
        return cls(piece_table=table, positions=positions, layers=layers)

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = {prefix + "piece_table": self.piece_table.matrix,
               prefix + "positions": self.positions}
        for i, layer in enumerate(self.layers):
            out.update(layer.named_parameters(f"{prefix}layer{i}."))
        return out


def transformer_block(cfg: ToyTransformerConfig, layer: TransformerLayer, x: Tensor,
                      training: bool, rng, lengths=None) -> Tensor:
    attn_out = ad.attention(x @ layer.Wqkv, lengths, cfg.num_heads) @ layer.Wo
    attn_out = ad.dropout(attn_out, cfg.dropout_p, training, rng)
    x = ad.layer_norm(x + attn_out, layer.ln1_gain, layer.ln1_bias)
    ff = ad.gelu(x @ layer.W_ff1 + layer.b_ff1) @ layer.W_ff2 + layer.b_ff2
    ff = ad.dropout(ff, cfg.dropout_p, training, rng)
    return ad.layer_norm(x + ff, layer.ln2_gain, layer.ln2_bias)


def transformer_encode(cfg: ToyTransformerConfig, params: TransformerParams,
                       piece_ids: list[int], training: bool = False,
                       rng: np.random.Generator | None = None,
                       lengths=None) -> Tensor:
    """Encode piece-id sequences; returns the hidden vectors, one row per
    piece.

    piece_ids holds one sequence, or several back to back, with lengths
    giving each one's piece count.  The position table has max_len rows, so
    a sequence longer than max_len raises UsageError; the tagger passes a
    longer sentence as windows of max_len pieces.  All sequences are packed
    into one matrix; each piece takes the position of its offset in its own
    sequence and attends only to the pieces of its own sequence.
    """
    if training and rng is None:
        raise UsageError("training mode requires an rng for dropout")
    lengths, _, positions = ad.packed_steps(lengths, len(piece_ids))
    if lengths.max() > cfg.max_len:
        raise UsageError(f"a sequence of {lengths.max()} pieces is longer than "
                         f"max_len {cfg.max_len}")
    x = (ad.gather_rows(params.piece_table.matrix, piece_ids)
         + ad.gather_rows(params.positions, positions))
    x = ad.dropout(x, cfg.dropout_p, training, rng)
    for layer in params.layers:
        x = transformer_block(cfg, layer, x, training, rng, lengths)
    return x
