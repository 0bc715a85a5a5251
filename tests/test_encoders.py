import math

import numpy as np
import pytest

from seqtag import autodiff as ad
from seqtag import encoders as enc
from seqtag.autodiff import Tensor
from seqtag.data import LabeledSentence, TagSet, Token, Vocabulary, build_vocab
from seqtag.errors import ConfigError, ShapeError, UsageError
from seqtag.models import TrainConfig, build_model
from seqtag.subword import UnigramVocab

import oracles
from oracles import (Cell, direction, finite_diff, lstm_run, lstm_step, max_rel_error,
                     scale, softmax_rows, total, transpose)
from test_autodiff import _layer_arrays


def sig(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_oracle(w, x, h, c):
    """Straight-line recompute of the six cell equations in plain numpy,
    each gate from its row band of the stacked weights."""
    Wx, Wh, bx, bh = (np.split(w[k], 4) for k in ("W_x", "W_h", "b_x", "b_h"))
    i = sig(Wx[0] @ x + bx[0] + Wh[0] @ h + bh[0])
    f = sig(Wx[1] @ x + bx[1] + Wh[1] @ h + bh[1])
    g = np.tanh(Wx[2] @ x + bx[2] + Wh[2] @ h + bh[2])
    o = sig(Wx[3] @ x + bx[3] + Wh[3] @ h + bh[3])
    c_t = f * c + i * g
    h_t = o * np.tanh(c_t)
    return h_t, c_t


NAMES = ("W_x", "W_h", "b_x", "b_h")


def random_cell(rng, input_dim, hidden_dim):
    """One direction's gate blocks, leaves drawn from a normal."""
    shapes = [(4 * hidden_dim, input_dim), (4 * hidden_dim, hidden_dim), 4 * hidden_dim,
              4 * hidden_dim]
    return Cell(*(Tensor(rng.normal(scale=0.6, size=shape), requires_grad=True)
                  for shape in shapes))


def random_bilstm(rng, input_dim, hidden_dim):
    bi = enc.BiLSTM.init(input_dim, hidden_dim, rng)
    for t in bi.named_parameters().values():
        t.data[...] = rng.normal(scale=0.6, size=t.shape)
    return bi


def cell_arrays(p):
    return {k: getattr(p, k).data.copy() for k in NAMES}


def direction_arrays(bi, k):
    """Direction k's W_x, W_h, b_x and b_h, sliced out of the BiLSTM's block."""
    return cell_arrays(direction(bi.W, k))


# ---------------------------------------------------------------------------
# LSTM cell


def test_lstm_step_zero_params_zero_state():
    rng = np.random.default_rng(0)
    p = random_cell(rng, 3, 4)
    for k in NAMES:
        getattr(p, k).data[...] = 0.0
    x = Tensor(rng.normal(size=3))
    h, c = lstm_step(p, x, Tensor(np.zeros(4)), Tensor(np.zeros(4)))
    # all gate preactivations are zero: i = f = o = 0.5, g = 0
    assert np.array_equal(c.data, np.zeros(4))
    assert np.array_equal(h.data, np.zeros(4))


def test_lstm_step_matches_straight_line_recompute():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = random_cell(rng, 5, 4)
        x = rng.normal(size=5)
        h0 = rng.normal(size=4)
        c0 = rng.normal(size=4)
        h, c = lstm_step(p, Tensor(x), Tensor(h0), Tensor(c0))
        h_ref, c_ref = lstm_oracle(cell_arrays(p), x, h0, c0)
        assert np.max(np.abs(h.data - h_ref)) <= 1e-12
        assert np.max(np.abs(c.data - c_ref)) <= 1e-12


def test_lstm_step_saturated_forget_gate_carries_cell_state():
    rng = np.random.default_rng(8)
    p = random_cell(rng, 3, 4)
    for k in NAMES:
        getattr(p, k).data[...] = 0.0
    p.b_h.data[4:8] = 30.0  # forget gate pinned at sigmoid(30) ~ 1
    c0 = rng.normal(size=4)
    _, c1 = lstm_step(p, Tensor(rng.normal(size=3)), Tensor(np.zeros(4)), Tensor(c0))
    # g = tanh(0) = 0, so the cell state passes through unchanged
    assert np.max(np.abs(c1.data - c0)) < 1e-9


def test_lstm_step_shape_errors():
    rng = np.random.default_rng(9)
    p = random_cell(rng, 3, 4)
    with pytest.raises(ShapeError):
        lstm_step(p, Tensor(np.zeros(5)), Tensor(np.zeros(4)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        lstm_step(p, Tensor(np.zeros(3)), Tensor(np.zeros(2)), Tensor(np.zeros(4)))


def test_lstm_step_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    base = cell_arrays(random_cell(rng, 3, 2))
    x = rng.normal(size=3)
    h0 = rng.normal(size=2)
    c0 = rng.normal(size=2)
    proj = rng.normal(size=2)

    def rebuild(arrays):
        q = Cell(*(Tensor(a, requires_grad=True) for a in arrays[:-1]))
        xt = Tensor(arrays[-1], requires_grad=True)
        h, c = lstm_step(q, xt, Tensor(h0), Tensor(c0))
        return q, xt, ad.inner(h, proj) + ad.inner(c, proj)

    inputs = [base[k] for k in NAMES] + [x]
    q, xt, loss = rebuild(inputs)
    ad.backward(loss)
    analytic = [getattr(q, k).grad for k in NAMES] + [xt.grad]

    def f(*arrays):
        _, _, out = rebuild(list(arrays))
        return out.data

    numeric = finite_diff(f, inputs)
    for a, n in zip(analytic, numeric):
        assert max_rel_error(a, n) <= 1e-6


# ---------------------------------------------------------------------------
# BiLSTM


def test_bilstm_init_stacks_the_xavier_draws_of_each_direction_and_gate():
    """BiLSTM.init draws sixteen Xavier matrices, direction by direction,
    then gate by gate, the input-side one before the hidden-side one; each
    lands in its direction's gate band of the block, W_x in columns :D and
    W_h in D + 2:.  The b_x column is 0 and so is b_h, but for its forget
    band, which is 1 in both directions."""
    D, H = 3, 4
    bi = enc.BiLSTM.init(D, H, np.random.default_rng(21))
    assert bi.W.shape == (2, 4 * H, D + 2 + H)
    rng = np.random.default_rng(21)
    for k in range(2):
        for gate in range(4):
            band = slice(gate * H, (gate + 1) * H)
            assert np.array_equal(bi.W.data[k, band, :D], enc.xavier_uniform(rng, H, D))
            assert np.array_equal(bi.W.data[k, band, D + 2:], enc.xavier_uniform(rng, H, H))
    assert np.array_equal(bi.W.data[:, :, D], np.zeros((2, 4 * H)))
    forget = np.zeros(4 * H)
    forget[H:2 * H] = 1.0
    assert np.array_equal(bi.W.data[:, :, D + 1], np.stack([forget, forget]))


def test_bilstm_init_is_the_four_block_init_assembled_into_the_block():
    """The block is bitwise the four stacked tensors the four-block layout
    (artifact versions 1 to 5) drew from the same seed, W_x, W_h, b_x and
    b_h, joined as [W_x | b_x | b_h | W_h], so seeded models start where
    they did."""
    D, H = 5, 3
    rng = np.random.default_rng(22)
    drawn = [[enc.xavier_uniform(rng, H, cols) for _ in range(4) for cols in (D, H)]
             for _ in range(2)]
    w_x = np.stack([np.concatenate(d[0::2]) for d in drawn])
    w_h = np.stack([np.concatenate(d[1::2]) for d in drawn])
    b_x, b_h = np.zeros((2, 4 * H)), np.zeros((2, 4 * H))
    b_h[:, H:2 * H] = 1.0
    bi = enc.BiLSTM.init(D, H, np.random.default_rng(22))
    assert np.array_equal(bi.W.data, np.concatenate(
        [w_x, b_x[..., None], b_h[..., None], w_h], axis=2))


def test_bilstm_named_parameters_are_its_one_block():
    bi = enc.BiLSTM.init(3, 4, np.random.default_rng(0))
    named = bi.named_parameters("p.")
    assert list(named) == ["p.W"]
    assert named["p.W"].shape == (2, 16, 3 + 2 + 4)
    assert named["p.W"].requires_grad


def test_bilstm_encode_matches_manual_unroll():
    rng = np.random.default_rng(11)
    bi = random_bilstm(rng, 3, 2)
    xs_np = [rng.normal(size=3) for _ in range(3)]
    out = bi.encode(Tensor(np.stack(xs_np)))
    assert out.shape == (3, 4)

    wf, wb = direction_arrays(bi, 0), direction_arrays(bi, 1)
    h, c = np.zeros(2), np.zeros(2)
    hs_f = []
    for x in xs_np:
        h, c = lstm_oracle(wf, x, h, c)
        hs_f.append(h)
    h, c = np.zeros(2), np.zeros(2)
    hs_b = []
    for x in xs_np[::-1]:
        h, c = lstm_oracle(wb, x, h, c)
        hs_b.append(h)
    hs_b = hs_b[::-1]
    for t in range(3):
        expect = np.concatenate([hs_f[t], hs_b[t]])
        assert np.max(np.abs(out.data[t] - expect)) <= 1e-12


def test_bilstm_encode_of_a_batch_equals_each_sequence_alone():
    rng = np.random.default_rng(16)
    bi = enc.BiLSTM.init(3, 2, rng)
    lengths = [2, 5, 1, 3]
    x = Tensor(rng.normal(size=(sum(lengths), 3)), requires_grad=True)
    proj = rng.normal(size=(sum(lengths), 4))

    def one_by_one():
        starts = np.cumsum([0] + lengths)
        return ad.concat([bi.encode(ad.take(x, slice(a, b)))
                          for a, b in zip(starts, starts[1:])], axis=0)

    batched = _outputs_and_grads(bi, [x], lambda: bi.encode(x, lengths), proj)
    alone = _outputs_and_grads(bi, [x], one_by_one, proj)
    for got, want in zip(batched, alone):
        assert np.max(np.abs(got - want)) <= 1e-12
    for bad in ([2, 5, 1, 2], [11, 0], [12]):
        with pytest.raises(UsageError):
            bi.encode(x, bad)


def test_bilstm_encode_rejects_empty_sequence():
    bi = enc.BiLSTM.init(3, 2, np.random.default_rng(12))
    with pytest.raises(UsageError):
        bi.encode(Tensor(np.zeros((0, 3))))


def normal_table(rng, tokens, dim):
    """An EmbeddingTable over tokens (rows 2 on; 0 and 1 are reserved) with
    every row drawn from a normal."""
    table = enc.EmbeddingTable.from_tokens(tokens, dim, np.random.default_rng(0))
    table.matrix.data[...] = rng.normal(size=table.matrix.shape)
    return table


def test_compose_rejects_no_sequence_and_an_empty_one():
    bi = enc.BiLSTM.init(3, 2, np.random.default_rng(12))
    table = enc.EmbeddingTable.from_tokens("ab", 3, np.random.default_rng(0))
    for sequences in ([], ["a", ""]):
        with pytest.raises(UsageError):
            enc._compose(table, bi, sequences)


def test_compose_gives_the_last_hidden_of_each_direction():
    rng = np.random.default_rng(13)
    bi = enc.BiLSTM.init(3, 2, rng)
    for t in bi.named_parameters().values():
        t.data[...] = rng.normal(scale=0.5, size=t.shape)
    table = normal_table(rng, "ab", 3)
    # the rows of the pad, unknown, a and b entries, in order
    final = enc._compose(table, bi, [["<pad>", "?", "a", "b"]])
    per_pos = bi.encode(table.matrix)
    # forward half of the last position, backward half of the first
    assert np.array_equal(final.data[0, :2], per_pos.data[-1, :2])
    assert np.array_equal(final.data[0, 2:], per_pos.data[0, 2:])


def test_bilstm_gradient_reaches_both_directions():
    rng = np.random.default_rng(14)
    bi = enc.BiLSTM.init(2, 2, rng)
    xs = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    out = bi.encode(xs)
    loss = total(out)
    ad.backward(loss)
    for k in range(2):
        assert any(np.any(t.grad[k] != 0) for t in bi.named_parameters().values())
    assert all(np.any(row != 0) for row in xs.grad)


def _outputs_and_grads(bi, inputs, build, proj):
    """Output values of build() and the gradients of <output, proj> w.r.t.
    every BiLSTM parameter and every input tensor."""
    tensors = list(bi.named_parameters().values()) + inputs
    for t in tensors:
        t.zero_grad()
    out = build()
    ad.backward(ad.inner(out, proj))
    return [out.data.copy()] + [t.grad.copy() for t in tensors]


def _oracle_bilstm(bi, rows):
    """Forward states in order and backward states over the reversed rows,
    one lstm_step per graph step."""
    return lstm_run(direction(bi.W, 0), rows), lstm_run(direction(bi.W, 1), rows[::-1])


def test_fused_bilstm_matches_the_lstm_step_oracle():
    rng = np.random.default_rng(15)
    bi = enc.BiLSTM.init(3, 4, rng)
    for t in bi.named_parameters().values():
        t.data[...] = rng.normal(scale=0.6, size=t.shape)

    # composer path: ragged words of lengths 5, 1 and 3, rows 2 to 5 holding
    # the letters a to d, row 1 every unknown letter such as "?", ids repeated
    table = normal_table(rng, "abcd", 3)
    words = ["ac?da", "b", "??c"]

    def oracle_compose():
        out = []
        for word in words:
            hs_f, hs_b = _oracle_bilstm(bi, [ad.take(table.matrix, table.id_of(c))
                                             for c in word])
            out.append(ad.concat([hs_f[-1], hs_b[-1]]))
        return ad.stack(out)

    proj = rng.normal(size=(3, 8))
    fused = _outputs_and_grads(bi, [table.matrix], lambda: enc._compose(table, bi, words),
                               proj)
    oracle = _outputs_and_grads(bi, [table.matrix], oracle_compose, proj)
    for got, want in zip(fused, oracle):
        assert np.max(np.abs(got - want)) <= 1e-12

    # sentence encoder: every position of a five-row input
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)

    def oracle_encode():
        hs_f, hs_b = _oracle_bilstm(bi, [ad.take(x, t) for t in range(5)])
        return ad.stack([ad.concat([f, b]) for f, b in zip(hs_f, hs_b[::-1])])

    proj = rng.normal(size=(5, 8))
    fused = _outputs_and_grads(bi, [x], lambda: bi.encode(x), proj)
    oracle = _outputs_and_grads(bi, [x], oracle_encode, proj)
    for got, want in zip(fused, oracle):
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("reach", [40.0, 800.0])
@pytest.mark.parametrize("finals", [False, True])
def test_lstm_scan_with_saturated_gates_matches_the_lstm_step_oracle(reach, finals):
    """Each direction's weights scaled so that half the first step's
    pre-activations lie beyond +-reach; beyond about 709 an exp taken
    without splitting by sign overflows.  The oracle's sigmoid splits by
    sign, lstm_scan's runs through tanh."""
    rng = np.random.default_rng(17)
    bi = random_bilstm(rng, 3, 4)
    x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    for k in range(2):
        w = direction_arrays(bi, k)
        z0 = x.data @ w["W_x"].T + w["b_x"] + w["b_h"]
        factor = reach / np.median(np.abs(z0))
        for t in bi.named_parameters().values():
            t.data[k] *= factor
        assert np.any(z0 * factor < -reach) and np.any(z0 * factor > reach)
    lengths = [4, 2]
    proj = rng.normal(size=(2 if finals else 6, 8))

    def oracle():
        out = []
        for a, b in ((0, 4), (4, 6)):
            hs_f, hs_b = _oracle_bilstm(bi, [ad.take(x, r) for r in range(a, b)])
            out += ([ad.concat([hs_f[-1], hs_b[-1]])] if finals else
                    [ad.concat(list(pair)) for pair in zip(hs_f, hs_b[::-1])])
        return ad.stack(out)

    fused = _outputs_and_grads(
        bi, [x], lambda: ad.lstm_scan(x, lengths, bi.W, finals),
        proj)
    for got, want in zip(fused, _outputs_and_grads(bi, [x], oracle, proj)):
        assert np.all(np.isfinite(got))
        assert max_rel_error(got, want) <= 1e-12


@pytest.mark.parametrize("finals", [False, True])
def test_lstm_scan_under_no_grad_gives_the_same_states_bitwise(finals):
    rng = np.random.default_rng(18)
    bi = random_bilstm(rng, 3, 4)
    x = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    recorded = ad.lstm_scan(x, [3, 1, 3], bi.W, finals)
    with ad.no_grad():
        bare = ad.lstm_scan(x, [3, 1, 3], bi.W, finals)
    assert recorded._backward is not None and bare._backward is None
    assert np.array_equal(bare.data, recorded.data)


# ---------------------------------------------------------------------------
# embedding tables


def test_embedding_table_reserved_ids_and_unknown_lookup():
    table = enc.EmbeddingTable.from_tokens(["ev", "kedi", "ev"], 4, np.random.default_rng(0))
    assert table.pad_id == 0 and table.unk_id == 1
    assert table.vocab == {"<pad>": 0, "<unk>": 1, "ev": 2, "kedi": 3}
    assert table.matrix.shape == (4, 4)
    assert table.id_of("yok") == table.unk_id
    assert np.array_equal(ad.gather_rows(table.matrix, [table.id_of("yok")]).data[0],
                          table.matrix.data[1])


def test_tables_of_a_corpus_holding_the_reserved_tokens_keep_distinct_ids():
    words = ["<pad>", "a", "<unk>", "<unk>"]
    vocab = build_vocab([LabeledSentence(tuple(Token(w, "O") for w in words))])
    assert vocab.word == ["<unk>", "<pad>", "a"]
    table = enc.EmbeddingTable.from_tokens(vocab.word, 2, np.random.default_rng(0))
    assert table.vocab == {"<pad>": 0, "<unk>": 1, "a": 2}


def test_from_tokens_draws_rows_within_bounds():
    table = enc.EmbeddingTable.from_tokens([f"w{i}" for i in range(50)], 8,
                                           np.random.default_rng(3))
    assert np.all(table.matrix.data >= -0.1) and np.all(table.matrix.data <= 0.1)
    assert np.std(table.matrix.data) > 0.01


# ---------------------------------------------------------------------------
# composers


def make_composer(cfg, rng):
    return enc.InputComposer.build(
        cfg, rng,
        {"word": ["meliha", "ankara", "resim"],
         "char": list("abcdefghiklmnoprstuvyz'"),
         "morph": list("abcdefghiklmnoprstuvyz+:"),
         "subword": ["me", "li", "ha", "an", "kara"]})


def test_compose_word_char_morph_is_700_dimensional():
    cfg = enc.ComposerConfig(use_word=True, use_char=True, use_morph=True)
    assert cfg.output_dim == 300 + 200 + 200
    composer = make_composer(cfg, np.random.default_rng(20))
    x = composer.compose_input(["ankara"], analyses=["ankara+noun+prop"])
    assert x.shape == (1, 700)


def test_compose_order_is_word_char_morph_subword():
    cfg = enc.ComposerConfig(use_word=True, use_char=True, use_morph=True,
                             use_subword=True, word_dim=4, char_dim=3, morph_dim=3,
                             subword_dim=3, char_hidden=2, morph_hidden=2,
                             subword_hidden=2)
    rng = np.random.default_rng(21)
    composer = make_composer(cfg, rng)
    x = composer.compose_input(["ankara"], analyses=["ankara+noun"],
                               pieces=[["an", "kara"]])
    assert x.shape == (1, 4 + 4 + 4 + 4)
    word = composer.word_table.matrix.data[composer.word_table.id_of("ankara")]
    char = enc.char_compose(composer.char_table, composer.char_bilstm, ["ankara"]).data[0]
    morph = enc._compose(composer.morph_table, composer.morph_bilstm, ["ankara+noun"]).data[0]
    sub = enc._compose(composer.piece_table, composer.subword_bilstm, [["an", "kara"]]).data[0]
    assert np.array_equal(x.data[0], np.concatenate([word, char, morph, sub]))


def test_compose_single_source_word_only():
    cfg = enc.ComposerConfig(use_word=True, use_char=False, word_dim=6)
    composer = make_composer(cfg, np.random.default_rng(22))
    x = composer.compose_input(["resim"])
    assert x.shape == (1, 6)
    table = composer.word_table
    assert np.array_equal(x.data[0], table.matrix.data[table.id_of("resim")])


def test_compose_missing_analysis_falls_back_to_surface():
    cfg = enc.ComposerConfig(use_word=False, use_char=False, use_morph=True,
                             morph_dim=3, morph_hidden=2)
    composer = make_composer(cfg, np.random.default_rng(23))
    fallback = composer.compose_input(["ankara"], analyses=[None])
    explicit = enc._compose(composer.morph_table, composer.morph_bilstm, ["ankara"])
    assert np.array_equal(fallback.data, explicit.data)


def test_compose_requires_pieces_when_subword_enabled():
    cfg = enc.ComposerConfig(use_word=True, use_subword=True, subword_dim=3,
                             subword_hidden=2)
    composer = make_composer(cfg, np.random.default_rng(24))
    with pytest.raises(UsageError):
        composer.compose_input(["ankara"])


def test_composer_config_requires_a_source():
    with pytest.raises(ConfigError):
        enc.ComposerConfig(use_word=False, use_char=False, use_morph=False,
                           use_subword=False)


def test_char_compose_dimension_and_empty_word():
    cfg = enc.ComposerConfig(use_word=False, use_char=True, char_dim=5, char_hidden=3)
    composer = make_composer(cfg, np.random.default_rng(25))
    out = enc.char_compose(composer.char_table, composer.char_bilstm, ["kedi"])
    assert out.shape == (1, 6)
    with pytest.raises(UsageError):
        enc.char_compose(composer.char_table, composer.char_bilstm, [""])


def test_composer_gradient_reaches_every_enabled_table():
    cfg = enc.ComposerConfig(use_word=True, use_char=True, use_morph=True,
                             use_subword=True, word_dim=4, char_dim=3, morph_dim=3,
                             subword_dim=3, char_hidden=2, morph_hidden=2,
                             subword_hidden=2)
    composer = make_composer(cfg, np.random.default_rng(26))
    x = composer.compose_input(["meliha"], analyses=["meliha+noun"],
                               pieces=[["me", "li", "ha"]])
    ad.backward(total(x))
    for name in ("word_table", "char_table", "morph_table", "piece_table"):
        table = getattr(composer, name)
        assert np.any(table.matrix.grad != 0), name


# ---------------------------------------------------------------------------
# transformer pieces


def tiny_cfg(**kw):
    base = dict(num_layers=2, num_heads=2, hidden_units=4, ff_units=8,
                max_len=8, dropout_p=0.0)
    base.update(kw)
    return enc.ToyTransformerConfig(**base)


def test_transformer_config_head_divisibility():
    with pytest.raises(ConfigError):
        enc.ToyTransformerConfig(num_heads=3, hidden_units=64)


@pytest.mark.parametrize("field,value", [
    ("num_heads", 0), ("num_heads", -1), ("num_heads", True),
    ("dropout_p", 1.0), ("dropout_p", -0.1), ("dropout_p", False),
    ("dropout_p", "0.1"), ("dropout_p", None),
])
def test_transformer_config_rejects_values_no_model_runs_with(field, value):
    with pytest.raises(ConfigError):
        tiny_cfg(**{field: value})


@pytest.mark.parametrize("value", [0, -2, 1.5, True, "8"])
def test_configs_reject_widths_that_are_not_positive_integers(value):
    for field in ("num_layers", "num_heads", "hidden_units", "ff_units", "max_len"):
        with pytest.raises(ConfigError, match=field):
            tiny_cfg(**{field: value})
    for field in ("word_dim", "subword_dim", "char_dim", "morph_dim", "char_hidden",
                  "morph_hidden", "subword_hidden"):
        with pytest.raises(ConfigError, match=field):
            enc.ComposerConfig(**{field: value})


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_composer_config_rejects_switches_that_are_not_booleans(value):
    """A string such as "false" is truthy, so it would turn a source on."""
    for field in ("use_word", "use_char", "use_morph", "use_subword"):
        with pytest.raises(ConfigError, match=field):
            enc.ComposerConfig(**{field: value})


def test_softmax_rows_match_numpy_and_sum_to_one():
    rng = np.random.default_rng(30)
    for _ in range(10):
        x = rng.normal(scale=3.0, size=(4, 5))
        out = softmax_rows(Tensor(x)).data
        e = np.exp(x - x.max(axis=1, keepdims=True))
        ref = e / e.sum(axis=1, keepdims=True)
        assert np.max(np.abs(out - ref)) <= 1e-12
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12


def test_gelu_matches_reference_formula():
    rng = np.random.default_rng(31)
    x = rng.normal(scale=2.0, size=(3, 4))
    out = oracles.gelu(Tensor(x)).data
    ref = 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))
    assert np.max(np.abs(out - ref)) <= 1e-12
    assert oracles.gelu(Tensor(np.zeros((1, 1)))).data[0, 0] == 0.0


def test_layer_norm_zero_mean_unit_variance():
    rng = np.random.default_rng(32)
    x = rng.normal(loc=3.0, scale=2.0, size=(5, 6))
    d = x.shape[1]
    gain = rng.normal(loc=1.0, scale=0.5, size=d)
    bias = rng.normal(size=d)
    out = oracles.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
    ref = (x - x.mean(axis=1, keepdims=True)) / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
    assert np.max(np.abs(out - (ref * gain + bias))) <= 1e-12
    normed = (out - bias) / gain
    assert np.max(np.abs(normed.mean(axis=1))) <= 1e-12
    assert np.max(np.abs(normed.var(axis=1) - 1.0)) <= 1e-4  # eps shifts variance slightly


def test_layer_norm_gradient_matches_finite_differences():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(3, 4))
    gain = rng.normal(size=4)
    bias = rng.normal(size=4)
    proj = rng.normal(size=(3, 4))

    def build(xa, ga, ba):
        xt = Tensor(xa, requires_grad=True)
        gt = Tensor(ga, requires_grad=True)
        bt = Tensor(ba, requires_grad=True)
        loss = ad.inner(oracles.layer_norm(xt, gt, bt), proj)
        return xt, gt, bt, loss

    xt, gt, bt, loss = build(x, gain, bias)
    ad.backward(loss)
    numeric = finite_diff(lambda *a: build(*a)[3].data, [x, gain, bias])
    for analytic, num in zip([xt.grad, gt.grad, bt.grad], numeric):
        assert max_rel_error(analytic, num) <= 1e-6


def _assert_within_the_v_rows(out, qkv, lengths):
    """Each output row of a sequence is finite and lies, column by column,
    within the range of that sequence's v rows, as a convex combination of
    them does."""
    d = qkv.shape[1] // 3
    for start, n in zip(np.cumsum([0] + lengths), lengths):
        o, v = out[start:start + n], qkv[start:start + n, 2 * d:]
        slack = 1e-12 * np.max(np.abs(v))
        assert np.all(np.isfinite(o))
        assert np.all(o >= v.min(axis=0) - slack) and np.all(o <= v.max(axis=0) + slack)


def test_attention_weight_rows_sum_to_one():
    """Seen through the output: where all v rows of a sequence are one row,
    every output row is that row, and over random v rows every output row
    is a convex combination of its sequence's."""
    rng = np.random.default_rng(34)
    lengths = [5, 2]
    qkv = rng.normal(size=(7, 12))
    out = oracles.attention(Tensor(qkv), lengths, 2)
    assert out.shape == (7, 4)
    _assert_within_the_v_rows(out.data, qkv, lengths)
    qkv[:5, 8:], qkv[5:, 8:] = qkv[0, 8:], qkv[5, 8:]
    out = oracles.attention(Tensor(qkv), lengths, 2)
    assert np.max(np.abs(out.data - qkv[:, 8:])) <= 1e-12


def test_attention_on_single_position_is_identity_weight():
    """A one-row sequence attends only to itself: its output is its v band,
    bitwise."""
    qkv = np.random.default_rng(35).normal(size=(3, 12))
    out = oracles.attention(Tensor(qkv), [1, 1, 1], 2)
    assert np.array_equal(out.data, qkv[:, 8:])


def test_attention_is_permutation_equivariant():
    """The fused layer and the attention node it was built from: rows
    permuted within one sequence give the permuted output rows."""
    rng = np.random.default_rng(36)
    qkv = rng.normal(size=(6, 12))
    perm = rng.permutation(6)
    out = oracles.attention(Tensor(qkv), [6], 2)
    out_p = oracles.attention(Tensor(qkv[perm]), [6], 2)
    assert np.max(np.abs(out_p.data - out.data[perm])) <= 1e-10
    x, *weights = (Tensor(a) for a in _layer_arrays(rng, n=6))
    out = ad.transformer_layer(x, [6], weights, 2)
    out_p = ad.transformer_layer(Tensor(x.data[perm]), [6], weights, 2)
    assert np.max(np.abs(out_p.data - out.data[perm])) <= 1e-10


def test_attention_gradient_matches_finite_differences():
    """W.r.t. x and the whole of Wqkv, its q, k and v bands alike."""
    rng = np.random.default_rng(37)
    layer = enc.TransformerLayer.init(tiny_cfg(num_layers=1), rng)
    x = rng.normal(size=(3, 4))
    proj = rng.normal(size=(3, 4))
    qkv0 = layer.Wqkv.data.copy()

    def build(xa, qkva):
        layer.Wqkv.data[...] = qkva
        xt = Tensor(xa, requires_grad=True)
        out = oracles.attention(xt @ layer.Wqkv, None, 2) @ layer.Wo
        return xt, ad.inner(out, proj)

    xt, loss = build(x, qkv0)
    for t in layer.named_parameters().values():
        t.zero_grad()
    ad.backward(loss)
    analytic = [xt.grad.copy(), layer.Wqkv.grad.copy()]
    numeric = finite_diff(lambda *a: build(*a)[1].data, [x, qkv0])
    for a, n in zip(analytic, numeric):
        assert max_rel_error(a, n) <= 1e-6


def _attention_oracle(qkv, lengths, num_heads):
    """Per-sequence, per-head attention composed from primitive ops, each
    head's q, k and v bands taken from the (N, 3d) qkv rows."""
    d = qkv.shape[1] // 3
    dk = d // num_heads
    starts = np.cumsum([0] + lengths)
    blocks = []
    for a, b in zip(starts[:-1], starts[1:]):
        heads = []
        for h in range(num_heads):
            q, k, v = (ad.take(qkv, (slice(a, b), slice(j * d + h * dk, j * d + (h + 1) * dk)))
                       for j in range(3))
            scores = scale(q @ transpose(k), 1.0 / math.sqrt(dk))
            heads.append(softmax_rows(scores) @ v)
        blocks.append(ad.concat(heads, axis=1))
    return ad.concat(blocks, axis=0)


def test_fused_attention_matches_per_sequence_oracle():
    """The fused layer, and the attention node of the reference layer,
    against a layer whose attention is composed per sequence and per head
    from primitive ops (softmax_rows, take, concat): output and every
    gradient within 1e-12."""
    rng = np.random.default_rng(39)
    lengths = [4, 1, 3, 2]
    arrays = _layer_arrays(rng, n=10, d=6)
    proj = rng.normal(size=(10, 6))
    results = []
    for attend in (None, oracles.attention, _attention_oracle):
        x, *w = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        if attend is None:
            out = ad.transformer_layer(x, lengths, w, 3)
        else:
            y = oracles.layer_norm(x + attend(x @ w[0], lengths, 3) @ w[1], w[2], w[3])
            ff = oracles.gelu(y @ w[4] + w[5]) @ w[6] + w[7]
            out = oracles.layer_norm(y + ff, w[8], w[9])
        ad.backward(ad.inner(out, proj))
        results.append([out.data] + [t.grad for t in (x, *w)])
    for fused, reference in zip(results[0], results[2]):
        assert np.max(np.abs(fused - reference)) <= 1e-12
    for node, reference in zip(results[1], results[2]):
        assert np.max(np.abs(node - reference)) <= 1e-12


def test_fused_attention_softmax_is_a_plain_max_shift(monkeypatch):
    """Scores of magnitude 1e6 give the fused layer finite output rows and
    gradients with no RuntimeWarning (pytest makes those errors), and the
    -inf handling of _stable_lse is never called; the reference attention
    node's rows lie within the range of their sequence's v rows."""
    def refuse(*args):
        raise AssertionError("attention called _stable_lse")

    monkeypatch.setattr(ad, "_stable_lse", refuse)
    rng = np.random.default_rng(40)
    qkv = Tensor(rng.normal(size=(5, 12)) * 1e3, requires_grad=True)
    out = oracles.attention(qkv, [5], 2)
    ad.backward(ad.inner(out, np.ones((5, 4))))
    assert np.all(np.isfinite(qkv.grad))
    _assert_within_the_v_rows(out.data, qkv.data, [5])
    x, *weights = (Tensor(a, requires_grad=True) for a in _layer_arrays(rng, n=5))
    x.data *= 1e3
    weights[0].data *= 1e3
    out = ad.transformer_layer(x, [5], weights, 2)
    ad.backward(ad.inner(out, np.ones((5, 4))))
    assert np.all(np.isfinite(out.data))
    assert all(np.all(np.isfinite(t.grad)) for t in (x, *weights))


def test_fused_attention_rejects_bad_shapes_and_lengths():
    """transformer_layer: ShapeError for rows that are not (N, d), a weight
    of another shape, a width that does not split into the heads or a
    dropout mask that is not (N, d); UsageError for lengths that do not
    split the N rows."""
    x, *weights = (Tensor(a) for a in _layer_arrays(np.random.default_rng(41), n=4, d=6))
    with pytest.raises(ShapeError):
        ad.transformer_layer(Tensor(np.zeros(6)), [1], weights, 2)
    with pytest.raises(ShapeError):
        ad.transformer_layer(x, [4], weights[:-1], 2)
    for k in range(10):
        wrong = list(weights)
        wrong[k] = Tensor(np.zeros(weights[k].shape[:-1] + (weights[k].shape[-1] + 1,)))
        with pytest.raises(ShapeError):
            ad.transformer_layer(x, [4], wrong, 2)
    with pytest.raises(ShapeError):
        ad.transformer_layer(x, [4], weights, 4)  # width 6 does not split into 4 heads
    with pytest.raises(ShapeError):
        ad.transformer_layer(x, [4], weights, 0)
    for keeps in ((np.ones((4, 5)), None), (None, np.ones((3, 6)))):
        with pytest.raises(ShapeError):
            ad.transformer_layer(x, [4], weights, 2, *keeps)
    for lengths in ([3], [2, 3], [4, 0], []):
        with pytest.raises(UsageError):
            ad.transformer_layer(x, lengths, weights, 2)


def test_fused_layer_is_bitwise_the_reference_composition():
    """encoders.transformer_block, one transformer_layer node, gives bitwise
    the output and every gradient of the reference layer composed from the
    matmul, add, dropout, attention, gelu and layer_norm nodes, over
    packed sequences of 3, 1, 3 and 2 rows, in inference and in seeded
    training at dropout 0 and 0.2; in training both draw the same masks,
    so the generators end in the same state."""
    lengths = [3, 1, 3, 2]
    for p, training in ((0.0, False), (0.2, False), (0.0, True), (0.2, True)):
        cfg = tiny_cfg(num_heads=2, hidden_units=6, ff_units=5, dropout_p=p)
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(9, 6))
        proj = rng.normal(size=(9, 6))
        results = []
        for block in (enc.transformer_block, oracles.transformer_block):
            layer = enc.TransformerLayer.init(cfg, np.random.default_rng(8))
            x = Tensor(x0.copy(), requires_grad=True)
            drops = np.random.default_rng(9)
            out = block(cfg, layer, x, training, drops, lengths)
            ad.backward(ad.inner(out, proj))
            results.append([out.data, x.grad] + [t.grad for t in layer.named_parameters().values()]
                           + [drops.random(3)])
        for fused, reference in zip(*results):
            assert fused.tobytes() == reference.tobytes()
    ops = [node._op for node in ad.trace(out)]
    assert ops.count("dropout") == 2 and "transformer_layer" not in ops


def test_transformer_encode_shapes_and_determinism():
    rng = np.random.default_rng(38)
    cfg = tiny_cfg()
    params = enc.TransformerParams.init(cfg, ["a", "b", "c"], rng)
    ids = [params.piece_table.id_of(p) for p in ["a", "b", "c", "a"]]
    out1 = enc.transformer_encode(cfg, params, ids)
    out2 = enc.transformer_encode(cfg, params, ids)
    assert out1.shape == (4, 4)
    assert np.array_equal(out1.data, out2.data)


def test_transformer_encode_rejects_over_long_and_the_tagger_windows_them(caplog):
    rng = np.random.default_rng(39)
    cfg = tiny_cfg(max_len=3)
    params = enc.TransformerParams.init(cfg, ["a"], rng)
    ids = [params.piece_table.id_of("a")] * 5
    # the position table has max_len rows, so the encoder cuts nothing
    with pytest.raises(UsageError):
        enc.transformer_encode(cfg, params, ids)
    with pytest.raises(UsageError):
        enc.transformer_encode(cfg, params, ids * 3, lengths=[5, 2, 8])
    # the tagger encodes windows of max_len pieces, one piece per "a", and
    # drops no word
    model = build_model(TrainConfig(model_kind="transformer-crf", transformer=cfg),
                        Vocabulary([], [], [], TagSet(["O", "B-X"])), rng,
                        UnigramVocab({"a": 0.0}))
    words = ["aaaaa", "a", "a", "aaaa", "aaaa"]  # 5, 2 and 8 pieces
    with caplog.at_level("DEBUG"):
        rows, covered = model.emission_rows(words, lengths=[1, 2, 2])
    assert caplog.records == []
    assert covered == [0, 1, 2, 3, 4]  # word 3 spans two windows
    assert len(rows) == 5


def test_transformer_encode_packs_sequences_apart():
    rng = np.random.default_rng(45)
    cfg = tiny_cfg(max_len=4)
    params = enc.TransformerParams.init(cfg, ["a", "b", "c"], rng)
    seqs = [[2, 3, 4], [4, 4, 2, 3], [3]]
    packed = enc.transformer_encode(cfg, params, sum(seqs, []),
                                    lengths=[len(s) for s in seqs])
    alone = np.concatenate([enc.transformer_encode(cfg, params, s).data for s in seqs])
    assert packed.shape == (3 + 4 + 1, 4)
    assert np.max(np.abs(packed.data - alone)) <= 1e-12
    with pytest.raises(UsageError):
        enc.transformer_encode(cfg, params, [2, 3], lengths=[1, 2])


def test_transformer_encode_empty_and_missing_rng():
    rng = np.random.default_rng(40)
    cfg = tiny_cfg(dropout_p=0.5)
    params = enc.TransformerParams.init(cfg, ["a"], rng)
    with pytest.raises(UsageError):
        enc.transformer_encode(cfg, params, [])
    with pytest.raises(UsageError):
        enc.transformer_encode(cfg, params, [2], training=True)


def test_transformer_encode_position_sensitivity():
    # with learned positions, the same piece at different offsets encodes differently
    rng = np.random.default_rng(41)
    cfg = tiny_cfg()
    params = enc.TransformerParams.init(cfg, ["a", "b"], rng)
    a, b = params.piece_table.id_of("a"), params.piece_table.id_of("b")
    out_ab = enc.transformer_encode(cfg, params, [a, b])
    out_ba = enc.transformer_encode(cfg, params, [b, a])
    assert np.max(np.abs(out_ab.data[0] - out_ba.data[1])) > 1e-6


def test_transformer_encode_backward_reaches_embeddings_and_all_layers():
    rng = np.random.default_rng(42)
    cfg = tiny_cfg()
    params = enc.TransformerParams.init(cfg, ["a", "b"], rng)
    ids = [params.piece_table.id_of("a"), params.piece_table.id_of("b")]
    out = enc.transformer_encode(cfg, params, ids)
    # plain summation is constant under layer norm, so project randomly
    proj = rng.normal(size=(2, 4))
    loss = ad.inner(out, proj)
    ad.backward(loss)
    named = params.named_parameters()
    assert np.any(named["piece_table"].grad != 0)
    assert np.any(named["positions"].grad[:2] != 0)
    assert np.all(named["positions"].grad[2:] == 0)
    for i in range(cfg.num_layers):
        assert np.any(named[f"layer{i}.W_ff1"].grad != 0)


def test_transformer_dropout_only_active_in_training():
    rng = np.random.default_rng(43)
    cfg = tiny_cfg(dropout_p=0.5)
    params = enc.TransformerParams.init(cfg, ["a", "b"], rng)
    ids = [params.piece_table.id_of("a"), params.piece_table.id_of("b")]
    eval_out = enc.transformer_encode(cfg, params, ids)
    train_out = enc.transformer_encode(cfg, params, ids, training=True,
                                       rng=np.random.default_rng(99))
    assert np.max(np.abs(eval_out.data - train_out.data)) > 1e-9


def test_xavier_uniform_bounds():
    rng = np.random.default_rng(44)
    w = enc.xavier_uniform(rng, 30, 50)
    limit = math.sqrt(6.0 / 80)
    assert w.shape == (30, 50)
    assert np.all(np.abs(w) <= limit)
    assert np.std(w) > 0.5 * limit / math.sqrt(3)
