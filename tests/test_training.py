import dataclasses
import io
import unicodedata

import numpy as np
import pytest

from seqtag import autodiff as ad
from seqtag import optim, training
from seqtag.data import CorpusSplit, LabeledSentence, Token, split_corpus
from seqtag.encoders import ComposerConfig, ToyTransformerConfig
from seqtag.errors import DivergenceError, UsageError, ValidationError
from seqtag.models import SequenceTagger, TrainConfig, save_model
from seqtag.synth import generate_corpus
from seqtag.training import (METRICS_HEADER, bench, bench_table,
                             evaluate_model, train)


def tiny_cfg(**kw):
    defaults = dict(
        model_kind="bilstm-crf",
        composer=ComposerConfig(word_dim=16, use_char=False),
        transformer=ToyTransformerConfig(num_layers=1, num_heads=2,
                                         hidden_units=12, ff_units=16,
                                         max_len=64, dropout_p=0.0),
        hidden_dim=8, dropout_p=0.0, epochs=2, lr=0.05, batch_size=4,
        subword_vocab_size=80)
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def split():
    return split_corpus(generate_corpus(30, seed=2), valid_fraction=0.2, seed=0)


def test_history_covers_every_epoch_with_finite_metrics(split):
    result = train(tiny_cfg(epochs=3), split)
    assert [m.epoch for m in result.history] == [1, 2, 3]
    for m in result.history:
        assert np.isfinite(m.train_loss)
        assert 0.0 <= m.valid_f1 <= 100.0
        assert 0.0 <= m.valid_p <= 100.0
        assert 0.0 <= m.valid_r <= 100.0


def test_metrics_log_is_tab_separated_with_header(split):
    result = train(tiny_cfg(), split)
    lines = result.metrics_log().splitlines()
    assert lines[0] == METRICS_HEADER
    assert lines[0] == "epoch\ttrain_loss\tvalid_f1\tvalid_p\tvalid_r\tlr"
    for line in lines[1:]:
        cols = line.split("\t")
        assert len(cols) == 6
        int(cols[0])
        for col in cols[1:]:
            float(col)


def test_same_seed_reproduces_the_metrics_log_bitwise(split):
    a = train(tiny_cfg(seed=9), split)
    b = train(tiny_cfg(seed=9), split)
    assert a.metrics_log() == b.metrics_log()


def test_different_seed_changes_the_metrics_log(split):
    a = train(tiny_cfg(seed=1), split)
    b = train(tiny_cfg(seed=2), split)
    assert a.metrics_log() != b.metrics_log()


def test_sgd_learning_rate_decays_each_epoch(split):
    result = train(tiny_cfg(epochs=3, lr=0.05), split)
    lrs = [m.lr for m in result.history]
    assert lrs[0] == 0.05
    assert abs(lrs[1] - 0.05 / 1.05) <= 1e-15
    assert abs(lrs[2] - 0.05 / 1.05 / 1.10) <= 1e-15


def test_adam_learning_rate_stays_constant(split):
    cfg = tiny_cfg(optimizer="adam-decoupled-decay", lr=1e-3, epochs=3)
    result = train(cfg, split)
    assert [m.lr for m in result.history] == [1e-3, 1e-3, 1e-3]


def test_returned_model_scores_the_best_recorded_f1(split):
    result = train(tiny_cfg(epochs=4, lr=0.1), split)
    assert result.best_f1 == max(m.valid_f1 for m in result.history)
    first_best = next(m.epoch for m in result.history
                      if m.valid_f1 == result.best_f1)
    assert result.best_epoch == first_best
    report = evaluate_model(result.model, split.valid)
    assert report.f1 == result.best_f1


@pytest.mark.parametrize("optimizer", ["sgd-momentum", "adam-decoupled-decay"])
def test_trained_parameters_stay_views_of_one_buffer(split, monkeypatch, optimizer):
    # the best epoch is copied back into the flat buffer, never rebound
    flats, states = [], []

    def recording_flatten(params):
        flats.append(optim.flatten(params))
        return flats[-1]

    monkeypatch.setattr(training, "flatten", recording_flatten)
    result = train(tiny_cfg(epochs=4, lr=0.1, optimizer=optimizer), split,
                   on_epoch=lambda m: states.append(flats[0].data.copy()))
    (flat,) = flats
    offset = 0
    for p in result.model.parameters():
        assert p.data.base is flat.data and p.grad.base is flat.grad
        assert np.shares_memory(p.data, flat.data[offset:offset + p.size])
        offset += p.size
    assert offset == flat.data.size
    assert np.array_equal(flat.data, states[result.best_epoch - 1])


def test_l2_strength_raises_the_reported_training_loss(split):
    plain = train(tiny_cfg(epochs=1, lambda_l2=0.0), split)
    heavy = train(tiny_cfg(epochs=1, lambda_l2=1.0), split)
    assert heavy.history[0].train_loss > plain.history[0].train_loss


def test_l2_stays_out_of_the_graph_train_differentiates(split, monkeypatch):
    losses, roots = [], []
    real_loss, real_backward = SequenceTagger.loss, ad.backward

    def recording_loss(self, *args, **kw):
        losses.append(real_loss(self, *args, **kw))
        return losses[-1]

    def recording_backward(root):
        roots.append(root)
        real_backward(root)

    monkeypatch.setattr(SequenceTagger, "loss", recording_loss)
    monkeypatch.setattr(ad, "backward", recording_backward)
    cfg = tiny_cfg(epochs=1, lambda_l2=0.1)
    train(cfg, split)
    assert len(roots) == len(losses) == -(-len(split.train) // cfg.batch_size)
    assert all(root is loss for root, loss in zip(roots, losses))


def test_target_f1_stops_training_early(split):
    result = train(tiny_cfg(epochs=10), split, target_f1=0.0)
    assert len(result.history) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_learning_rate_raises_divergence_error(split):
    with pytest.raises(DivergenceError):
        train(tiny_cfg(lr=1e200, clip_norm=1e30, epochs=3, batch_size=1), split)


def test_non_finite_gradient_raises_divergence_error(split, monkeypatch):
    # the loss stays finite; only the gradient of every parameter is NaN, which
    # an unchecked update would write into the parameters
    real_backward = ad.backward

    def nan_backward(root):
        real_backward(root)
        for node in ad.trace(root):
            if node.requires_grad and not node._parents:
                node.grad[...] = np.nan

    monkeypatch.setattr(ad, "backward", nan_backward)
    with pytest.raises(DivergenceError, match="gradient"):
        train(tiny_cfg(epochs=1, batch_size=len(split.train)), split)


def test_an_orphan_gold_tag_under_the_mask_is_a_data_error(split):
    """Under the BIO2 mask an orphan I-X gold path scores -inf; training
    names the sentence and token instead of reporting a divergence."""
    k = 3
    bad = split.train[k].with_tags(["I-PERSON"] + split.train[k].tags[1:])
    train_set = split.train[:k] + [bad] + split.train[k + 1:]
    word = bad.surfaces[0]
    with pytest.raises(ValidationError, match=f"train sentence {k}: orphan I-PERSON "
                                              f"at token index 0 \\({word!r}"):
        train(tiny_cfg(mask_illegal=True, epochs=1),
              CorpusSplit(train=train_set, valid=split.valid, test=[], seed=0))
    valid_set = [bad] + split.valid[1:]
    with pytest.raises(ValidationError, match="valid sentence 0: orphan I-PERSON"):
        train(tiny_cfg(mask_illegal=True, epochs=1),
              CorpusSplit(train=split.train, valid=valid_set, test=[], seed=0))


def test_empty_splits_are_rejected(split):
    with pytest.raises(UsageError):
        train(tiny_cfg(), CorpusSplit(train=[], valid=split.valid, test=[], seed=0))
    with pytest.raises(UsageError):
        train(tiny_cfg(), CorpusSplit(train=split.train, valid=[], test=[], seed=0))


def test_transformer_kind_trains_with_an_auto_tokenizer(split):
    cfg = tiny_cfg(model_kind="transformer-crf",
                   optimizer="adam-decoupled-decay", lr=1e-3, epochs=1)
    result = train(cfg, split)
    assert result.tokenizer is not None
    assert len(result.history) == 1


# ---------------------------------------------------------------------------
# benchmark harness


def test_bench_runs_each_config_under_each_seed(split):
    configs = [("crf", tiny_cfg(epochs=1)),
               ("linear", tiny_cfg(model_kind="bilstm-linear", epochs=1))]
    results = bench(configs, split, seeds=(0, 1))
    assert [r.label for r in results] == ["crf", "linear"]
    for r in results:
        assert r.seeds == [0, 1]
        assert len(r.f1s) == 2
        assert r.mean_f1 == pytest.approx(np.mean(r.f1s))
        assert r.elapsed_seconds > 0


def test_bench_rows_are_reproducible_for_identical_configs(split):
    configs = [("a", tiny_cfg(epochs=1))]
    first = bench(configs, split, seeds=(0, 1))[0]
    second = bench(configs, split, seeds=(0, 1))[0]
    assert first.f1s == second.f1s
    assert first.precisions == second.precisions
    assert first.recalls == second.recalls
    assert first.accuracies == second.accuracies


def test_bench_fits_one_tokenizer_for_every_seed(split, monkeypatch):
    """A transformer bench over two seeds fits its tokenizer once, and its
    rows are those of train() fitting its own tokenizer for each seed."""
    cfg = tiny_cfg(model_kind="transformer-crf", epochs=1)
    fitted = []
    real = training.train_unigram
    monkeypatch.setattr(training, "train_unigram",
                        lambda *args, **kwargs: fitted.append(args) or real(*args, **kwargs))
    (row,) = bench([("t", cfg)], split, seeds=(0, 1))
    assert len(fitted) == 1
    for i, seed in enumerate((0, 1)):
        report = evaluate_model(train(dataclasses.replace(cfg, seed=seed), split).model,
                                split.valid)
        assert (row.f1s[i], row.precisions[i], row.recalls[i], row.accuracies[i]) == (
            report.f1, report.precision, report.recall, report.token_accuracy)
    assert len(fitted) == 3


def test_bench_prefers_the_test_split_when_present(split):
    with_test = CorpusSplit(train=split.train, valid=split.valid,
                            test=split.valid, seed=0)
    r_test = bench([("a", tiny_cfg(epochs=1))], with_test, seeds=(0,))[0]
    r_valid = bench([("a", tiny_cfg(epochs=1))], split, seeds=(0,))[0]
    # test split equals the valid split here, so the scores must agree
    assert r_test.f1s == r_valid.f1s


def test_bench_table_lists_rows_and_means(split):
    configs = [("crf", tiny_cfg(epochs=1))]
    table = bench_table(bench(configs, split, seeds=(0, 1)))
    lines = table.splitlines()
    assert "config" in lines[0] and "F1" in lines[0]
    assert sum("crf" in ln for ln in lines) == 3  # two seed rows plus the mean
    assert any("mean" in ln for ln in lines)


def _decomposed(sentences):
    nfd = lambda text: text and unicodedata.normalize("NFD", text)  # noqa: E731
    return [LabeledSentence(tuple(Token(nfd(t.surface), t.gold_tag, nfd(t.morph_analysis))
                                  for t in s.tokens)) for s in sentences]


@pytest.mark.parametrize("kind", ["bilstm-crf", "transformer-crf"])
def test_nfd_training_data_saves_the_artifact_of_its_nfc_form(split, kind):
    decomposed = CorpusSplit(_decomposed(split.train), _decomposed(split.valid), [], split.seed)
    artifacts = []
    for data in (split, decomposed):
        buf = io.BytesIO()
        save_model(train(tiny_cfg(model_kind=kind, epochs=1), data).model, buf)
        artifacts.append(buf.getvalue())
    assert artifacts[0] == artifacts[1]
