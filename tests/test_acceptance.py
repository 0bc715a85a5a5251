"""End-to-end acceptance gate.

Nine checks, run in order, each printing a single PASS/FAIL line so a full
run reads as a checklist: exact inference against brute-force oracles,
gradient checks over every differentiable operation, probability
normalization, scorer equivalence, scaled-down learning runs, an ablation
direction check, tokenizer properties, the learning-rate schedule, and
bitwise determinism of the train/save/load/tag/score pipeline.

The learning checks (5 and 6) train real models and dominate the runtime;
expect the module to take a few minutes.
"""

import contextlib
import itertools
import math
import time

import numpy as np
import pytest

import seqtag.autodiff as ad
from seqtag.autodiff import Tensor, gelu, layer_norm
from seqtag.crf import CRFParams, log_partition, log_prob, score_sequence, viterbi_decode
from seqtag.data import build_vocab, parse_conll, serialize_conll, split_corpus
from seqtag.encoders import ComposerConfig, ToyTransformerConfig
from seqtag.evaluation import report_keyvalues, score
from seqtag.models import TrainConfig, build_model, load_model, save_model, tag_corpus
from seqtag.optim import lr_schedule
from seqtag.subword import UnigramVocab, decode, segment, train_unigram
from seqtag.synth import generate_corpus
from seqtag.training import bench, bench_table, evaluate_model, train

from oracles import (align_labels, all_segmentations, best_segmentation, crf_brute_argmax,
                     crf_brute_log_partition, finite_diff, max_rel_error,
                     project_predictions, segmentation_score_rescanning, softmax_rows)
from test_autodiff import _op_cases, check_grad
from test_evaluation import EXHIBIT_TAGS, random_corpus


@contextlib.contextmanager
def verdict(capsys, label):
    """Print exactly one PASS/FAIL line for the enclosed check."""
    note = {"text": ""}
    try:
        yield note
    except BaseException:
        with capsys.disabled():
            print(f"FAIL  {label}")
        raise
    with capsys.disabled():
        suffix = f"  ({note['text']})" if note["text"] else ""
        print(f"PASS  {label}{suffix}")


def random_chain(rng, max_len=5, max_tags=4):
    n = int(rng.integers(1, max_len + 1))
    num_tags = int(rng.integers(1, max_tags + 1))
    emissions = rng.standard_normal((n, num_tags)) * 2.0
    transition = rng.standard_normal((num_tags + 1, num_tags + 1))
    crf = CRFParams(transition=Tensor(transition.copy(), requires_grad=True),
                    num_tags=num_tags)
    return crf, emissions, transition


def test_1_decoding_and_partition_match_enumeration(capsys):
    with verdict(capsys, "1 viterbi and log-partition match exhaustive enumeration") as note:
        started = time.perf_counter()
        rng = np.random.default_rng(100)
        for _ in range(200):
            crf, emissions, transition = random_chain(rng)
            best_path, _ = crf_brute_argmax(emissions, transition)
            assert viterbi_decode(crf, Tensor(emissions)) == best_path
            got = float(log_partition(crf, Tensor(emissions)).data)
            want = crf_brute_log_partition(emissions, transition)
            assert abs(got - want) <= 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        note["text"] = f"200 instances in {elapsed:.1f}s"


def test_2_gradients_match_finite_differences(capsys):
    with verdict(capsys, "2 analytic gradients match finite differences") as note:
        started = time.perf_counter()

        cases = _op_cases(np.random.default_rng(0))
        for name in sorted(cases):
            rng = np.random.default_rng(sum(name.encode()))
            build, make = _op_cases(rng)[name]
            for _ in range(10):
                check_grad(build, make())

        rng = np.random.default_rng(6)
        pv = Tensor(rng.standard_normal(4))
        pm = Tensor(rng.standard_normal((3, 5)))
        ps = Tensor(rng.standard_normal((3, 4)))
        for _ in range(10):
            check_grad(lambda a: ad.tensor_sum(ad.mul(gelu(a), pv)),
                       [rng.standard_normal(4) * 2])
            check_grad(lambda x, g, b: ad.tensor_sum(ad.mul(layer_norm(x, g, b), pm)),
                       [rng.standard_normal((3, 5)),
                        rng.standard_normal(5) * 0.5 + 1.0,
                        rng.standard_normal(5) * 0.5])
            check_grad(lambda x: ad.tensor_sum(ad.mul(softmax_rows(x), ps)),
                       [rng.standard_normal((3, 4)) * 2])

        # end to end: sequence nll of a two-token tagger, differentiated
        # against every trainable parameter
        sentence = parse_conll(["Ali\tali+Noun+Prop+A3sg+Nom\tB-PERSON",
                                "geldi\tgel+Verb+Pos+Past+A3sg\tO"])[0]
        cfg = TrainConfig(
            model_kind="bilstm-crf",
            composer=ComposerConfig(use_word=True, use_char=True, word_dim=4,
                                    char_dim=3, char_hidden=2),
            dropout_p=0.0, hidden_dim=3, seed=0)
        model = build_model(cfg, build_vocab([sentence]), np.random.default_rng(5))
        params = model.named_parameters()
        names = sorted(params)

        nll = model.loss(sentence, training=False)
        ad.backward(nll)
        analytic = [params[k].grad.copy() for k in names]

        def f(*arrays):
            for key, arr in zip(names, arrays):
                params[key].data = arr
            return float(model.loss(sentence, training=False).data)

        base = [params[k].data.copy() for k in names]
        numeric = finite_diff(f, base)
        for key, arr in zip(names, base):
            params[key].data = arr
        worst = max(max_rel_error(a, n) for a, n in zip(analytic, numeric))
        assert worst <= 1e-4

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        note["text"] = f"worst end-to-end rel error {worst:.2e}, {elapsed:.1f}s"


def test_3_labeling_distribution_normalizes(capsys):
    with verdict(capsys, "3 exp(log_prob) sums to one over all labelings") as note:
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(50):
            crf, emissions, _ = random_chain(rng, max_len=4, max_tags=3)
            n, num_tags = emissions.shape
            log_z = float(log_partition(crf, Tensor(emissions)).data)
            total = sum(
                math.exp(float(score_sequence(crf, Tensor(emissions),
                                              list(labels)).data) - log_z)
                for labels in itertools.product(range(num_tags), repeat=n))
            worst = max(worst, abs(total - 1.0))
        assert worst <= 1e-9
        note["text"] = f"50 instances, worst deviation {worst:.1e}"


def test_4_scorer_matches_bruteforce_span_counting(capsys):
    from oracles import naive_entity_scores

    with verdict(capsys, "4 entity scorer matches brute-force span matcher") as note:
        rng = np.random.default_rng(102)
        alphabet = ["O"] + [f"{p}-{t}" for t in ("PER", "LOC", "ORG") for p in "BI"]
        for _ in range(500):
            gold = random_corpus(rng, int(rng.integers(1, 5)))
            pred = [[t if rng.random() < 0.6 else
                     alphabet[rng.integers(0, len(alphabet))] for t in tags]
                    for tags in gold]
            report = score(gold, pred)
            p, r, f1, acc, per_type = naive_entity_scores(gold, pred)
            assert (report.precision, report.recall, report.f1) == (p, r, f1)
            assert report.token_accuracy == acc
            assert set(report.per_type) == set(per_type)
            for etype, (tp, tr, tf, support) in per_type.items():
                ts = report.per_type[etype]
                assert (ts.precision, ts.recall, ts.f1, ts.support) == \
                    (tp, tr, tf, support)

        # boundary-error half credit: one of two predicted entities is exact,
        # the other is clipped one token short
        pred = [["B-PERSON", "I-PERSON", "O", "O", "O", "O",
                 "B-ORGANIZATION", "I-ORGANIZATION", "I-ORGANIZATION",
                 "O", "O", "O"]]
        report = score([EXHIBIT_TAGS], pred)
        assert (report.precision, report.recall, report.f1) == (50.0, 50.0, 50.0)
        note["text"] = "500 corpora exact, half-credit case exact"


def test_5_taggers_learn_synthetic_corpus(capsys):
    with verdict(capsys, "5 scaled-down learning reaches target F1") as note:
        corpus = generate_corpus(2000, seed=0)
        split = split_corpus(corpus, valid_fraction=0.2, seed=0)

        # at ~2 minutes per epoch this config can only fit 6 epochs into the
        # 15-minute budget; it reaches the target in the first
        started = time.perf_counter()
        cfg = TrainConfig(
            model_kind="bilstm-crf",
            composer=ComposerConfig(use_word=True, use_char=True, word_dim=48,
                                    char_dim=16, char_hidden=12),
            lr=0.1, dropout_p=0.0, epochs=6, batch_size=4, hidden_dim=32, seed=0)
        recurrent = train(cfg, split, target_f1=95.0)
        recurrent_time = time.perf_counter() - started
        assert recurrent.best_f1 >= 95.0
        assert recurrent.best_epoch <= 30
        assert recurrent_time < 900.0

        started = time.perf_counter()
        cfg = TrainConfig(
            model_kind="transformer-crf",
            optimizer="adam-decoupled-decay",
            transformer=ToyTransformerConfig(num_layers=2, num_heads=2,
                                             hidden_units=32, ff_units=64,
                                             max_len=64, dropout_p=0.0),
            lr=1e-3, dropout_p=0.0, epochs=30, batch_size=8,
            subword_vocab_size=200, seed=0)
        attention = train(cfg, split, target_f1=90.0)
        attention_time = time.perf_counter() - started
        assert attention.best_f1 >= 90.0
        assert attention.best_epoch <= 30
        assert attention_time < 900.0

        note["text"] = (f"bilstm-crf F1 {recurrent.best_f1:.2f} in {recurrent_time:.0f}s, "
                    f"transformer-crf F1 {attention.best_f1:.2f} in {attention_time:.0f}s")


def test_6_richer_inputs_and_crf_do_not_hurt(capsys):
    with verdict(capsys, "6 mean F1: word+char crf >= word-only linear") as note:
        corpus = generate_corpus(300, seed=1)
        split = split_corpus(corpus, valid_fraction=0.2, seed=0)
        full = TrainConfig(
            model_kind="bilstm-crf",
            composer=ComposerConfig(use_word=True, use_char=True, word_dim=24,
                                    char_dim=8, char_hidden=8),
            lr=0.1, dropout_p=0.0, epochs=2, batch_size=4, hidden_dim=16, seed=0)
        lean = TrainConfig(
            model_kind="bilstm-linear",
            composer=ComposerConfig(use_word=True, use_char=False, word_dim=24),
            lr=0.1, dropout_p=0.0, epochs=2, batch_size=4, hidden_dim=16, seed=0)
        results = bench([("word+char bilstm-crf", full),
                         ("word-only bilstm-linear", lean)],
                        split, seeds=(0, 1, 2, 3, 4))
        with capsys.disabled():
            print()
            print(bench_table(results))
        assert results[0].mean_f1 >= results[1].mean_f1
        note["text"] = f"{results[0].mean_f1:.2f} vs {results[1].mean_f1:.2f} over 5 seeds"


def test_7_tokenizer_properties(capsys):
    with verdict(capsys, "7 tokenizer round-trip, optimality, alignment identity") as note:
        corpus = generate_corpus(2000, seed=0)
        tok = train_unigram([" ".join(s.surfaces) for s in corpus], 200, seed=0)

        # round-trip: decode(segment(s)) is s up to whitespace collapsing,
        # including characters the tokenizer never saw
        rng = np.random.default_rng(103)
        alphabet = list("abcçdefgğhiıjklmnoöprsştuüvyz'.,0123456789xqw  ")
        for _ in range(10_000):
            n = int(rng.integers(1, 21))
            text = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))
            assert decode(tok, segment(tok, text)) == " ".join(text.split())

        # viterbi segmentation is the enumeration optimum for every small
        # piece inventory
        pool = ["a", "b", "ab", "ba", "aa", "bb", "aab", "abb", "bab", "aba"]
        for trial in range(300):
            rng2 = np.random.default_rng(104 + trial)
            extra = [pool[i] for i in rng2.permutation(len(pool))[:int(rng2.integers(0, 7))]]
            pieces = sorted(set(["a", "b"] + extra))[:8]
            raw = {p: float(v) for p, v in zip(pieces, rng2.random(len(pieces)) + 0.1)}
            total = sum(raw.values())
            vocab = UnigramVocab({p: math.log(v / total) for p, v in raw.items()})
            word = "".join("ab"[i] for i in rng2.integers(0, 2, size=int(rng2.integers(1, 9))))
            got = [p.removeprefix(vocab.marker) for p in segment(vocab, word)]
            assert "".join(got) == word
            best, best_lp = best_segmentation(word, vocab.pieces)
            assert abs(segmentation_score_rescanning(vocab, got) - best_lp) <= 1e-12
            ties = sum(abs(lp - best_lp) <= 1e-12
                       for _, lp in all_segmentations(word, vocab.pieces))
            if ties == 1:
                assert got == best

        # label alignment: assigning word tags to word-initial pieces and
        # projecting back is the identity on the whole corpus
        for sentence in corpus:
            pieces = segment(tok, " ".join(sentence.surfaces))
            aligned = align_labels(sentence.surfaces, sentence.tags, pieces)
            assert project_predictions(aligned, aligned.labels) == sentence.tags
        note["text"] = "10000 round-trips, 300 optimality draws, 2000-sentence identity"


def test_8_learning_rate_schedule(capsys):
    with verdict(capsys, "8 learning-rate decay produces the expected values") as note:
        expected = [0.0476190, 0.0432900, 0.0376435]

        got = [lr_schedule(0.05, epoch) for epoch in (1, 2, 3)]
        assert all(abs(g - e) <= 1e-6 for g, e in zip(got, expected))

        # the same values must appear in a real training history: the lr
        # column records the rate each epoch actually used
        corpus = generate_corpus(12, seed=4)
        split = split_corpus(corpus, valid_fraction=0.25, seed=0)
        cfg = TrainConfig(
            model_kind="bilstm-linear",
            composer=ComposerConfig(use_word=True, use_char=False, word_dim=4),
            lr=0.05, dropout_p=0.0, epochs=4, batch_size=4, hidden_dim=2, seed=0)
        history = train(cfg, split).history
        assert abs(history[0].lr - 0.05) <= 1e-12
        for row, want in zip(history[1:], expected):
            assert abs(row.lr - want) <= 1e-6
        note["text"] = "recurrence and training history agree"


def test_9_pipeline_is_bitwise_deterministic(capsys, tmp_path):
    def pipeline(run):
        corpus = generate_corpus(120, seed=5)
        split = split_corpus(corpus, valid_fraction=0.25, seed=1)
        cfg = TrainConfig(
            model_kind="bilstm-crf",
            composer=ComposerConfig(use_word=True, use_char=False, word_dim=12),
            lr=0.1, dropout_p=0.0, epochs=2, batch_size=4, hidden_dim=8, seed=9)
        result = train(cfg, split)
        path = tmp_path / f"model-{run}.zip"
        save_model(result.model, path)
        loaded = load_model(path)
        tagged = tag_corpus(loaded, split.valid)
        report = evaluate_model(loaded, split.valid)
        return (result.metrics_log(), serialize_conll(tagged),
                report_keyvalues(report),
                (report.precision, report.recall, report.f1, report.token_accuracy))

    with verdict(capsys, "9 train/save/load/tag/score is bitwise reproducible") as note:
        first = pipeline(1)
        second = pipeline(2)
        assert first == second
        note["text"] = f"two runs identical, F1 {first[3][2]:.2f}"
