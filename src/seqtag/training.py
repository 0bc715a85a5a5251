"""Training loop, evaluation helpers, and the multi-seed benchmark harness."""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import CorpusSplit, LabeledSentence, build_vocab, validate_bio2
from .errors import DivergenceError, UsageError, ValidationError
from .evaluation import EvalReport, score
from .models import (SequenceTagger, TrainConfig, build_model,
                     needs_tokenizer, tag_corpus)
from .optim import (AdamDecoupled, SGDMomentum, add_l2_gradients,
                    clip_gradients, flatten, lr_schedule)
from .subword import UnigramVocab, train_unigram

log = logging.getLogger(__name__)

METRICS_HEADER = "epoch\ttrain_loss\tvalid_f1\tvalid_p\tvalid_r\tlr"


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    valid_f1: float
    valid_p: float
    valid_r: float
    lr: float

    def log_line(self) -> str:
        return (f"{self.epoch}\t{self.train_loss!r}\t{self.valid_f1!r}"
                f"\t{self.valid_p!r}\t{self.valid_r!r}\t{self.lr!r}")


@dataclass
class TrainResult:
    model: SequenceTagger
    history: list[EpochMetrics]
    best_epoch: int
    best_f1: float
    tokenizer: UnigramVocab | None = None

    def metrics_log(self) -> str:
        lines = [METRICS_HEADER] + [m.log_line() for m in self.history]
        return "\n".join(lines) + "\n"


def evaluate_model(model: SequenceTagger,
                   sentences: list[LabeledSentence]) -> EvalReport:
    predicted = tag_corpus(model, sentences)
    return score([s.tags for s in sentences], [s.tags for s in predicted])


def _batches(order, size):
    for start in range(0, len(order), size):
        yield order[start:start + size]


def _check_bio2(named) -> None:
    """Raise ValidationError at the first orphan I-X gold tag of the
    (name, sentences) pairs in named.  The BIO2 mask scores such a gold path
    -inf, so training would otherwise stop on a non-finite loss, as if it
    had diverged, and evaluation would score ill-formed gold tags."""
    for name, sentences in named:
        for i, sentence in enumerate(sentences):
            try:
                validate_bio2(sentence, "strict")
            except ValidationError as exc:
                raise ValidationError(f"{name} sentence {i}: {exc}") from None


def train(cfg: TrainConfig, split: CorpusSplit,
          tokenizer: UnigramVocab | None = None,
          on_epoch=None, target_f1: float | None = None) -> TrainResult:
    """Fit a model on split.train, tracking entity F1 on split.valid.

    Each epoch visits the training sentences in a fresh seeded shuffle;
    each mini-batch is one graph whose summed sentence losses drive one
    clipped update, with the L2 penalty's gradient added after the backward
    pass and its value added to the reported loss.
    The parameters kept at the end are those of the best-validation epoch,
    restored in place into the flat buffer (optim.flatten) they view.
    With cfg.mask_illegal, gold tags that break BIO2 raise ValidationError
    before training starts.
    A non-finite loss or gradient norm aborts with DivergenceError before
    the update.  target_f1, when given, stops early once validation F1
    reaches it.
    """
    if not split.train or not split.valid:
        raise UsageError("training needs non-empty train and valid splits")
    if cfg.mask_illegal:
        _check_bio2((("train", split.train), ("valid", split.valid)))
    rng = np.random.default_rng(cfg.seed)
    vocab = build_vocab(split.train, cfg.min_count)
    if tokenizer is None and needs_tokenizer(cfg):
        text = [" ".join(s.surfaces) for s in split.train]
        tokenizer = train_unigram(text, cfg.subword_vocab_size, seed=cfg.seed)
    model = build_model(cfg, vocab, rng, tokenizer)
    params = flatten(model.parameters())
    opt = (SGDMomentum(params, cfg.momentum) if cfg.optimizer == "sgd-momentum"
           else AdamDecoupled(params))
    best_f1 = -1.0
    best_epoch = 0
    best_state = params.data.copy()
    history: list[EpochMetrics] = []
    for epoch in range(1, cfg.epochs + 1):
        lr = lr_schedule(cfg.lr, epoch - 1) if cfg.optimizer == "sgd-momentum" else cfg.lr
        order = rng.permutation(len(split.train))
        total = 0.0
        for batch in _batches(order, cfg.batch_size):
            opt.zero_grad()
            loss = model.loss(*(split.train[int(i)] for i in batch),
                              training=True, rng=rng)
            ad.backward(loss)
            value = float(loss.data) + add_l2_gradients(params, cfg.lambda_l2)
            del loss  # free this graph before the next one is built
            if not np.isfinite(value):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            norm = clip_gradients(params, cfg.clip_norm)
            if not np.isfinite(norm):
                raise DivergenceError(f"non-finite gradient norm at epoch {epoch}")
            opt.step(lr)
            total += value
        train_loss = total / len(split.train)
        report = evaluate_model(model, split.valid)
        metrics = EpochMetrics(epoch, train_loss, report.f1,
                               report.precision, report.recall, lr)
        history.append(metrics)
        if on_epoch is not None:
            on_epoch(metrics)
        if report.f1 > best_f1:
            best_f1 = report.f1
            best_epoch = epoch
            best_state = params.data.copy()
        if target_f1 is not None and report.f1 >= target_f1:
            break
    params.data[...] = best_state
    return TrainResult(model, history, best_epoch, best_f1, tokenizer)


# ---------------------------------------------------------------------------
# multi-seed benchmark


@dataclass
class BenchResult:
    label: str
    seeds: list[int]
    f1s: list[float] = field(default_factory=list)
    precisions: list[float] = field(default_factory=list)
    recalls: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def mean_f1(self) -> float:
        return float(np.mean(self.f1s))


def bench(configs, split: CorpusSplit, seeds=(0, 1, 2, 3, 4),
          tokenizer: UnigramVocab | None = None,
          target_f1: float | None = None) -> list[BenchResult]:
    """Train every labeled config under every seed; score the held-out split.

    configs is an iterable of (label, TrainConfig) pairs.  Evaluation uses
    split.test when present, split.valid otherwise.  If any config sets
    mask_illegal, gold tags of split.test that break BIO2 raise
    ValidationError before anything is trained.  Row metrics depend only
    on config and seed, so reruns of identical configs reproduce them.
    """
    configs = list(configs)
    held_out = list(split.test) if split.test else list(split.valid)
    if any(cfg.mask_illegal for _, cfg in configs):
        _check_bio2((("test", split.test),))  # train() checks the other splits
    results = []
    for label, cfg in configs:
        result = BenchResult(label=label, seeds=list(seeds))
        start = time.perf_counter()
        for seed in seeds:
            run_cfg = dataclasses.replace(cfg, seed=int(seed))
            trained = train(run_cfg, split, tokenizer, target_f1=target_f1)
            report = evaluate_model(trained.model, held_out)
            result.f1s.append(report.f1)
            result.precisions.append(report.precision)
            result.recalls.append(report.recall)
            result.accuracies.append(report.token_accuracy)
            log.info("bench %s seed %d: f1 %.2f", label, seed, report.f1)
        result.elapsed_seconds = time.perf_counter() - start
        results.append(result)
    return results


def bench_table(results: list[BenchResult]) -> str:
    """Comparison table: one row per config and seed, then per-config means."""
    header = f"{'config':<28}{'seed':>6}{'P':>9}{'R':>9}{'F1':>9}{'acc':>9}"
    lines = [header, "-" * len(header)]
    for r in results:
        for i, seed in enumerate(r.seeds):
            lines.append(f"{r.label:<28}{seed:>6}{r.precisions[i]:>9.2f}"
                         f"{r.recalls[i]:>9.2f}{r.f1s[i]:>9.2f}"
                         f"{r.accuracies[i]:>9.2f}")
    lines.append("-" * len(header))
    for r in results:
        lines.append(f"{r.label:<28}{'mean':>6}{np.mean(r.precisions):>9.2f}"
                     f"{np.mean(r.recalls):>9.2f}{r.mean_f1:>9.2f}"
                     f"{np.mean(r.accuracies):>9.2f}")
    return "\n".join(lines) + "\n"
