"""One benchmark workload, run in its own process.

Usage: python3 worker.py --workload NAME --seed S --seconds N [--traced]
       [--smoke]

The runner (run.py) starts this with seqtag's source on PYTHONPATH and the
BLAS thread count pinned.  The last line of standard output is one JSON
object with the measurements, the held-out tags, the graph counts and the
operation counts.

A run is a closed loop: one caller sends one mini-batch or one sentence at a
time and waits for the result.  It has three phases.

- setup: train the subword tokenizer (transformer only) and, after training,
  load the artifact saved to an in-memory zip.  Both are repeated; setup_s is
  the sum of their medians.
- train: one epoch of train() over a fixed train slice, with a one-sentence
  validation split so per-epoch evaluation stays negligible.
- tag: the held-out slice is tagged once through tag_corpus (the batch path
  of evaluate), one training-sized mini-batch per call, and once sentence by
  sentence through predict (the path of CLI tag), the two alternating by
  mini-batch.  Tagging goes on, mini-batch by mini-batch, until --seconds of
  it has been measured and one whole pass is done; a traced run makes one
  pass, as its timings are not the end-to-end metrics.

tag_tok_s is a total over every tag_corpus call.  A median over mini-batches
would jump between two modes, because about half of the mini-batches of a
GC-heavy workload include a full collection.

Every timing is reported at a fixed reference speed of the machine (see
SpeedMeter): on a shared host, such as a 2-vCPU cloud VM, the speed of one
core drifts by up to ±25% over tens of seconds to minutes, which no run
length averages out.  The wall-clock values are reported beside them as
"raw".

Every training mini-batch and every tagged sentence is one operation.  An
operation fails when it raises or when its output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import seqtag
from seqtag import autodiff as ad
from seqtag import models, subword
from seqtag.crf import illegal_mask, score_sequence
from seqtag.data import CorpusSplit, build_vocab, split_corpus
from seqtag.encoders import ComposerConfig, ToyTransformerConfig
from seqtag.evaluation import score
from seqtag.models import TrainConfig, build_model, save_model, tag_corpus
from seqtag.synth import generate_corpus
from seqtag.training import train

from tracer import Tracer, layer_metrics

# The two learning configs of the acceptance gate's learning check.
CONFIGS = {
    "bilstm-char-crf": TrainConfig(
        model_kind="bilstm-crf",
        composer=ComposerConfig(use_word=True, use_char=True, word_dim=48,
                                char_dim=16, char_hidden=12),
        lr=0.1, dropout_p=0.0, epochs=1, batch_size=4, hidden_dim=32, seed=0),
    "transformer-crf": TrainConfig(
        model_kind="transformer-crf", optimizer="adam-decoupled-decay",
        transformer=ToyTransformerConfig(num_layers=2, num_heads=2,
                                         hidden_units=32, ff_units=64,
                                         max_len=64, dropout_p=0.0),
        lr=1e-3, dropout_p=0.0, epochs=1, batch_size=8,
        subword_vocab_size=200, seed=0),
}

# Sentences in the train and held-out slices.  The train slices are the
# smallest at which one epoch gives a held-out F1 that barely moves between
# workload seeds.  A tag pass needs 200 sentences for ten predict latencies
# above p95; bilstm-char-crf tags 300 because its GC-heavy timings need a
# longer window than 200 sentences give.
SIZES = {"bilstm-char-crf": (600, 300), "transformer-crf": (1600, 200)}
SMOKE_SIZES = (24, 12)

UNIGRAM_REPEATS = 3
LOAD_REPEATS = 15
MAX_TAG_PASSES = 50
ORACLE_SENTENCES = 50   # held-out sentences given the CRF path-score check
RANDOM_LABELINGS = 16   # seeded random labelings per checked sentence
GRAPH_SAMPLE = 8        # fixed sentences whose autodiff graphs are counted
GRAPH_SEED = 0          # their corpus seed, independent of --seed
CAL_LOOP = 5000         # iterations of the calibration loop
CAL_WINDOW = 9          # calibration passes in the median an interval is scaled by
REF_LOOP_S = 0.5e-3     # the reference speed: the calibration loop takes this long


def calibration_loop() -> float:
    """Seconds one pass of a fixed pure-Python loop takes.  It creates no
    container object, so it never starts a garbage collection."""
    start = perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i % 7
    return perf_counter() - start


class SpeedMeter:
    """Times intervals and scales them to a fixed reference machine speed.

    After each interval the meter runs the calibration loop once, outside the
    interval.  The interval's scaled time is its wall time times REF_LOOP_S
    over the median of the last CAL_WINDOW loop times, so an interval timed
    while the machine runs 20% slow is scaled down by that 20%.
    """

    def __init__(self):
        self.loops: list[float] = []
        self._start = 0.0

    def start(self) -> None:
        self._start = perf_counter()

    def lap(self) -> tuple[float, float]:
        """End the current interval and start the next; (raw, scaled) seconds."""
        raw = perf_counter() - self._start
        self.loops.append(calibration_loop())
        scaled = raw * REF_LOOP_S / statistics.median(self.loops[-CAL_WINDOW:])
        self._start = perf_counter()
        return raw, scaled


@contextlib.contextmanager
def lap_after(owner, attr: str, meter: SpeedMeter, laps: list):
    """Make every call of owner.attr end a meter lap, appended to laps.

    train() gives no per-batch results, so the meter laps after each
    clip_gradients call, once per mini-batch.  The calls and their results
    are unchanged.
    """
    original = vars(owner)[attr]

    def lapped(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            laps.append(meter.lap())

    setattr(owner, attr, lapped)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def total(laps) -> tuple[float, float]:
    return sum(r for r, _ in laps), sum(s for _, s in laps)


def make_inputs(n_train: int, n_heldout: int, seed: int):
    """Train slice, one-sentence validation split and held-out slice."""
    n_valid = n_heldout + 1
    corpus = generate_corpus(n_train + n_valid, seed=seed)
    split = split_corpus(corpus, valid_fraction=n_valid / len(corpus), seed=seed)
    if len(split.valid) != n_valid:
        raise SystemExit(f"split gave {len(split.valid)} validation sentences, "
                         f"expected {n_valid}")
    return split.train, split.valid[:1], split.valid[1:]


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "load1": os.getloadavg()[0], "seed": seed}


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def graph_counts(cfg: TrainConfig) -> dict:
    """Autodiff nodes per sentence for the training loss and the tag-time
    emission rows, plus the training graph's nodes by op kind.

    The counts are structural: they come from an untrained model over a fixed
    corpus, so they repeat exactly whatever --seed is.
    """
    sample = generate_corpus(GRAPH_SAMPLE, seed=GRAPH_SEED)
    tokenizer = None
    if cfg.model_kind.startswith("transformer"):
        text = [" ".join(s.surfaces) for s in generate_corpus(200, seed=GRAPH_SEED)]
        tokenizer = subword.train_unigram(text, cfg.subword_vocab_size, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    model = build_model(cfg, build_vocab(sample), rng, tokenizer)
    train_nodes = tag_nodes = 0
    ops: dict[str, int] = {}
    for s in sample:
        graph = ad.trace(model.loss(s, training=True, rng=rng))
        train_nodes += len(graph)
        for node in graph:
            ops[node._op] = ops.get(node._op, 0) + 1
        rows, _ = model.emission_rows(s.surfaces, s.morphs)
        tag_nodes += len(ad.trace(ad.stack(rows)))
    n = len(sample)
    return {"autodiff.nodes_per_sentence_train": train_nodes / n,
            "autodiff.nodes_per_sentence_tag": tag_nodes / n,
            **{f"autodiff.op.{op}_per_sentence": count / n
               for op, count in sorted(ops.items())}}


def tags_ok(model, sentence, tags) -> bool:
    return len(tags) == len(sentence) and all(t in model.tags for t in tags)


def path_score_ok(model, mask, sentence, tags, rng) -> bool:
    """The decoded path must score at least as high as the gold path and as a
    set of random labelings, under the model's own emissions.  This uses
    score_sequence only, so it is independent of viterbi_decode."""
    rows, covered = model.emission_rows(sentence.surfaces, sentence.morphs)
    emissions = ad.stack(rows)

    def path_score(labels):
        return float(score_sequence(model.crf, emissions, labels, mask).data)

    best = path_score([model.tags.id_of(tags[w]) for w in covered])
    rivals = [rng.integers(0, len(model.tags), size=len(covered)).tolist()
              for _ in range(RANDOM_LABELINGS)]
    gold = [sentence.tags[w] for w in covered]
    if all(t in model.tags for t in gold):
        rivals.append([model.tags.id_of(t) for t in gold])
    tolerance = 1e-9 * max(1.0, abs(best))
    return all(path_score(r) <= best + tolerance for r in rivals)


def check_outputs(model, heldout, outputs, mask, rng) -> list[tuple[list, str]]:
    """The output checks, as (failed operations, message) pairs.

    outputs holds one (tag_corpus tags, predict tags) pair per pass over
    heldout, the first pass whole and the last one possibly cut short; an
    entry is None where its call raised, which has already failed it.  An
    operation is named ("corpus" | "predict", pass, sentence).
    """
    failures = []
    first = outputs[0][0]
    for k, (corpus_tags, predict_tags) in enumerate(outputs):
        for i, (s, c_tags, p_tags) in enumerate(zip(heldout, corpus_tags, predict_tags)):
            if c_tags is not None and not tags_ok(model, s, c_tags):
                failures.append(([("corpus", k, i)], f"tag_corpus output {i} is malformed"))
            if c_tags is not None and c_tags != first[i]:
                failures.append(([("corpus", k, i)], f"pass {k} changed the tags of {i}"))
            if p_tags is not None and not tags_ok(model, s, p_tags):
                failures.append(([("predict", k, i)], f"predict output {i} is malformed"))
            elif None not in (p_tags, c_tags) and p_tags != c_tags:
                failures.append(([("predict", k, i)],
                                 f"predict and tag_corpus disagree on {i}"))
    if model.crf is not None:
        for i, s in enumerate(heldout[:ORACLE_SENTENCES]):
            if first[i] is None or not tags_ok(model, s, first[i]):
                continue  # failed above; the oracle needs well-formed tags
            try:
                ok = path_score_ok(model, mask, s, first[i], rng)
            except Exception as exc:
                failures.append(([("corpus", 0, i)], f"path score of {i} raised {exc!r}"))
                continue
            if not ok:
                failures.append(([("corpus", 0, i)], f"decoded path of {i} is outscored"))
    return failures


def run(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    cfg = CONFIGS[workload]
    n_train, n_heldout = SMOKE_SIZES if smoke else SIZES[workload]
    env = environment(seed)
    train_set, valid_set, heldout = make_inputs(n_train, n_heldout, seed)
    train_tokens = sum(len(s) for s in train_set)
    tracer = Tracer() if traced else None

    def phase(name):
        return tracer.in_phase(name) if tracer else contextlib.nullcontext()

    failed_ops: set = set()  # ("corpus" | "predict", pass, sentence)
    problems: list[str] = []  # failure messages and run-level check failures

    def fail(ops, why):
        failed_ops.update(ops)
        problems.append(why)

    attempted = -(-n_train // cfg.batch_size)  # training mini-batches
    meter = SpeedMeter()
    for _ in range(CAL_WINDOW):  # fill the calibration window
        meter.lap()
    with tracer.installed() if tracer else contextlib.nullcontext():
        # setup, part 1: the tokenizer, trained as train() would train it
        unigram_laps = []
        tokenizer = None
        if cfg.model_kind.startswith("transformer"):
            text = [" ".join(s.surfaces) for s in train_set]
            with phase("setup"):
                for _ in range(UNIGRAM_REPEATS):
                    gc.collect()
                    meter.start()
                    tokenizer = subword.train_unigram(text, cfg.subword_vocab_size,
                                                      seed=cfg.seed)
                    unigram_laps.append(meter.lap())

        # train: one epoch.  train() gives no per-batch results, so an
        # exception here ends the run without a measurement.
        split = CorpusSplit(train=train_set, valid=valid_set, test=[], seed=seed)
        train_laps: list = []
        gc.collect()
        with phase("train"), lap_after(seqtag.training, "clip_gradients",
                                       meter, train_laps):
            meter.start()
            result = train(cfg, split, tokenizer=tokenizer)
            train_laps.append(meter.lap())

        # setup, part 2: the artifact round trip
        buf = io.BytesIO()
        save_model(result.model, buf)
        load_laps = []
        with phase("setup"):
            for _ in range(LOAD_REPEATS):
                gc.collect()
                buf.seek(0)
                meter.start()
                model = models.load_model(buf)
                load_laps.append(meter.lap())

        # tag: the held-out slice one training-sized mini-batch at a time,
        # tag_corpus on the batch and then predict on each of its sentences,
        # so both calls sample the whole tag phase rather than one half of
        # it.  Passes over the slice go on, batch by batch, until --seconds
        # of tagging has been measured; the first pass always completes.  A
        # traced run makes one pass, as its timings are not the end-to-end
        # metrics.
        batches = [(lo, heldout[lo:lo + cfg.batch_size])
                   for lo in range(0, len(heldout), cfg.batch_size)]
        tag_tokens = 0
        measured = 0.0  # wall-clock seconds of tag_corpus and predict calls
        tag_laps, predict_laps = [], []
        outputs = []  # per pass: (tag_corpus tags, predict tags)
        gc.collect()
        with phase("tag"):
            while True:
                k = len(outputs)
                corpus_tags, predict_tags = [], []
                outputs.append((corpus_tags, predict_tags))
                for lo, batch in batches:
                    if k and measured >= seconds:
                        break
                    meter.start()
                    try:
                        corpus_tags += [p.tags for p in tag_corpus(model, batch)]
                    except Exception as exc:
                        corpus_tags += [None] * len(batch)
                        fail([("corpus", k, i) for i in range(lo, lo + len(batch))],
                             f"tag_corpus raised {exc!r}")
                    tag_laps.append(meter.lap())
                    tag_tokens += sum(len(s) for s in batch)
                    for i, s in enumerate(batch, lo):
                        meter.start()
                        try:
                            tags = model.predict(s.surfaces, s.morphs)
                        except Exception as exc:
                            tags = None
                            fail([("predict", k, i)], f"predict raised {exc!r}")
                        predict_laps.append(meter.lap())
                        predict_tags.append(tags)
                    attempted += 2 * len(batch)
                    measured += total(tag_laps[-1:] + predict_laps[-len(batch):])[0]
                if traced or measured >= seconds or len(outputs) >= MAX_TAG_PASSES:
                    break

        # graph counts, taken twice; in a traced run under the wrappers, so
        # the runner can compare them with the untraced run's
        with phase("graph"):
            counts = graph_counts(cfg)
            if graph_counts(cfg) != counts:
                problems.append("graph counts differ between two identical traces")

    # output checks, outside every timed section
    trained = result.model.named_parameters()
    if any(not np.array_equal(t.data, trained[name].data)
           for name, t in model.named_parameters().items()):
        problems.append("the artifact round trip changed a tensor")
    mask = illegal_mask(list(model.tags)) if cfg.mask_illegal else None
    for ops, why in check_outputs(model, heldout, outputs, mask,
                                  np.random.default_rng(seed)):
        fail(ops, why)
    first = outputs[0][0]
    f1 = None
    if all(t is not None and tags_ok(model, s, t) for s, t in zip(heldout, first)):
        f1 = score([s.tags for s in heldout], first).f1

    def timings(k):  # k = 0: wall-clock seconds; k = 1: at the reference speed
        latencies_ms = [1e3 * lap[k] for lap in predict_laps]
        unigram_s = [lap[k] for lap in unigram_laps] or [0.0]
        return {
            "train_tok_s": (train_tokens / total(train_laps)[k], "tok/s"),
            "tag_tok_s": (tag_tokens / total(tag_laps)[k], "tok/s"),
            "tag_ms_p50": (float(np.percentile(latencies_ms, 50)), "ms"),
            "tag_ms_p95": (float(np.percentile(latencies_ms, 95)), "ms"),
            "setup_s": (statistics.median(unigram_s)
                        + statistics.median(lap[k] for lap in load_laps), "s"),
        }

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "env": env,
        "attempted": attempted,
        "failed": len(failed_ops),
        "problems": problems[:20],
        "passes": len(outputs),
        "tag_samples": len(predict_laps),
        "heldout_tags": first,
        "metrics": {
            **timings(1),
            "heldout_f1": (f1, "%"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        },
        "raw_timings": timings(0),
        "calibration_loop_ms": [1e3 * t for t in meter.loops],
        "graph_counts": counts,
    }
    if tracer:
        out["layers"] = layer_metrics(tracer)
        out["spans"] = tracer.spans
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny slices for the self-test")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.traced, args.smoke)
    result["seqtag"] = os.path.dirname(seqtag.__file__)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
