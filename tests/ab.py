"""Time this tree's seqtag against another tree's in one process.

    python tests/ab.py PARENT_SRC [--repeats N] [--smoke]

PARENT_SRC is the src directory of another checkout of the project, for
example one unpacked from `git archive`.  Its seqtag package is loaded a
second time under the name parent_seqtag, next to this tree's seqtag
(parity.load_package), and each tree builds the same untrained model, from
the same seed, for each of the two benchmark configs (CONFIGS, the configs
of perfbench/worker.py), on that config's benchmark train and held-out
slices of generate_corpus at seed 0.  The cases of each config are:

- tag_corpus@64: one tag_corpus call over the held-out slice, which tags
  models.TAG_CHUNK sentences per predict call, as evaluate and CLI tag do;
- tag_corpus@B: tag_corpus on each training-sized mini-batch of the
  held-out slice in turn, as the benchmark's tag_tok_s times it;
- predict: predict on each held-out sentence alone, the benchmark's
  tag_ms latencies;
- loss+backward: loss(*batch) and backward on each training mini-batch of
  the train slice.

Every case runs once per tree untimed first.  Then each repeat times every
case once in each tree, back to back, with the tree that goes first
alternating between repeats, after a gc.collect().  A case's line gives
the median over repeats of the time ratio parent / this tree, so above 1.0
this tree is faster, with its quartiles, and each tree's median seconds.
Two copies of one tree gave medians of 0.96 to 1.05 over 20 repeats on a
2-vCPU VM, so read a ratio within about 5% of 1.0 as no difference.

This is a report, not a gate: the exit status is 0 whatever the ratios,
and 2 if PARENT_SRC holds no seqtag package.  --smoke shrinks the slices
to a few sentences, for the self-test (tests/test_ab.py).  This file is a
tool, not a test module: pytest does not collect it.
"""

import argparse
import gc
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from parity import HERE_SRC, load_package

# The configs of perfbench/worker.py's CONFIGS, as TrainConfig keywords
# (tests/test_ab.py checks that they agree), and its (train, held-out)
# slice sizes.
CONFIGS = {
    "bilstm-char-crf": dict(
        model_kind="bilstm-crf",
        composer=dict(use_word=True, use_char=True, word_dim=48,
                      char_dim=16, char_hidden=12),
        lr=0.1, dropout_p=0.0, epochs=1, batch_size=4, hidden_dim=32, seed=0),
    "transformer-crf": dict(
        model_kind="transformer-crf", optimizer="adam-decoupled-decay",
        transformer=dict(num_layers=2, num_heads=2, hidden_units=32, ff_units=64,
                         max_len=64, dropout_p=0.0),
        lr=1e-3, dropout_p=0.0, epochs=1, batch_size=8,
        subword_vocab_size=200, seed=0),
}
SIZES = {"bilstm-char-crf": (600, 300), "transformer-crf": (1600, 200)}
SMOKE_SIZES = (24, 12)
CASES = ("tag_corpus@64", "tag_corpus@B", "predict", "loss+backward")


def train_config(pkg, name: str):
    """CONFIGS[name] as a TrainConfig of the package pkg."""
    kw = dict(CONFIGS[name])
    if "composer" in kw:
        kw["composer"] = pkg.encoders.ComposerConfig(**kw["composer"])
    if "transformer" in kw:
        kw["transformer"] = pkg.encoders.ToyTransformerConfig(**kw["transformer"])
    return pkg.models.TrainConfig(**kw)


def cases(pkg, name: str, smoke: bool) -> dict:
    """Each case of CASES as a no-argument function over a model the
    package pkg builds for config name, as perfbench/worker.py slices the
    benchmark data at seed 0: generate_corpus(train + held-out + 1),
    split, and the first validation sentence left out."""
    cfg = train_config(pkg, name)
    n_train, n_heldout = SMOKE_SIZES if smoke else SIZES[name]
    corpus = pkg.synth.generate_corpus(n_train + n_heldout + 1, seed=0)
    split = pkg.data.split_corpus(corpus, valid_fraction=(n_heldout + 1) / len(corpus),
                                  seed=0)
    train, heldout = split.train, split.valid[1:]
    tokenizer = None
    if cfg.model_kind.startswith("transformer"):
        tokenizer = pkg.subword.train_unigram([" ".join(s.surfaces) for s in train],
                                              cfg.subword_vocab_size, seed=cfg.seed)
    model = pkg.models.build_model(cfg, pkg.data.build_vocab(train, cfg.min_count),
                                   np.random.default_rng(cfg.seed), tokenizer)
    B = cfg.batch_size

    def batches(sentences):
        return [sentences[lo:lo + B] for lo in range(0, len(sentences), B)]

    def tag_chunked():
        pkg.models.tag_corpus(model, heldout)

    def tag_batches():
        for batch in batches(heldout):
            pkg.models.tag_corpus(model, batch)

    def predict():
        for s in heldout:
            model.predict(s.surfaces, s.morphs)

    def loss_backward():
        rng = np.random.default_rng(cfg.seed)
        for batch in batches(train):
            pkg.autodiff.backward(model.loss(*batch, training=True, rng=rng))

    return dict(zip(CASES, (tag_chunked, tag_batches, predict, loss_backward)))


def timed(fn) -> float:
    gc.collect()
    start = perf_counter()
    fn()
    return perf_counter() - start


def summary(ratios: list[float]) -> tuple[float, float, float]:
    """The median and the lower and upper quartiles of ratios."""
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return float(median), float(q1), float(q3)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--smoke", action="store_true", help="tiny slices for the self-test")
    args = parser.parse_args(argv)
    if not (args.parent_src / "seqtag" / "__init__.py").is_file():
        print("usage: python tests/ab.py PARENT_SRC  (a src directory holding seqtag/)",
              file=sys.stderr)
        return 2
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = (load_package(HERE_SRC, "seqtag"), load_package(args.parent_src, "parent_seqtag"))
    print(f"{'case':<32} {'parent/this':>11} {'quartiles':>16} "
          f"{'this s':>9} {'parent s':>9}")
    for name in CONFIGS:
        here, parent = (cases(pkg, name, args.smoke) for pkg in trees)
        for fn in (*here.values(), *parent.values()):
            fn()  # warm-up
        times = {case: ([], []) for case in CASES}  # (this tree, parent)
        for r in range(args.repeats):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for case in CASES:
                for k in order:
                    times[case][k].append(timed((here, parent)[k][case]))
        for case, (mine, theirs) in times.items():
            median, q1, q3 = summary([p / t for t, p in zip(mine, theirs)])
            print(f"{name + ' ' + case:<32} {median:>11.3f} {f'[{q1:.3f}, {q3:.3f}]':>16} "
                  f"{statistics.median(mine):>9.4f} {statistics.median(theirs):>9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
