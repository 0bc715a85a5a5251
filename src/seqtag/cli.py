"""Command-line interface.

Subcommands: train, evaluate, tag, tokenizer-train, score, bench, synth.
Configuration is a flat key=value file; every key can also be given as a
same-named flag, and flags win over the file.  Exit codes: 0 success,
1 usage or configuration problem, 2 data or artifact problem, 3 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
import unicodedata

from .data import (load_conll, serialize_conll, split_corpus,
                   CorpusSplit)
from .encoders import ComposerConfig, ToyTransformerConfig
from .errors import (AlignmentError, ArtifactError, ConfigError,
                     DivergenceError, ParseError, UsageError, ValidationError)
from .evaluation import report_keyvalues, report_table, score
from .models import TrainConfig, load_model, save_model
from .subword import load_vocab, save_vocab, train_unigram
from .synth import generate_corpus
from .training import bench, bench_table, evaluate_model, train

log = logging.getLogger(__name__)

_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}

# every trainable knob, flat; these are the config file keys and the
# train/bench flag names
_CONFIG_TYPES = {
    "model_kind": str, "optimizer": str, "lr": float, "momentum": float,
    "clip_norm": float, "dropout_p": float, "epochs": int, "lambda_l2": float,
    "seed": int, "batch_size": int, "hidden_dim": int,
    "subword_vocab_size": int, "min_count": int, "mask_illegal": bool,
    "use_word": bool, "use_char": bool, "use_morph": bool, "use_subword": bool,
    "word_dim": int, "char_dim": int, "morph_dim": int, "subword_dim": int,
    "char_hidden": int, "morph_hidden": int, "subword_hidden": int,
    "num_layers": int, "num_heads": int, "hidden_units": int, "ff_units": int,
    "max_len": int, "transformer_dropout": float,
}
_COMPOSER_KEYS = {"use_word", "use_char", "use_morph", "use_subword",
                  "word_dim", "char_dim", "morph_dim", "subword_dim",
                  "char_hidden", "morph_hidden", "subword_hidden"}
_TRANSFORMER_KEYS = {"num_layers": "num_layers", "num_heads": "num_heads",
                     "hidden_units": "hidden_units", "ff_units": "ff_units",
                     "max_len": "max_len", "transformer_dropout": "dropout_p"}


def _convert(key: str, text: str):
    typ = _CONFIG_TYPES[key]
    if typ is bool:
        try:
            return _BOOL_WORDS[text.strip().lower()]
        except KeyError:
            raise ConfigError(f"{key}: expected a boolean, got {text!r}") from None
    try:
        return typ(text)
    except ValueError:
        raise ConfigError(f"{key}: expected {typ.__name__}, got {text!r}") from None


def parse_config_file(path) -> dict:
    """Flat key=value lines; blank lines and #-comments are skipped."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_TYPES:
                raise ConfigError(f"line {lineno}: unknown config key {key!r}")
            values[key] = _convert(key, text.strip())
    return values


def make_train_config(values: dict) -> TrainConfig:
    composer = {k: v for k, v in values.items() if k in _COMPOSER_KEYS}
    transformer = {_TRANSFORMER_KEYS[k]: v for k, v in values.items()
                   if k in _TRANSFORMER_KEYS}
    top = {k: v for k, v in values.items()
           if k not in _COMPOSER_KEYS and k not in _TRANSFORMER_KEYS}
    return TrainConfig(composer=ComposerConfig(**composer),
                       transformer=ToyTransformerConfig(**transformer), **top)


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE",
                     help="flat key=value configuration file")
    for key in _CONFIG_TYPES:
        flag = "--" + key.replace("_", "-")
        sub.add_argument(flag, dest="cfg_" + key, metavar="V", default=None)


def _merged_config(args) -> TrainConfig:
    values = parse_config_file(args.config) if args.config else {}
    for key in _CONFIG_TYPES:
        text = getattr(args, "cfg_" + key)
        if text is not None:
            values[key] = _convert(key, text)
    return make_train_config(values)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_text(path) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _build_split(args) -> CorpusSplit:
    train_sents = load_conll(args.train)
    test = load_conll(args.test) if args.test else ()
    if args.valid:
        return CorpusSplit(train=train_sents, valid=load_conll(args.valid),
                           test=list(test), seed=args.split_seed)
    split = split_corpus(train_sents, valid_fraction=args.valid_fraction,
                         seed=args.split_seed, test=test)
    return split


def _add_corpus_flags(sub) -> None:
    sub.add_argument("--train", required=True, metavar="FILE")
    sub.add_argument("--valid", metavar="FILE",
                     help="held-out file; omit to split it off --train")
    sub.add_argument("--test", metavar="FILE")
    sub.add_argument("--valid-fraction", type=float, default=0.2)
    sub.add_argument("--split-seed", type=int, default=0)
    sub.add_argument("--tokenizer", metavar="FILE",
                     help="subword vocabulary; trained on the fly if needed")
    sub.add_argument("--target-f1", type=float, default=None,
                     help="stop once validation F1 reaches this value")


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_train(args) -> int:
    cfg = _merged_config(args)
    split = _build_split(args)
    tokenizer = load_vocab(args.tokenizer) if args.tokenizer else None
    result = train(cfg, split, tokenizer,
                   on_epoch=lambda m: log.info("%s", m.log_line()),
                   target_f1=args.target_f1)
    save_model(result.model, args.out)
    if args.metrics:
        _write_text(args.metrics, result.metrics_log())
    else:
        sys.stdout.write(result.metrics_log())
    print(f"best epoch {result.best_epoch} with validation f1 "
          f"{result.best_f1:.2f}; model written to {args.out}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    sentences = load_conll(args.data)
    mask = True if args.mask_illegal else None
    report = evaluate_model(model, sentences, mask)
    render = report_keyvalues if args.format == "keyvalues" else report_table
    print(render(report))
    return 0


def _cmd_tag(args) -> int:
    model = load_model(args.model)
    mask = True if args.mask_illegal else None
    out_lines = []
    for line in unicodedata.normalize("NFC", _read_text(args.input)).split("\n"):
        words = line.split()
        if not words:
            continue
        tags = model.predict(words, mask_illegal=mask)
        out_lines.extend(f"{w}\t{t}" for w, t in zip(words, tags))
        out_lines.append("")
    _write_text(args.out, "\n".join(out_lines) + ("\n" if out_lines else ""))
    return 0


def _cmd_tokenizer_train(args) -> int:
    corpus = [ln for ln in _read_text(args.input).split("\n") if ln.strip()]
    vocab = train_unigram(corpus, args.vocab_size, seed=args.seed,
                          max_piece_len=args.max_piece_len)
    save_vocab(vocab, args.out)
    print(f"{len(vocab)} pieces written to {args.out}", file=sys.stderr)
    return 0


def _cmd_score(args) -> int:
    gold = load_conll(args.gold)
    pred = load_conll(args.pred)
    report = score([s.tags for s in gold], [s.tags for s in pred])
    render = report_keyvalues if args.format == "keyvalues" else report_table
    print(render(report))
    return 0


def _cmd_bench(args) -> int:
    base = _merged_config(args)
    split = _build_split(args)
    tokenizer = load_vocab(args.tokenizer) if args.tokenizer else None
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise UsageError("--seeds must name at least one seed")
    if args.config_files:
        configs = []
        for path in args.config_files:
            label = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
            configs.append((label, make_train_config(parse_config_file(path))))
    else:
        # built-in comparison: full model against a word-only unstructured one
        full = dataclasses.replace(
            base, model_kind="bilstm-crf",
            composer=dataclasses.replace(base.composer, use_word=True,
                                         use_char=True))
        plain = dataclasses.replace(
            base, model_kind="bilstm-linear",
            composer=dataclasses.replace(base.composer, use_word=True,
                                         use_char=False, use_morph=False,
                                         use_subword=False))
        configs = [("bilstm-crf word+char", full),
                   ("bilstm-linear word", plain)]
    results = bench(configs, split, seeds, tokenizer, target_f1=args.target_f1)
    sys.stdout.write(bench_table(results))
    for r in results:
        print(f"{r.label}: {r.elapsed_seconds:.1f}s wall clock over "
              f"{len(r.seeds)} seeds", file=sys.stderr)
    return 0


def _cmd_synth(args) -> int:
    corpus = generate_corpus(args.size, seed=args.seed)
    _write_text(args.out, serialize_conll(corpus))
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seqtag",
                     description="Neural sequence tagging toolkit")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log per-epoch metrics and progress to stderr")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="fit a model and write an artifact")
    _add_corpus_flags(p)
    _add_config_flags(p)
    p.add_argument("--out", required=True, metavar="FILE",
                   help="path for the model artifact")
    p.add_argument("--metrics", metavar="FILE",
                   help="write the per-epoch metrics log here (default stdout)")
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("evaluate", help="score a model on labeled data")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--mask-illegal", action="store_true",
                   help="forbid label bigrams that are invalid in BIO2")
    p.add_argument("--format", choices=("table", "keyvalues"), default="table")
    p.set_defaults(func=_cmd_evaluate)

    p = subs.add_parser("tag", help="tag raw text, one sentence per line")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--input", default="-", metavar="FILE")
    p.add_argument("--out", default="-", metavar="FILE")
    p.add_argument("--mask-illegal", action="store_true")
    p.set_defaults(func=_cmd_tag)

    p = subs.add_parser("tokenizer-train",
                        help="fit a subword vocabulary on raw text")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--vocab-size", required=True, type=int)
    p.add_argument("--max-piece-len", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="accepted and ignored")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_tokenizer_train)

    p = subs.add_parser("score", help="compare predicted tags against gold")
    p.add_argument("--gold", required=True, metavar="FILE")
    p.add_argument("--pred", required=True, metavar="FILE")
    p.add_argument("--format", choices=("table", "keyvalues"), default="table")
    p.set_defaults(func=_cmd_score)

    p = subs.add_parser("bench",
                        help="train configs across seeds and compare")
    _add_corpus_flags(p)
    _add_config_flags(p)
    p.add_argument("--config-file", dest="config_files", action="append",
                   metavar="FILE", help="benchmark this config (repeatable)")
    p.add_argument("--seeds", default="0,1,2,3,4",
                   help="comma-separated seed list")
    p.set_defaults(func=_cmd_bench)

    p = subs.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--size", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(message)s", stream=sys.stderr)
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError, AlignmentError, ArtifactError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
