import dataclasses
import io
import os
import pathlib
import subprocess
import sys
import zipfile

import numpy as np
import pytest

import seqtag
from seqtag.cli import (_merged_config, build_parser, main, make_train_config,
                        parse_config_file)
from seqtag.data import build_vocab, load_conll, parse_conll, validate_bio2
from seqtag.encoders import ComposerConfig, ToyTransformerConfig
from seqtag.errors import ConfigError
from seqtag.models import TrainConfig, build_model, load_model, save_model
from seqtag.subword import load_vocab, segment, train_unigram


FAST = ["--word-dim", "12", "--use-char", "false", "--hidden-dim", "6",
        "--dropout-p", "0", "--epochs", "2", "--lr", "0.05",
        "--batch-size", "4"]


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.conll"
    assert main(["synth", "--size", "40", "--seed", "3",
                 "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("model") / "model.zip"
    metrics = out.parent / "metrics.tsv"
    code = main(["train", "--train", corpus_file, "--valid-fraction", "0.25",
                 "--out", str(out), "--metrics", str(metrics)] + FAST)
    assert code == 0
    return str(out)


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_a_parseable_corpus_of_the_requested_size(corpus_file):
    sentences = load_conll(corpus_file)
    assert len(sentences) == 40


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a.conll", tmp_path / "b.conll"
    assert main(["synth", "--size", "12", "--seed", "5", "--out", str(a)]) == 0
    assert main(["synth", "--size", "12", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# train


def test_train_writes_artifact_and_metrics(tmp_path, corpus_file):
    out = tmp_path / "m.zip"
    metrics = tmp_path / "metrics.tsv"
    code = main(["train", "--train", corpus_file, "--valid-fraction", "0.25",
                 "--out", str(out), "--metrics", str(metrics)] + FAST)
    assert code == 0
    assert zipfile.is_zipfile(out)
    lines = metrics.read_text().splitlines()
    assert lines[0] == "epoch\ttrain_loss\tvalid_f1\tvalid_p\tvalid_r\tlr"
    assert len(lines) == 3
    assert all(len(ln.split("\t")) == 6 for ln in lines[1:])


def test_train_metrics_are_bitwise_reproducible(tmp_path, corpus_file):
    logs = []
    for name in ("m1", "m2"):
        out = tmp_path / f"{name}.zip"
        metrics = tmp_path / f"{name}.tsv"
        assert main(["train", "--train", corpus_file,
                     "--valid-fraction", "0.25", "--seed", "11",
                     "--out", str(out), "--metrics", str(metrics)] + FAST) == 0
        logs.append(metrics.read_bytes())
    assert logs[0] == logs[1]


def test_flags_override_the_config_file(tmp_path, corpus_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# training setup\nlr=0.05\nepochs=1\nuse_char=false\n"
                   "word_dim=12\nhidden_dim=6\ndropout_p=0\n")
    out = tmp_path / "m.zip"
    metrics = tmp_path / "metrics.tsv"
    code = main(["train", "--train", corpus_file, "--valid-fraction", "0.25",
                 "--config", str(cfg), "--lr", "0.01",
                 "--out", str(out), "--metrics", str(metrics)])
    assert code == 0
    rows = metrics.read_text().splitlines()[1:]
    assert len(rows) == 1  # epochs from the file
    assert rows[0].split("\t")[5] == "0.01"  # lr from the flag


def test_config_file_round_trip_through_parser(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model_kind=bilstm-linear\nlr=0.25\nmask_illegal=true\n"
                   "num_layers=3\ntransformer_dropout=0.2\nchar_hidden=7\n")
    values = parse_config_file(cfg)
    tc = make_train_config(values)
    assert tc.model_kind == "bilstm-linear"
    assert tc.lr == 0.25
    assert tc.mask_illegal is True
    assert tc.transformer.num_layers == 3
    assert tc.transformer.dropout_p == 0.2
    assert tc.composer.char_hidden == 7


# every config key, a value other than its default, and the field it sets
# ("" for TrainConfig itself)
EVERY_KEY = {
    "model_kind": ("transformer-linear", "", "model_kind"),
    "optimizer": ("adam-decoupled-decay", "", "optimizer"),
    "lr": (0.125, "", "lr"),
    "momentum": (0.5, "", "momentum"),
    "clip_norm": (2.5, "", "clip_norm"),
    "dropout_p": (0.25, "", "dropout_p"),
    "epochs": (3, "", "epochs"),
    "lambda_l2": (0.001, "", "lambda_l2"),
    "seed": (9, "", "seed"),
    "batch_size": (5, "", "batch_size"),
    "hidden_dim": (7, "", "hidden_dim"),
    "subword_vocab_size": (90, "", "subword_vocab_size"),
    "min_count": (2, "", "min_count"),
    "mask_illegal": (True, "", "mask_illegal"),
    "use_word": (False, "composer", "use_word"),
    "use_char": (False, "composer", "use_char"),
    "use_morph": (True, "composer", "use_morph"),
    "use_subword": (True, "composer", "use_subword"),
    "word_dim": (11, "composer", "word_dim"),
    "subword_dim": (12, "composer", "subword_dim"),
    "char_dim": (13, "composer", "char_dim"),
    "morph_dim": (14, "composer", "morph_dim"),
    "char_hidden": (15, "composer", "char_hidden"),
    "morph_hidden": (16, "composer", "morph_hidden"),
    "subword_hidden": (17, "composer", "subword_hidden"),
    "num_layers": (3, "transformer", "num_layers"),
    "num_heads": (4, "transformer", "num_heads"),
    "hidden_units": (20, "transformer", "hidden_units"),
    "ff_units": (21, "transformer", "ff_units"),
    "max_len": (22, "transformer", "max_len"),
    "transformer_dropout": (0.3, "transformer", "dropout_p"),
}


def test_every_config_key_reaches_its_field_from_file_and_flag(tmp_path):
    scalar_fields = {("", f.name) for f in dataclasses.fields(TrainConfig)
                     if f.name not in ("composer", "transformer")}
    scalar_fields |= {(section, f.name) for section, cls in (
        ("composer", ComposerConfig), ("transformer", ToyTransformerConfig))
        for f in dataclasses.fields(cls)}
    assert {(s, name) for _, s, name in EVERY_KEY.values()} == scalar_fields
    assert len(EVERY_KEY) == len(scalar_fields) == 31

    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key}={str(value).lower()}\n"
                           for key, (value, _, _) in EVERY_KEY.items()))
    flags = [text for key, (value, _, _) in EVERY_KEY.items()
             for text in ("--" + key.replace("_", "-"), str(value).lower())]
    args = build_parser().parse_args(["train", "--train", "c.conll", "--out", "m.zip"]
                                     + flags)
    default = TrainConfig()
    for tc in (make_train_config(parse_config_file(cfg)), _merged_config(args)):
        for key, (value, section, name) in EVERY_KEY.items():
            got = getattr(getattr(tc, section) if section else tc, name)
            was = getattr(getattr(default, section) if section else default, name)
            assert got == value and type(got) is type(value) and got != was, key


def test_unknown_config_key_is_a_usage_error(tmp_path, corpus_file):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate=0.1\n")
    code = main(["train", "--train", corpus_file, "--out",
                 str(tmp_path / "m.zip"), "--config", str(cfg)])
    assert code == 1


def test_malformed_config_line_is_a_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lr 0.1\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg)


def test_bad_flag_value_exits_one(tmp_path, corpus_file):
    code = main(["train", "--train", corpus_file,
                 "--out", str(tmp_path / "m.zip"), "--lr", "fast"])
    assert code == 1


def test_invalid_config_value_exits_one(tmp_path, corpus_file, capsys):
    for flag, value in (("--lr", "-1"), ("--lr", "inf"), ("--clip-norm", "nan"),
                        ("--lambda-l2", "nan"), ("--lambda-l2", "inf"),
                        ("--seed", "-1"), ("--min-count", "-3"), ("--min-count", "0")):
        code = main(["train", "--train", corpus_file,
                     "--out", str(tmp_path / "m.zip"), flag, value])
        assert code == 1, (flag, value)
        assert "error: " in capsys.readouterr().err, (flag, value)
    assert main(["bench", "--train", corpus_file, "--seeds=-1"]) == 1
    assert "error: seed must be a non-negative integer" in capsys.readouterr().err


def test_negative_split_and_synth_seeds_exit_one(tmp_path, corpus_file, capsys):
    code = main(["train", "--train", corpus_file, "--out", str(tmp_path / "m.zip"),
                 "--split-seed", "-1"])
    assert code == 1
    assert "error: split seed must be non-negative" in capsys.readouterr().err
    assert main(["synth", "--size", "3", "--seed", "-1",
                 "--out", str(tmp_path / "c.conll")]) == 1
    assert "error: corpus seed must be non-negative" in capsys.readouterr().err


def test_zero_attention_heads_exit_one(tmp_path, corpus_file):
    code = main(["train", "--train", corpus_file, "--out", str(tmp_path / "m.zip"),
                 "--model-kind", "transformer-crf", "--num-heads", "0"])
    assert code == 1


def test_zero_hidden_units_exit_one(tmp_path, corpus_file):
    code = main(["train", "--train", corpus_file, "--out", str(tmp_path / "m.zip"),
                 "--model-kind", "transformer-crf", "--hidden-units", "0"])
    assert code == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_three(tmp_path, corpus_file):
    code = main(["train", "--train", corpus_file, "--valid-fraction", "0.25",
                 "--out", str(tmp_path / "m.zip"),
                 "--word-dim", "8", "--use-char", "false", "--hidden-dim", "4",
                 "--dropout-p", "0", "--epochs", "2", "--batch-size", "1",
                 "--lr", "1e200", "--clip-norm", "1e30"])
    assert code == 3


def test_orphan_gold_tag_under_the_mask_exits_two(tmp_path, corpus_file, capsys):
    with open(corpus_file, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    cols = lines[0].split("\t")
    cols[-1] = "I-PERSON"
    lines[0] = "\t".join(cols)
    bad = tmp_path / "orphan.conll"
    bad.write_text("\n".join(lines), encoding="utf-8")
    code = main(["train", "--train", str(bad), "--valid-fraction", "0.25",
                 "--out", str(tmp_path / "m.zip"), "--mask-illegal", "true"] + FAST)
    assert code == 2
    assert "orphan I-PERSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tag


def test_tag_round_trips_raw_text(tmp_path, model_file):
    raw = tmp_path / "raw.txt"
    raw.write_text("Meliha Ankara geldi .\nbugün sergi açıldı .\n")
    out = tmp_path / "tagged.conll"
    assert main(["tag", "--model", model_file, "--input", str(raw),
                 "--out", str(out)]) == 0
    sentences = parse_conll(out.read_text())
    assert [s.surfaces for s in sentences] == [
        ["Meliha", "Ankara", "geldi", "."],
        ["bugün", "sergi", "açıldı", "."]]


@pytest.fixture(scope="module")
def transformer_file(tmp_path_factory, corpus_file):
    """An untrained transformer-crf artifact with max_len 4 and weights
    redrawn at a scale where its tags vary from word to word."""
    corpus = load_conll(corpus_file)
    tokenizer = train_unigram([" ".join(s.surfaces) for s in corpus], 60)
    cfg = TrainConfig(model_kind="transformer-crf", transformer=ToyTransformerConfig(
        num_layers=1, num_heads=2, hidden_units=8, ff_units=8, max_len=4, dropout_p=0.0))
    model = build_model(cfg, build_vocab(corpus), np.random.default_rng(0), tokenizer)
    rng = np.random.default_rng(2)
    for t in model.parameters():
        t.data[...] = rng.normal(scale=0.5, size=t.shape)
    out = tmp_path_factory.mktemp("transformer") / "model.zip"
    save_model(model, out)
    return str(out)


@pytest.mark.parametrize("artifact", ["model_file", "transformer_file"])
def test_tag_writes_the_bytes_of_one_predict_per_line(tmp_path, monkeypatch, request,
                                                      artifact):
    """CLI tag packs its lines into chunks (TAG_CHUNK, patched to 3 here so
    that the input spans three), and writes the bytes that tagging each
    line with predict on its own gives: blank lines skipped, one-word lines
    and, for the transformer, lines of more than max_len pieces included."""
    path = request.getfixturevalue(artifact)
    model = load_model(path)
    lines = ["Meliha Ankara geldi .", "", "geldi", "  bugün   sergi açıldı .  ", "İzmir",
             "Zeynep Kaya dün TCDD Sanat Galerisi'nde sergi açtı .", "   ", "bir iki üç",
             "Ankara"]
    if model.transformer_cfg:
        long_line = lines[5].split()
        pieces = sum(len(segment(model.tokenizer, w)) for w in long_line)
        assert pieces > model.transformer_cfg.max_len
    raw = tmp_path / "raw.txt"
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "tagged.conll"
    monkeypatch.setattr(seqtag.models, "TAG_CHUNK", 3)
    assert main(["tag", "--model", path, "--input", str(raw), "--out", str(out)]) == 0
    want = "".join("".join(f"{w}\t{t}\n" for w, t in zip(words, model.predict(words))) + "\n"
                   for words in map(str.split, lines) if words)
    assert out.read_bytes() == want.encode("utf-8")
    assert len({line.split("\t")[-1] for line in want.splitlines() if line}) > 1


def test_tag_reads_nfd_input_as_nfc(tmp_path, model_file):
    outputs = []
    for city in ("\u0130stanbul", "I\u0307stanbul"):  # NFC, then NFD
        raw = tmp_path / "raw.txt"
        raw.write_text(f"{city} sergi açıldı .\n", encoding="utf-8")
        out = tmp_path / "tagged.conll"
        assert main(["tag", "--model", model_file, "--input", str(raw),
                     "--out", str(out)]) == 0
        outputs.append(out.read_text(encoding="utf-8"))
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("\u0130stanbul\t")


def test_tag_empty_input_gives_empty_output(tmp_path, model_file):
    raw = tmp_path / "empty.txt"
    raw.write_text("")
    out = tmp_path / "tagged.conll"
    assert main(["tag", "--model", model_file, "--input", str(raw),
                 "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_tag_mask_illegal_emits_valid_bio2(tmp_path, model_file):
    raw = tmp_path / "raw.txt"
    raw.write_text("Zeynep Kaya dün TCDD Sanat Galerisi sergi açıldı .\n"
                   "İzmir yeni müze kitap .\n")
    out = tmp_path / "tagged.conll"
    assert main(["tag", "--model", model_file, "--input", str(raw),
                 "--out", str(out), "--mask-illegal"]) == 0
    for sentence in parse_conll(out.read_text()):
        validate_bio2(sentence, mode="strict")


def test_missing_model_file_exits_two(tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("bir iki\n")
    assert main(["tag", "--model", str(tmp_path / "none.zip"),
                 "--input", str(raw), "--out", "-"]) == 2


def test_corrupt_artifact_exits_two(tmp_path):
    fake = tmp_path / "fake.zip"
    fake.write_text("not an artifact")
    raw = tmp_path / "raw.txt"
    raw.write_text("bir iki\n")
    assert main(["tag", "--model", str(fake), "--input", str(raw),
                 "--out", "-"]) == 2


def test_artifact_with_a_nan_tensor_exits_two(tmp_path, model_file):
    bad = tmp_path / "nan.zip"
    with zipfile.ZipFile(model_file) as src, zipfile.ZipFile(bad, "w") as dst:
        for name in src.namelist():
            raw = src.read(name)
            if name == "tensors.npz":
                with np.load(io.BytesIO(raw)) as arrays:
                    data = {k: arrays[k] for k in arrays.files}
                data["w_out"][0, 0] = np.nan
                buf = io.BytesIO()
                np.savez(buf, **data)
                raw = buf.getvalue()
            dst.writestr(name, raw)
    raw = tmp_path / "raw.txt"
    raw.write_text("bir iki\n")
    assert main(["tag", "--model", str(bad), "--input", str(raw),
                 "--out", "-"]) == 2


# ---------------------------------------------------------------------------
# evaluate / score


def test_evaluate_keyvalues_output(capsys, model_file, corpus_file):
    assert main(["evaluate", "--model", model_file, "--data", corpus_file,
                 "--format", "keyvalues"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split("=", 1) for line in out.split()
                  if "=" in line)
    for key in ("precision", "recall", "f1", "token_accuracy"):
        assert 0.0 <= float(values[key]) <= 100.0


def test_evaluate_checks_gold_bio2_under_the_mask(tmp_path, model_file, capsys):
    bad = tmp_path / "orphan.conll"
    bad.write_text("Meliha\tB-PERSON\ngeldi\tO\n\nAnkara\tI-LOCATION\n\n",
                   encoding="utf-8")
    assert main(["evaluate", "--model", model_file, "--data", str(bad)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", model_file, "--data", str(bad),
                 "--mask-illegal"]) == 2
    assert "sentence 1: orphan I-LOCATION at token index 0" in capsys.readouterr().err
    # a model trained under the mask decodes under it without the flag
    model = load_model(model_file)
    model.mask_illegal = True
    masked = tmp_path / "masked.zip"
    save_model(model, masked)
    assert main(["evaluate", "--model", str(masked), "--data", str(bad)]) == 2


def test_score_reports_the_half_credit_case(tmp_path, capsys):
    gold = ("Meliha\tB-PERSON\nUzuner\tI-PERSON\ngeldi\tO\n"
            "Kalesi\tB-ORGANIZATION\nMuzesi\tI-ORGANIZATION\n\n")
    pred = ("Meliha\tB-PERSON\nUzuner\tI-PERSON\ngeldi\tO\n"
            "Kalesi\tB-ORGANIZATION\nMuzesi\tO\n\n")
    g, p = tmp_path / "gold.conll", tmp_path / "pred.conll"
    g.write_text(gold)
    p.write_text(pred)
    assert main(["score", "--gold", str(g), "--pred", str(p),
                 "--format", "keyvalues"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split("=", 1) for line in out.split() if "=" in line)
    assert float(values["precision"]) == 50.0
    assert float(values["recall"]) == 50.0
    assert float(values["f1"]) == 50.0


def test_score_on_mismatched_files_exits_one(tmp_path):
    g, p = tmp_path / "gold.conll", tmp_path / "pred.conll"
    g.write_text("a\tO\n\nb\tO\n\n")
    p.write_text("a\tO\n\n")
    assert main(["score", "--gold", str(g), "--pred", str(p)]) == 1


def test_unparseable_data_exits_two(tmp_path, model_file):
    bad = tmp_path / "bad.conll"
    bad.write_text("one two three four five\n")
    assert main(["evaluate", "--model", model_file,
                 "--data", str(bad)]) == 2


# ---------------------------------------------------------------------------
# tokenizer-train


def test_tokenizer_train_writes_a_loadable_vocab(tmp_path):
    text = tmp_path / "text.txt"
    text.write_text("paris pazar pazartesi\nparis parti\n")
    out = tmp_path / "pieces.tsv"
    assert main(["tokenizer-train", "--input", str(text),
                 "--vocab-size", "15", "--out", str(out)]) == 0
    vocab = load_vocab(out)
    assert len(vocab) == 15


@pytest.mark.parametrize("max_piece_len", ["0", "-2"])
def test_tokenizer_train_rejects_a_max_piece_len_below_one(tmp_path, capsys, max_piece_len):
    text = tmp_path / "text.txt"
    text.write_text("paris pazar pazartesi\nparis parti\n")
    out = tmp_path / "pieces.tsv"
    assert main(["tokenizer-train", "--input", str(text), "--vocab-size", "10",
                 "--max-piece-len", max_piece_len, "--out", str(out)]) == 1
    assert "error: max_piece_len must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_a_tokenizer_with_a_nan_log_probability(tmp_path, corpus_file,
                                                               capsys):
    tok = tmp_path / "tok.tsv"
    tok.write_text("a\t0.0\nb\tnan\n", encoding="utf-8")
    code = main(["train", "--train", corpus_file, "--valid-fraction", "0.25",
                 "--model-kind", "transformer-crf", "--tokenizer", str(tok),
                 "--out", str(tmp_path / "m.zip")] + FAST)
    assert code == 2
    assert "piece 'b' has log-probability nan" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench


def test_bench_emits_comparison_rows(capsys, corpus_file):
    code = main(["bench", "--train", corpus_file, "--valid-fraction", "0.25",
                 "--seeds", "0,1", "--epochs", "1", "--word-dim", "12",
                 "--char-dim", "8", "--char-hidden", "6", "--hidden-dim", "6",
                 "--dropout-p", "0", "--lr", "0.05"])
    assert code == 0
    out = capsys.readouterr().out
    assert "bilstm-crf word+char" in out
    assert "bilstm-linear word" in out
    assert "mean" in out


def test_bench_with_explicit_config_files(capsys, tmp_path, corpus_file):
    cfg = tmp_path / "wordonly.cfg"
    cfg.write_text("model_kind=bilstm-linear\nuse_char=false\nword_dim=12\n"
                   "hidden_dim=6\ndropout_p=0\nepochs=1\nlr=0.05\n")
    code = main(["bench", "--train", corpus_file, "--valid-fraction", "0.25",
                 "--seeds", "0", "--config-file", str(cfg)])
    assert code == 0
    assert "wordonly" in capsys.readouterr().out


def test_bench_checks_held_out_gold_bio2_under_the_mask(tmp_path, corpus_file, capsys):
    test = tmp_path / "orphan.conll"
    test.write_text("Meliha\tB-PERSON\ngeldi\tO\n\nAnkara\tI-LOCATION\n\n",
                    encoding="utf-8")
    args = ["bench", "--train", corpus_file, "--valid-fraction", "0.25",
            "--test", str(test), "--seeds", "0"] + FAST
    assert main(args + ["--mask-illegal", "true"]) == 2
    assert "test sentence 1: orphan I-LOCATION at token index 0" in capsys.readouterr().err


def test_bench_without_seeds_exits_one(corpus_file):
    assert main(["bench", "--train", corpus_file, "--seeds", ","]) == 1


def test_bench_with_a_seed_that_is_no_integer_exits_one(corpus_file, capsys):
    assert main(["bench", "--train", corpus_file, "--seeds", "0,a"]) == 1
    assert "error: --seeds must be comma-separated integers, got '0,a'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_subcommand_exits_one():
    assert main(["polish"]) == 1


def test_missing_required_flag_exits_one():
    assert main(["train"]) == 1


def test_python_dash_m_seqtag_runs_the_cli_and_returns_its_exit_code():
    src = pathlib.Path(seqtag.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "seqtag", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: seqtag")
    assert run("polish").returncode == 1
