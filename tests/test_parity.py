"""tests/parity.py, the bitwise comparison of two trees, run against this
tree itself and against copies of it with a planted change: one ulp in the
loss or in the Adam update, the loss scaled by 1 + 2^-40, a changed
manifest value or stored tensor in the saved artifact, the next artifact
version alone, which is no difference, one flipped tag in packed
prediction, a different tokenizer pruning fraction, or a crash, which
exits with neither 0 nor DIFFERS.  For the two changes of the loss the
report's magnitudes are checked too, absolute and relative."""

import io
import json
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np

import parity
import seqtag.models
from seqtag.data import build_vocab
from seqtag.encoders import ToyTransformerConfig
from seqtag.models import ARTIFACT_VERSION, TrainConfig, build_model, save_model
from seqtag.subword import UnigramVocab
from seqtag.synth import generate_corpus

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _parity(parent_src):
    return subprocess.run([sys.executable, str(TESTS / "parity.py"), str(parent_src)],
                          capture_output=True, text=True, timeout=300)


TOKENIZER_LINES = ("tokenizer generate_corpus(2000, seed=0) at 200 pieces: ",
                   "tokenizer generate_corpus(200, seed=0) at 200 pieces: ")


def test_the_tree_is_bitwise_equal_to_itself():
    run = _parity(SRC)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[-3:] == [TOKENIZER_LINES[0] + "equal", TOKENIZER_LINES[1] + "equal",
                          "16 of 16 cases bitwise equal"]


def test_in_layout_joins_the_four_bilstm_blocks_of_a_version_5_parent():
    """A version-5 parent's stored tensors, gradients and post-step
    parameters of a BiLSTM stored as W_x, W_h, b_x and b_h are compared as
    this tree's one block [W_x | b_x | b_h | W_h] under P.W; every other
    tensor and every other part of the case is passed on as it is, and the
    case of a parent of the current version is not changed at all."""
    rng = np.random.default_rng(3)
    parts = {"W_x": (2, 8, 3), "W_h": (2, 8, 2), "b_x": (2, 8), "b_h": (2, 8)}

    def named():
        out = {"encoder." + part: rng.standard_normal(shape) for part, shape in parts.items()}
        return dict(out, w_out=rng.standard_normal((4, 3)))

    manifest, members = {"kind": "bilstm-crf"}, {"tokenizer.tsv": b"a\t0.0\n"}
    case = ((manifest, members, named()), np.array(1.5), named(), [["O"]], [["O"]],
            {"sgd-momentum": named(), "adam": named()})
    mapped = parity.in_layout(seqtag, case, 5)
    assert mapped[0][:2] == (manifest, members)
    assert mapped[1] is case[1] and mapped[3:5] == case[3:5]
    for before, after in [(case[0][2], mapped[0][2]), (case[2], mapped[2])] + [
            (case[5][opt], mapped[5][opt]) for opt in ("sgd-momentum", "adam")]:
        assert sorted(after) == ["encoder.W", "w_out"]
        assert after["w_out"] is before["w_out"]
        block = after["encoder.W"]
        assert block.shape == (2, 8, 3 + 2 + 2)
        for part, cols in (("W_x", slice(0, 3)), ("b_x", 3), ("b_h", 4), ("W_h", slice(5, 7))):
            assert np.array_equal(block[:, :, cols], before["encoder." + part])
    assert parity.in_layout(seqtag, case, ARTIFACT_VERSION) is case


def test_read_artifact_drops_the_version_and_the_tensor_list_only():
    """read_artifact gives the manifest without format_version and tensors,
    the tokenizer's bytes, and every stored tensor by name, bitwise."""
    model = build_model(TrainConfig(model_kind="transformer-crf", transformer=ToyTransformerConfig(
        num_layers=1, num_heads=1, hidden_units=2, ff_units=2, max_len=4)),
        build_vocab(generate_corpus(3, seed=0)), np.random.default_rng(0),
        UnigramVocab({"a": 0.0}))
    buf = io.BytesIO()
    save_model(model, buf)
    manifest, members, stored = parity.read_artifact(buf.getvalue())
    with zipfile.ZipFile(buf) as zf:
        full = json.loads(zf.read("manifest.json"))
        assert members == {"tokenizer.tsv": zf.read("tokenizer.tsv")}
    assert manifest == {k: v for k, v in full.items() if k not in ("format_version", "tensors")}
    named = model.named_parameters()
    assert sorted(stored) == full["tensors"] == sorted(named)
    assert all(stored[name].tobytes() == t.data.tobytes() for name, t in named.items())


def test_a_changed_pruning_fraction_is_flagged_in_the_tokenizer_lines(tmp_path):
    shutil.copytree(SRC / "seqtag", tmp_path / "seqtag",
                    ignore=shutil.ignore_patterns("__pycache__"))
    subword = tmp_path / "seqtag" / "subword.py"
    exact = "_PRUNE_FRACTION = 0.2\n"
    assert exact in subword.read_text()
    subword.write_text(subword.read_text().replace(exact, "_PRUNE_FRACTION = 0.25\n"))
    run = _parity(tmp_path)
    assert run.returncode == parity.DIFFERS, run.stdout + run.stderr
    assert run.stdout.splitlines()[-3:-1] == [line + "DIFFERS in vocab_to_text"
                                              for line in TOKENIZER_LINES]


def test_a_one_ulp_change_in_the_loss_is_flagged(tmp_path):
    shutil.copytree(SRC / "seqtag", tmp_path / "seqtag",
                    ignore=shutil.ignore_patterns("__pycache__"))
    engine = tmp_path / "seqtag" / "autodiff.py"
    exact = '    return _result(sum(sums[1:], sums[0]), tensors, "inner", _bw)\n'
    planted = ('    return _result(np.nextafter(sum(sums[1:], sums[0]), np.inf), tensors, '
               '"inner", _bw)\n')
    assert exact in engine.read_text()
    engine.write_text(engine.read_text().replace(exact, planted))
    run = _parity(tmp_path)
    assert run.returncode == parity.DIFFERS, run.stdout + run.stderr
    assert "DIFFERS in loss" in run.stdout
    assert run.stdout.splitlines()[-1] == "0 of 16 cases bitwise equal"
    # each case reports how far: one ulp of a loss of at most a few hundred,
    # and nothing else moved
    sizes = [line.split("; ") for line in run.stdout.splitlines()
             if line.startswith("  largest |difference|: loss ")]
    assert len(sizes) == 16
    for loss, *rest in sizes:
        assert 0.0 < float(loss.rsplit(" ", 1)[1]) <= 1e-13
        assert rest == ["sgd-momentum steps 0.000e+00", "adam steps 0.000e+00",
                        "predict tags equal", "tag_corpus tags equal"]


def test_a_one_ulp_change_in_the_adam_update_is_flagged(tmp_path):
    shutil.copytree(SRC / "seqtag", tmp_path / "seqtag",
                    ignore=shutil.ignore_patterns("__pycache__"))
    optim = tmp_path / "seqtag" / "optim.py"
    exact = "        theta -= update\n"
    planted = "        theta -= np.nextafter(update, np.inf)\n"
    assert exact in optim.read_text()
    optim.write_text(optim.read_text().replace(exact, planted))
    run = _parity(tmp_path)
    assert run.returncode == parity.DIFFERS, run.stdout + run.stderr
    assert run.stdout.count("DIFFERS in adam steps\n") == 16
    assert run.stdout.splitlines()[-1] == "0 of 16 cases bitwise equal"


def _planted(tmp_path, module, exact, planted):
    """A copy of this tree's seqtag under tmp_path with the one line exact
    of module replaced by planted."""
    shutil.copytree(SRC / "seqtag", tmp_path / "seqtag",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "seqtag" / module
    assert exact in path.read_text()
    path.write_text(path.read_text().replace(exact, planted))
    return tmp_path


def test_a_change_in_the_saved_artifact_is_flagged(tmp_path):
    """A changed manifest value, and a stored tensor one ulp off, are each
    flagged in every case; the tensor by its name."""
    exact = '        "dropout_p": model.dropout_p,\n'
    run = _parity(_planted(tmp_path / "manifest", "models.py", exact,
                           '        "dropout_p": model.dropout_p + 0.5,\n'))
    assert run.returncode == parity.DIFFERS, run.stdout + run.stderr
    assert run.stdout.count("DIFFERS in artifact manifest\n") == 16
    assert run.stdout.splitlines()[-1] == "0 of 16 cases bitwise equal"
    exact = "    np.savez(buf, **{name: t.data for name, t in named.items()})\n"
    planted = ("    np.savez(buf, **{name: np.nextafter(t.data, np.inf) if name == 'b_out' "
               "else t.data for name, t in named.items()})\n")
    run = _parity(_planted(tmp_path / "tensor", "models.py", exact, planted))
    assert run.returncode == parity.DIFFERS, run.stdout + run.stderr
    assert run.stdout.count("DIFFERS in artifact tensor b_out\n") == 16
    assert run.stdout.count("  largest |difference|: loss 0.000e+00; artifact tensor b_out ") == 16


def test_an_artifact_version_bump_alone_is_no_difference(tmp_path):
    """A copy that writes the next format_version and nothing else new is
    bitwise equal to this tree in all 16 cases."""
    exact = f"ARTIFACT_VERSION = {ARTIFACT_VERSION}\n"
    run = _parity(_planted(tmp_path, "models.py", exact,
                           f"ARTIFACT_VERSION = {ARTIFACT_VERSION + 1}\n"))
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "16 of 16 cases bitwise equal"


def test_a_crash_is_not_a_difference(tmp_path):
    """A parent whose save_model raises makes parity.py exit with a
    traceback and a status other than 0 and DIFFERS, which CI fails on."""
    exact = "    named = model.named_parameters()\n    manifest = {\n"
    run = _parity(_planted(tmp_path, "models.py", exact,
                           "    raise RuntimeError('planted')\n" + exact))
    assert run.returncode not in (0, parity.DIFFERS), run.stdout + run.stderr
    assert "RuntimeError: planted" in run.stderr


def test_a_flipped_packed_tag_is_flagged(tmp_path):
    """A copy whose packed predict (the call tag_corpus makes, with
    lengths) moves its last tag to the next tag id differs only in the
    tag_corpus tags; one-sentence predict is unchanged."""
    shutil.copytree(SRC / "seqtag", tmp_path / "seqtag",
                    ignore=shutil.ignore_patterns("__pycache__"))
    models = tmp_path / "seqtag" / "models.py"
    exact = ("        ids = viterbi_decode(self.crf or self._zero_crf, emissions, "
             "self._mask(), lengths)\n")
    planted = exact + ("        if lengths is not None:\n"
                       "            ids[-1] = (ids[-1] + 1) % len(self.tags)\n")
    assert exact in models.read_text()
    models.write_text(models.read_text().replace(exact, planted))
    run = _parity(tmp_path)
    assert run.returncode == parity.DIFFERS, run.stdout + run.stderr
    assert run.stdout.count("DIFFERS in tag_corpus tags\n") == 16
    assert run.stdout.splitlines()[-1] == "0 of 16 cases bitwise equal"


def test_the_relative_difference_is_independent_of_the_loss_scale(tmp_path):
    """A copy whose loss is scaled by 1 + 2^-40 moves each case's loss by a
    different absolute amount, but by 2^-40 relative to it; nothing else
    moves."""
    shutil.copytree(SRC / "seqtag", tmp_path / "seqtag",
                    ignore=shutil.ignore_patterns("__pycache__"))
    engine = tmp_path / "seqtag" / "autodiff.py"
    exact = '    return _result(sum(sums[1:], sums[0]), tensors, "inner", _bw)\n'
    planted = ('    return _result(sum(sums[1:], sums[0]) * (1.0 + 2.0 ** -40), tensors, '
               '"inner", _bw)\n')
    assert exact in engine.read_text()
    engine.write_text(engine.read_text().replace(exact, planted))
    run = _parity(tmp_path)
    assert run.returncode == parity.DIFFERS, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    absolute = [float(line.split("; ")[0].rsplit(" ", 1)[1]) for line in lines
                if line.startswith("  largest |difference|: loss ")]
    relative = [line.split("; ") for line in lines
                if line.startswith("  largest relative difference: loss ")]
    assert len(absolute) == len(relative) == 16
    assert max(absolute) > 2 * min(absolute) > 0.0
    for loss, *rest in relative:
        assert abs(float(loss.rsplit(" ", 1)[1]) / 2.0 ** -40 - 1.0) < 1e-3
        assert rest == ["sgd-momentum steps 0.000e+00", "adam steps 0.000e+00"]
