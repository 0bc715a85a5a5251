"""tests/parity.py, the bitwise comparison of two trees, run against this
tree itself and against copies of it with a planted change: one ulp in the
loss or in the Adam update, the loss scaled by 1 + 2^-40, a different
manifest layout in the saved artifact, one flipped tag in packed
prediction, or a different tokenizer pruning fraction.  For the two
changes of the loss the report's magnitudes are checked too, absolute and
relative."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import parity
import seqtag.models
from seqtag.models import ARTIFACT_VERSION

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
    """A version-5 parent's gradients and post-step parameters of a BiLSTM
    stored as W_x, W_h, b_x and b_h are compared as this tree's one block
    [W_x | b_x | b_h | W_h] under P.W; every other tensor and every other
    part of the case is passed on as it is, and the case of a parent of the
    current version is not changed at all."""
    rng = np.random.default_rng(3)
    parts = {"W_x": (2, 8, 3), "W_h": (2, 8, 2), "b_x": (2, 8), "b_h": (2, 8)}

    def named():
        out = {"encoder." + part: rng.standard_normal(shape) for part, shape in parts.items()}
        return dict(out, w_out=rng.standard_normal((4, 3)))

    case = (b"artifact", np.array(1.5), named(), [["O"]], [["O"]],
            {"sgd-momentum": named(), "adam": named()})
    mapped = parity.in_layout(seqtag, case, 5)
    assert mapped[:2] == case[:2] and mapped[3:5] == case[3:5]
    for before, after in [(case[2], mapped[2])] + [(case[5][opt], mapped[5][opt])
                                                   for opt in ("sgd-momentum", "adam")]:
        assert sorted(after) == ["encoder.W", "w_out"]
        assert after["w_out"] is before["w_out"]
        block = after["encoder.W"]
        assert block.shape == (2, 8, 3 + 2 + 2)
        for part, cols in (("W_x", slice(0, 3)), ("b_x", 3), ("b_h", 4), ("W_h", slice(5, 7))):
            assert np.array_equal(block[:, :, cols], before["encoder." + part])
    assert parity.in_layout(seqtag, case, ARTIFACT_VERSION) is case


def test_a_changed_pruning_fraction_is_flagged_in_the_tokenizer_lines(tmp_path):
    shutil.copytree(SRC / "seqtag", tmp_path / "seqtag",
                    ignore=shutil.ignore_patterns("__pycache__"))
    subword = tmp_path / "seqtag" / "subword.py"
    exact = "_PRUNE_FRACTION = 0.2\n"
    assert exact in subword.read_text()
    subword.write_text(subword.read_text().replace(exact, "_PRUNE_FRACTION = 0.25\n"))
    run = _parity(tmp_path)
    assert run.returncode == 1, run.stdout + run.stderr
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
    assert run.returncode == 1, run.stdout + run.stderr
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
    assert run.returncode == 1, run.stdout + run.stderr
    assert run.stdout.count("DIFFERS in adam steps\n") == 16
    assert run.stdout.splitlines()[-1] == "0 of 16 cases bitwise equal"


def test_a_change_in_the_saved_artifact_is_flagged(tmp_path):
    shutil.copytree(SRC / "seqtag", tmp_path / "seqtag",
                    ignore=shutil.ignore_patterns("__pycache__"))
    models = tmp_path / "seqtag" / "models.py"
    exact = "json.dumps(manifest, ensure_ascii=False, indent=1)"
    planted = "json.dumps(manifest, ensure_ascii=False, indent=2)"
    assert exact in models.read_text()
    models.write_text(models.read_text().replace(exact, planted))
    run = _parity(tmp_path)
    assert run.returncode == 1, run.stdout + run.stderr
    assert run.stdout.count("DIFFERS in artifact\n") == 16
    assert run.stdout.splitlines()[-1] == "0 of 16 cases bitwise equal"


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
    assert run.returncode == 1, run.stdout + run.stderr
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
    assert run.returncode == 1, run.stdout + run.stderr
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
