"""tests/parity.py, the bitwise comparison of two trees, run against this
tree itself and against copies of it with a planted change: one ulp in the
loss or in the Adam update, a different manifest layout in the saved
artifact, or one flipped tag in packed prediction.  For the one-ulp loss
the report's magnitudes are checked too."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _parity(parent_src):
    return subprocess.run([sys.executable, str(TESTS / "parity.py"), str(parent_src)],
                          capture_output=True, text=True, timeout=300)


def test_the_tree_is_bitwise_equal_to_itself():
    run = _parity(SRC)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "16 of 16 cases bitwise equal"


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
