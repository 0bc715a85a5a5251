"""tests/parity.py, the bitwise comparison of two trees, run against this
tree itself and against copies of it with a planted one-ulp change, in the
loss or in the Adam update."""

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
