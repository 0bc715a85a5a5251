"""tests/ab.py, the in-process A/B timing report, run tiny against this
tree itself, and its configs checked against the benchmark's."""

import subprocess
import sys
from pathlib import Path

import seqtag

import ab

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _ab(*args):
    return subprocess.run([sys.executable, str(TESTS / "ab.py"), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_a_tiny_run_against_this_tree_reports_every_case():
    run = _ab(SRC, "--smoke", "--repeats", "2")
    assert run.returncode == 0, run.stdout + run.stderr
    header, *lines = run.stdout.splitlines()
    assert header.split()[:2] == ["case", "parent/this"]
    assert [" ".join(line.split()[:2]) for line in lines] == [
        f"{name} {case}" for name in ab.CONFIGS for case in ab.CASES]
    for line in lines:
        fields = line.split()
        ratio, q1, q3 = float(fields[2]), float(fields[3][1:-1]), float(fields[4][:-1])
        assert 0.0 < q1 <= ratio <= q3
        assert float(fields[5]) > 0.0 and float(fields[6]) > 0.0


def test_a_parent_without_seqtag_exits_2(tmp_path):
    run = _ab(tmp_path)
    assert run.returncode == 2
    assert "usage" in run.stderr


def test_the_configs_and_slices_are_the_benchmark_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(TESTS.parent / "perfbench"))
    import worker

    assert ab.CONFIGS.keys() == worker.CONFIGS.keys()
    for name, cfg in worker.CONFIGS.items():
        assert ab.train_config(seqtag, name) == cfg
    assert ab.SIZES == worker.SIZES
    assert ab.SMOKE_SIZES == worker.SMOKE_SIZES


def test_summary_is_the_median_and_quartiles():
    assert ab.summary([1.0, 4.0, 2.0, 5.0, 3.0]) == (3.0, 2.0, 4.0)
    assert ab.summary([1.25]) == (1.25, 1.25, 1.25)
