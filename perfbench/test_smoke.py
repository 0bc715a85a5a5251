"""Small-size self-test of the benchmark.

Runs every workload untraced and traced on tiny slices and checks that every
metric is emitted with its unit, that layers which do not run are absent
rather than zero, and that every output check passes.  It also feeds the
output checks malformed tags, which must fail their operations, and checks
that the speed meter scales by the median calibration time.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

BOTH_PHASES = ["models.emission_rows_s", "models.predict_s",
               "crf.viterbi_decode_s", "autodiff.gc_s", "autodiff.gc_collections"]
UNPREFIXED = ["models.loss_s", "crf.crf_nll_s", "crf.log_partition_s",
              "autodiff.backward_s", "autodiff.trace_s", "optim.clip_gradients_s",
              "optim.step_s", "optim.zero_grad_s", "training.evaluate_model_s",
              "data.build_vocab_s", "models.build_model_s", "models.load_model_s",
              "autodiff.nodes_per_sentence_train", "autodiff.nodes_per_sentence_tag",
              "autodiff.op.matmul_per_sentence", "tracing.train_tok_s_ratio",
              "tracing.tag_tok_s_ratio"]
CHAR_LAYERS = ["encoders.compose_input_s", "encoders.compose_input_calls",
               "encoders.char_compose_s", "encoders.bilstm_encode_s"]
TRANSFORMER_LAYERS = ["encoders.transformer_encode_s", "subword.segment_s",
                      "subword.segment_calls"]
LAYERS_BY_WORKLOAD = {
    "bilstm-char-crf": (CHAR_LAYERS, TRANSFORMER_LAYERS + ["subword.train_unigram_s"]),
    "transformer-crf": (TRANSFORMER_LAYERS, CHAR_LAYERS),
}


def phased(names):
    return [f"{phase}.{name}" for name in names for phase in ("train", "tag")]


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads((ROOT / ".perfbench" /
                         f"{workload}-seed3-trace{trace}-smoke.json").read_text())
    return lines, result, record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_and_every_check_passes(workload, trace):
    lines, result, record = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    assert any(line.startswith("failed_share") for line in lines)
    assert record["env"]["blas_threads"] in (1, None)
    if not trace:
        timings = {"train_tok_s", "tag_tok_s", "tag_ms_p50", "tag_ms_p95", "setup_s"}
        assert set(record["raw_timings"]) == timings
        assert any(line.startswith("raw.tag_ms_p50") for line in lines)
        return
    runs, absent = LAYERS_BY_WORKLOAD[workload]
    expected = phased(BOTH_PHASES + runs) + UNPREFIXED
    if workload == "transformer-crf":
        expected.append("subword.train_unigram_s")
    assert not set(expected) - set(record["metrics"])
    emitted = {name.removeprefix("train.").removeprefix("tag.")
               for name in record["metrics"]}
    assert not emitted & set(absent)


def test_malformed_outputs_fail_their_operations():
    import numpy as np
    from seqtag.data import build_vocab
    from seqtag.models import build_model, tag_corpus
    from seqtag.synth import generate_corpus

    import worker

    cfg = worker.CONFIGS["bilstm-char-crf"]
    heldout = generate_corpus(4, seed=1)
    model = build_model(cfg, build_vocab(heldout), np.random.default_rng(0))
    good = [p.tags for p in tag_corpus(model, heldout)]
    bad = [good[0][:-1] or ["O", "O"], ["NOT-A-TAG"] * len(heldout[1]), *good[2:]]
    failures = worker.check_outputs(model, heldout, [(bad, list(good))], None,
                                    np.random.default_rng(0))
    failed = {op for ops, _ in failures for op in ops}
    assert {("corpus", 0, 0), ("corpus", 0, 1)} <= failed
    assert not {("corpus", 0, 2), ("corpus", 0, 3)} & failed
    assert not worker.check_outputs(model, heldout, [(good, list(good))], None,
                                    np.random.default_rng(0))


def test_speed_meter_scales_by_the_calibration_median(monkeypatch):
    import worker

    loops = iter([1e-3] * (worker.CAL_WINDOW - 1) + [9e-3])  # one outlier
    monkeypatch.setattr(worker, "calibration_loop", lambda: next(loops))
    meter = worker.SpeedMeter()
    for _ in range(worker.CAL_WINDOW):
        meter.start()
        raw, scaled = meter.lap()
    assert scaled == pytest.approx(raw * worker.REF_LOOP_S / 1e-3)
