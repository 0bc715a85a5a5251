"""seqtag benchmark: training and tagging speed, tag latency and per-layer traces.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed S --seconds N --trace 0|1

The workloads and metrics are named in BENCHMARK.json.  Each invocation runs
the workload in its own process (worker.py) against seqtag from the
checkout's src/, with the BLAS thread count pinned to one.  --seed makes the
corpus; --seconds is how long tagging is measured.

--trace 0 prints the end-to-end metrics of one untraced run.  --trace 1 runs
the workload untraced and traced in two processes side by side, prints the
per-layer metrics of the traced run with its overhead, and fails if tracing
changed the held-out tags, the F1 or the graph counts.

Timings are reported at a fixed reference speed of the machine, as
worker.py's SpeedMeter describes; with --trace 0 their wall-clock values
are printed beside them as raw.<name>.  Every metric is printed with its
unit, followed by the failure count.  The last line of standard output is
the JSON result.  The full record, with the environment, every layer metric
and the spans, goes to .perfbench/<workload>-seed<S>-trace<0|1>.json under
the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
BUDGET_S = 170  # the whole invocation, both worker processes included
# One BLAS thread on every machine: never more than nproc, and the same for
# every run, so matmul timings do not depend on the core count.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def start_worker(args, traced: bool) -> subprocess.Popen:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if traced:
        cmd.append("--traced")
    if args.smoke:
        cmd.append("--smoke")
    return subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def result_of(proc: subprocess.Popen, deadline: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within the time budget") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if Path(result["seqtag"]).resolve() != (ROOT / "src" / "seqtag").resolve():
        raise BenchError(f"worker imported seqtag from {result['seqtag']}")
    return result


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args) -> dict:
    """Run the workload untraced and, for --trace 1, traced at the same time.

    The traced and untraced processes run side by side, one per core, so a
    traced invocation takes little longer than an untraced one.  Both see the
    same contention, which keeps their ratio a fair tracing overhead.
    """
    deadline = time.monotonic() + BUDGET_S
    procs = [start_worker(args, traced=False)]
    if args.trace:
        procs.append(start_worker(args, traced=True))
    try:
        plain, *rest = [result_of(proc, deadline) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": plain["env"], "problems": list(plain["problems"]),
              "attempted": plain["attempted"], "failed": plain["failed"],
              "tag_passes": plain["passes"], "tag_samples": plain["tag_samples"]}
    if not args.trace:
        record["metrics"] = {k: metric(*v) for k, v in plain["metrics"].items()}
        record["raw_timings"] = {k: metric(*v) for k, v in plain["raw_timings"].items()}
        record["calibration_loop_ms"] = plain["calibration_loop_ms"]
        return record
    traced = rest[0]
    record["problems"] += traced["problems"]
    record["attempted"] += traced["attempted"]
    record["failed"] += traced["failed"]
    if traced["heldout_tags"] != plain["heldout_tags"]:
        record["problems"].append("tracing changed the held-out tags")
    if traced["metrics"]["heldout_f1"] != plain["metrics"]["heldout_f1"]:
        record["problems"].append("tracing changed heldout_f1")
    if traced["graph_counts"] != plain["graph_counts"]:
        record["problems"].append("tracing changed the graph counts")
    metrics = {k: metric(*v) for k, v in traced["layers"].items()}
    metrics.update({k: metric(v, "count") for k, v in traced["graph_counts"].items()})
    for name in ("train_tok_s", "tag_tok_s"):
        ratio = traced["metrics"][name][0] / plain["metrics"][name][0]
        metrics[f"tracing.{name}_ratio"] = metric(ratio, "ratio")
    record["metrics"] = metrics
    record["spans"] = traced["spans"]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny slices for the self-test; numbers mean nothing")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "seqtag" / "__init__.py").is_file():
            raise BenchError(f"no seqtag source under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        record = measure(args)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = record["metrics"]
    OUT_DIR.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    out.write_text(json.dumps(record))

    print("env " + " ".join(f"{k}={v}" for k, v in record["env"].items()))
    if not args.trace:
        print(f"tag passes {record['tag_passes']}, "
              f"predict latency samples {record['tag_samples']}")
    for name, m in sorted(metrics.items()):
        print(f"{name:48s} {m['value']!r:>24} {m['unit']}")
    for name, m in sorted(record.get("raw_timings", {}).items()):
        print(f"{'raw.' + name:48s} {m['value']!r:>24} {m['unit']} (wall clock)")
    print(f"{'failed_share':48s} {record['failed'] / record['attempted']!r:>24} "
          f"({record['failed']} of {record['attempted']} operations)")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(f"record written to {out.relative_to(ROOT)}")

    missing = [m["name"] for m in listed if metrics.get(m["name"], {}).get("value") is None]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": record["failed"] == 0 and not record["problems"],
                      "attempted": record["attempted"], "failed": record["failed"],
                      "metrics": {m["name"]: metrics[m["name"]] for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
