#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result line.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The script builds the benchmark (the
library from src/ plus perfbench/src) with CMake in $CARGO_TARGET_DIR
(default .bench_build), runs the workload, keeps the full run record under
.bench_results/ for perfbench/compare.py, and prints as its last line one
JSON object: correct, attempted, failed, and the metrics BENCHMARK.json
names -- the end_to_end ones with --trace 0, the per_layer ones with
--trace 1. A per-layer metric of a layer the workload does not exercise
reads 0.

A wrong answer, a broken trace or a failed build exits nonzero without a
result line.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def fail(message, code=2):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(bdir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not (bdir / "Makefile").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    cmd = ["cmake", "--build", str(bdir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    binary = build(build_dir())
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(results / f"spans-{stem}.jsonl")]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        fail(f"workload exited with status {run.returncode}", run.returncode)
    record = json.loads(run.stdout.strip().splitlines()[-1])
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    measured = record["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in measured:
            value = measured[name]["value"]
        elif args.trace:
            value = 0  # the layer does no work in this workload
        else:
            fail(f"workload did not measure {name}")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
