#!/usr/bin/env python3
"""Span test of the benchmark's traced run.

    python3 perfbench/tests/trace_test.py PERFBENCH_BINARY BENCHMARK_JSON

Runs one traced round of every workload and checks, on the spans written
out and on the run record:
  * every child span lies inside its parent;
  * no self time (duration minus the union of the children) is negative;
  * on the single-threaded workloads the self times of the tree add up to
    the root span's duration;
  * the traced run measures every per-layer metric of BENCHMARK.json on
    the workload that exercises that layer, plus the tracing overhead.
"""
import json
import os
import subprocess
import sys
import tempfile

# Per-layer metrics (by name prefix or full name) each workload measures.
MEASURED = {
    "oneshot": ["cnf.", "core.", "proof.", "telemetry."],
    "model_check": ["core.conflicts", "core.decisions", "core.propagations",
                    "core.solve_s", "core.props_per_s", "core.conflicts_per_s",
                    "core.phase.", "engines.", "telemetry."],
    "service_mix": ["service.", "loadgen.", "cnf.model_check_s", "core.solve_s",
                    "core.conflicts", "core.phase.", "engines.queries",
                    "engines.solve_s", "engines.edit_s", "engines.query_us_",
                    "telemetry."],
    "portfolio": ["portfolio.", "cnf.parse_s", "cnf.model_check_s",
                  "core.load_s", "core.solve_s", "core.conflicts", "core.phase.",
                  "telemetry."],
}
SEQUENTIAL = {"oneshot", "model_check"}


def self_times(spans):
    kids = [[] for _ in spans]
    for s in spans:
        if s["parent"] >= 0:
            kids[s["parent"]].append((s["start_ns"], s["end_ns"]))
    out = []
    for s, children in zip(spans, kids):
        covered, cursor = 0, s["start_ns"]
        for begin, end in sorted(children):
            begin, end = max(begin, cursor), min(end, s["end_ns"])
            if end > begin:
                covered += end - begin
                cursor = end
        out.append(s["end_ns"] - s["start_ns"] - covered)
    return out


def check_workload(binary, workload, per_layer, tmp):
    errors = []
    spans_path = os.path.join(tmp, f"{workload}.jsonl")
    run = subprocess.run([binary, "--workload", workload, "--seed", "1",
                          "--seconds", "0", "--trace", "1", "--spans", spans_path],
                         stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        return [f"exit status {run.returncode}"]
    record = json.loads(run.stdout.strip().splitlines()[-1])
    spans = [json.loads(line) for line in open(spans_path)]
    if not spans:
        return ["no spans written"]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            if s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
                errors.append(f"span {i} ({s['name']}) outside its parent")
    selfs = self_times(spans)
    if min(selfs) < 0:
        errors.append("negative self time")
    roots = [i for i, s in enumerate(spans) if s["parent"] < 0]
    if len(roots) != 1:
        errors.append(f"{len(roots)} root spans")
    elif workload in SEQUENTIAL:
        root = spans[roots[0]]
        if abs(sum(selfs) - (root["end_ns"] - root["start_ns"])) > 0:
            errors.append("self times do not add up to the root span")
    measured = record["metrics"]
    for name in per_layer:
        if any(name.startswith(p) for p in MEASURED[workload]) and name not in measured:
            errors.append(f"per-layer metric {name} not measured")
    if "telemetry.trace_overhead_frac" not in measured:
        errors.append("no telemetry.trace_overhead_frac")
    return errors


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    spec = json.load(open(spec_path))
    per_layer = [m["name"] for m in spec["per_layer"]]
    failed = False
    unowned = [n for n in per_layer
               if not any(n.startswith(p) for ps in MEASURED.values() for p in ps)]
    if unowned:
        failed = True
        print(f"FAIL per-layer metrics no workload measures: {unowned}")
    with tempfile.TemporaryDirectory() as tmp:
        for workload in MEASURED:
            errors = check_workload(binary, workload, per_layer, tmp)
            for e in errors:
                print(f"FAIL {workload}: {e}")
            if not errors:
                print(f"ok   {workload}")
            failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
