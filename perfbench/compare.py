#!/usr/bin/env python3
"""Collect, summarize and compare result sets of the repository benchmark.

A result set is a directory of run records, one JSON file per run, as
perfbench/run.py writes them (<workload>-s<seed>-t<trace>.json).

    # ten untraced runs per workload, seeds 1..10, into DIR
    python3 perfbench/compare.py sweep --out DIR --seeds 1-10
    # median and quartiles of every end-to-end metric, per workload
    python3 perfbench/compare.py summary DIR
    # parent (A) against change (B), one row per workload
    python3 perfbench/compare.py diff A B

`diff` is exact on the work counters of the deterministic workloads (same
workload and seed must give the same count) and applies each end-to-end
metric's bound from BENCHMARK.json to the medians: B is a regression when
its median is worse than A's by more than the bound. Where either side's
own spread (quartile distance over median) exceeds the bound the metric is
reported as unresolved, not as unchanged. Exit status 1 on a regression or
a count mismatch.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Counters that repeat exactly for one workload and seed. The portfolio
# race is nondeterministic, so its counters are not compared exactly.
EXACT_COUNTS = ["core.conflicts", "core.decisions", "core.propagations",
                "engines.queries", "engines.frames", "engines.obligations",
                "engines.generalization_drops"]
DETERMINISTIC = {"oneshot", "model_check", "service_mix"}
# Workload-specific end-to-end figures of the run record, each judged by
# the bound of the BENCHMARK.json metric it is a part of.
WORKLOAD_METRICS = {
    "bmc_s": "verdict_s", "ic3_s": "verdict_s",
    "verdict_s.t2": "verdict_s", "verdict_s.t4": "verdict_s",
    "job_latency_p50_s": "verdict_s", "job_latency_p90_s": "verdict_s",
    "session_query_p50_s": "verdict_s", "session_query_p90_s": "verdict_s",
    "latency_p50_s": "verdict_s", "latency_p90_s": "verdict_s",
}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_set(directory, trace=0):
    """Returns {workload: {seed: record}} for the untraced (or traced) runs."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace", 0) != trace:
            continue
        runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def column(records, name):
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_sweep(args):
    spec = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if run.returncode != 0:
                print(f"{workload} seed {seed}: exit {run.returncode}", file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: {run.stdout.strip().splitlines()[-1]}")
            stem = f"{workload}-s{seed}-t{args.trace}.json"
            (out / stem).write_text((ROOT / ".bench_results" / stem).read_text())
    return 0


def cmd_summary(args):
    spec = load_spec()
    runs = load_set(args.dir, args.trace)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    summary = {}
    for workload, by_seed in sorted(runs.items()):
        records = [by_seed[s] for s in sorted(by_seed)]
        row = {"runs": len(records), "seeds": sorted(by_seed)}
        for name in names:
            values = column(records, name)
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            row[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0}
        summary[workload] = row
    print(json.dumps(summary, indent=1))
    return 0


def cmd_diff(args):
    spec = load_spec()
    a_runs, b_runs = load_set(args.a), load_set(args.b)
    failed = False
    for workload in sorted(set(a_runs) | set(b_runs)):
        a = list(a_runs.get(workload, {}).values())
        b = list(b_runs.get(workload, {}).values())
        print(f"== {workload}: A {len(a)} runs, B {len(b)} runs")
        metrics = list(spec["end_to_end"])
        by_name = {m["name"]: m for m in metrics}
        for name, part_of in WORKLOAD_METRICS.items():
            if name not in by_name and column(a, name) and part_of in by_name:
                metrics.append(dict(by_name[part_of], name=name))
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            av, bv = column(a, name), column(b, name)
            if not av or not bv:
                print(f"  {name:24s} missing")
                continue
            a1, am, a3 = quartiles(av)
            b1, bm, b3 = quartiles(bv)
            change = (bm - am) / am if am else 0.0
            worse = change if metric["better"] == "lower" else -change
            spread = max((a3 - a1) / am if am else 0, (b3 - b1) / bm if bm else 0)
            if worse > bound:
                verdict = "REGRESSION"
                failed = True
            elif spread > bound:
                verdict = "unresolved"
            elif worse < -spread:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"  {name:24s} {am:12.6g} -> {bm:12.6g} {metric['unit']:5s}"
                  f" {change:+7.1%} (bound {bound:.0%}, spread {spread:.1%})"
                  f" {verdict}")
        a_failed = sum(r["failed"] for r in a)
        b_failed = sum(r["failed"] for r in b)
        if b_failed > a_failed:
            failed = True
            print(f"  failed operations: {a_failed} -> {b_failed} MORE FAILURES")
        if workload not in DETERMINISTIC:
            continue
        mismatches = []
        a_by_seed = a_runs.get(workload, {})
        b_by_seed = b_runs.get(workload, {})
        for seed in sorted(set(a_by_seed) & set(b_by_seed)):
            for name in EXACT_COUNTS:
                av = a_by_seed[seed]["first_round"].get(name)
                bv = b_by_seed[seed]["first_round"].get(name)
                if av is not None and av["value"] != (bv or {}).get("value"):
                    mismatches.append(f"seed {seed} {name}: {av['value']} -> "
                                      f"{(bv or {}).get('value')}")
        seeds = len(set(a_by_seed) & set(b_by_seed))
        if mismatches:
            failed = True
            print(f"  exact counts: {len(mismatches)} differ")
            for line in mismatches:
                print(f"    {line}")
        else:
            print(f"  exact counts: identical on {seeds} common seeds")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(
        description="Collect, summarize and compare benchmark result sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = sub.add_parser("sweep", help="run workloads over a seed range")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    sweep.add_argument("--seconds", type=int, default=0,
                       help="default: BENCHMARK.json run_seconds")
    sweep.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sweep.add_argument("--workloads", nargs="*")
    summary = sub.add_parser("summary", help="quartiles per workload and metric")
    summary.add_argument("dir")
    summary.add_argument("--trace", type=int, choices=(0, 1), default=0)
    diff = sub.add_parser("diff", help="compare result set B against A")
    diff.add_argument("a")
    diff.add_argument("b")
    args = parser.parse_args()
    return {"sweep": cmd_sweep, "summary": cmd_summary, "diff": cmd_diff}[
        args.command](args)


if __name__ == "__main__":
    sys.exit(main())
