#!/usr/bin/env python3
"""Determinism check of the benchmark's exact counts.

    python3 perfbench/tests/determinism_test.py PERFBENCH_BINARY

For the single-threaded workloads (oneshot, model_check) and the service
mix, one round with a fixed seed must give the same work counters in two
separate processes: core.conflicts/decisions/propagations, the engines'
query counts and, for service_mix, the jobs' summed solver work. The
portfolio race is nondeterministic by design and is not compared.

A held-out seed (never used while the benchmark was tuned) must then run
clean on every workload, with every answer checked; its counts are printed
so they can be recorded next to the baseline.
"""
import json
import subprocess
import sys

SEED = 1
HELD_OUT_SEED = 9001
EXACT = {
    "oneshot": ["core.conflicts", "core.decisions", "core.propagations",
                "proof.trace_adds", "proof.trace_deletes"],
    "model_check": ["core.conflicts", "core.decisions", "core.propagations",
                    "engines.queries", "engines.obligations", "engines.frames",
                    "engines.generalization_drops"],
    "service_mix": ["core.conflicts", "core.decisions", "core.propagations",
                    "engines.queries", "engines.frames"],
}


def one_round(binary, workload, seed):
    run = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                          "--seconds", "0", "--trace", "0"],
                         stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit status {run.returncode}")
    return json.loads(run.stdout.strip().splitlines()[-1])


def counts(record, names):
    return {n: record["first_round"][n]["value"] for n in names}


def main():
    binary = sys.argv[1]
    failed = False
    for workload, names in EXACT.items():
        first = counts(one_round(binary, workload, SEED), names)
        second = counts(one_round(binary, workload, SEED), names)
        if first != second:
            failed = True
            print(f"FAIL {workload} seed {SEED}: {first} != {second}")
        else:
            print(f"ok   {workload} seed {SEED}: {first}")
    for workload in ["oneshot", "model_check", "service_mix", "portfolio"]:
        record = one_round(binary, workload, HELD_OUT_SEED)
        if not record["correct"] or record["failed"] != 0:
            failed = True
            print(f"FAIL {workload} held-out seed {HELD_OUT_SEED}: {record['failed']} "
                  f"of {record['attempted']} operations failed")
            continue
        names = EXACT.get(workload, ["core.conflicts"])
        print(f"ok   {workload} held-out seed {HELD_OUT_SEED}: "
              f"{record['attempted']} operations checked, {counts(record, names)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
