#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny run of every workload, untraced and
traced, must verify every replay and print exactly the metrics, with their
units, that BENCHMARK.json lists.

    python3 perfbench/selftest.py      (from the repository root)
"""

import json
import subprocess
import sys


def check(workload, trace, want):
    label = f"{workload} --trace {trace}"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.02"],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{label}: result keys {sorted(result)}"
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        return f"{label}: {result['failed']} of {result['attempted']} cycles failed"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return f"{label}: missing {missing}, extra {extra}, wrong unit {units}"
    print(f"ok   {label}: {result['attempted']} cycles, {len(got)} metrics")
    return None


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            failure = check(workload, trace, want)
            if failure:
                print(f"FAIL {failure}")
                failures.append(failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
