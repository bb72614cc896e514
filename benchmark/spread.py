#!/usr/bin/env python3
"""The acceptance check the benchmark contract describes, run locally.

Runs every workload of BENCHMARK.json once per seed (ten seeds by default),
untraced, and prints for each end-to-end metric the distance between the
first and third quartile of its values as a share of their median
(statistics.quantiles(values, n=4)), beside a third of the metric's bound.
Exits non-zero when a spread other than setup_s exceeds its bound.

usage: benchmark/spread.py [first_seed [seeds [workload ...]]]
"""
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    manifest = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    first = int(sys.argv[1]) if len(sys.argv) > 1 else 101
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    workloads = sys.argv[3:] or [w["name"] for w in manifest["workloads"]]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        started = time.time()
        for seed in range(first, first + count):
            cmd = manifest["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(manifest["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect: {done.stderr}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        per_run = (time.time() - started) / count
        for name, bound in bounds.items():
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "FAIL")
            if verdict == "FAIL" and name != "setup_s":
                ok = False
            print(f"{workload:<11} {name:<22} median {med:>14.4f}  spread {spread:7.4f}  "
                  f"bound/3 {bound / 3:6.4f}  {verdict}  ({per_run:.1f} s/run)  "
                  f"range {(max(v) - min(v)) / med:.4f}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
