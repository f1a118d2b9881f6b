#!/usr/bin/env python3
"""Runs every workload of the benchmark untraced over seeds 1..N and
summarizes the runs.

    python3 perfbench/ledger.py --seeds 10 [--out perfbench/LEDGER.json]

Run from the repository root. For every workload and every end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread: the distance between the quartiles as a share of the median,
next to the metric's bound from BENCHMARK.json. With --out it writes the
summary, the host stamp and the exact commands to that file.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    host = next((l for l in lines if l.startswith("host: ")), "")
    return " ".join(cmd), host, json.loads(lines[-1])


parser = argparse.ArgumentParser()
parser.add_argument("--seeds", type=int, default=10)
parser.add_argument("--out", default="")
args = parser.parse_args()

with open("BENCHMARK.json") as f:
    bench = json.load(f)
summary = {"seeds": list(range(1, args.seeds + 1)),
           "run_seconds": bench["run_seconds"], "workloads": {}}
for w in bench["workloads"]:
    name = w["name"]
    runs = []
    for seed in summary["seeds"]:
        cmd, host, result = run(name, seed, bench["run_seconds"])
        runs.append(result)
        summary["host"] = host
        summary.setdefault("commands", []).append(cmd)
        print(f"{name} seed={seed} correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
    rows = {}
    for d in bench["end_to_end"]:
        values = [r["metrics"][d["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        rows[d["name"]] = {"unit": d["unit"], "median": med, "q1": q1, "q3": q3,
                           "spread": spread, "bound": d["bound"], "values": values}
        print(f"  {d['name']:32s} median {med:14.6f} {d['unit']:7s} spread {spread:7.3f} bound {d['bound']:.2f}", flush=True)
    summary["workloads"][name] = {
        "correct": [r["correct"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "attempted": [r["attempted"] for r in runs],
        "metrics": rows,
    }

if args.out:
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
