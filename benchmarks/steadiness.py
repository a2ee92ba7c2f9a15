#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/steadiness.py [--workloads a,b] [--seeds 0-9] [--label NAME]

For every workload, runs `benchmarks/run.py --trace 0` once per seed, one
run at a time, with the run length from BENCHMARK.json.  Per end-to-end
metric it prints the median, the quartiles from statistics.quantiles(n=4)
and the spread (q3 - q1) / median, next to the metric's bound.  The runs
and the summary go to benchmarks/results/steadiness-NAME.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="seed sweep of the benchmark")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--label", default=time.strftime("%Y%m%dT%H%M%S"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary = {}, {}
    for wl in args.workloads.split(","):
        runs[wl] = []
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=600, check=True)
            doc = json.loads(out.stdout.strip().splitlines()[-1])
            doc["seed"], doc["wall_s"] = seed, time.perf_counter() - t0
            runs[wl].append(doc)
            print(f"{wl} seed {seed}: correct {doc['correct']} attempted {doc['attempted']} "
                  f"failed {doc['failed']} wall {doc['wall_s']:.1f}s", flush=True)
        summary[wl] = {}
        for name in bounds:
            med, q1, q3, sp = spread([d["metrics"][name]["value"] for d in runs[wl]])
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                                 "bound": bounds[name]}
            print(f"  {name:16s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {sp:7.4f}  bound {bounds[name]}", flush=True)

    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "results", f"steadiness-{args.label}.json")
    with open(path, "w") as fh:
        json.dump({"summary": summary, "runs": runs}, fh, indent=1, sort_keys=True)
    print(f"written to {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
