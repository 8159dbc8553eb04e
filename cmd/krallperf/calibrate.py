#!/usr/bin/env python3
"""Measures the benchmark's noise: runs the BENCHMARK.json command on every
workload, once per seed, in sets of runs taken one after the other, and
prints per metric each set's median, its interquartile range and min-to-max
range as shares of the median, and how far each later set's median lies
from the first set's. Run it from the root of the repository:

    python3 cmd/krallperf/calibrate.py --sets 2 --runs 10

Set k uses the seeds after those of set k-1. The runs are written to --out
(default .bench_build/calibration-runs.json) as they finish; --summarize FILE
prints the table for runs written earlier, without running anything. The
last line says whether every spread (setup_s aside) and every drift stays
within the metric's bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import time


def run_sets(bench, sets, runs, out):
    doc = {"command": bench["command"], "run_seconds": bench["run_seconds"], "sets": []}
    seed = 1
    for _ in range(sets):
        runs_of_set = []
        doc["sets"].append(runs_of_set)
        for w in bench["workloads"]:
            for _ in range(runs):
                args = bench["command"] + ["--workload", w["name"], "--seed", str(seed),
                                           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                t0 = time.time()
                p = subprocess.run(args, capture_output=True, text=True)
                wall = time.time() - t0
                last = json.loads(p.stdout.strip().splitlines()[-1]) if p.stdout.strip() else {}
                runs_of_set.append({
                    "workload": w["name"], "seed": seed, "exit": p.returncode, "wall_s": round(wall, 1),
                    "correct": last.get("correct", False),
                    "metrics": {k: v["value"] for k, v in last.get("metrics", {}).items()},
                })
                print(w["name"], seed, "exit", p.returncode, "wall", round(wall, 1), "s", flush=True)
                seed += 1
                write(doc, out)
    return doc


def write(doc, out):
    """Writes the runs one per line."""
    sets = ",\n".join("[\n" + ",\n".join(json.dumps(r) for r in runs) + "\n]" for runs in doc["sets"])
    with open(out, "w") as f:
        f.write(f'{{"command": {json.dumps(doc["command"])}, "run_seconds": {doc["run_seconds"]}, "sets": [\n{sets}\n]}}\n')


def summarize(bench, doc):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worse_if_higher = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    ok = True
    print(f"{'workload':15s} {'metric':14s} {'bound':>5s}  per set: median (IQR share, range share); drift of each later median")
    for w in bench["workloads"]:
        for name, bound in bounds.items():
            cells, medians = [], []
            for runs in doc["sets"]:
                v = [r["metrics"][name] for r in runs if r["workload"] == w["name"] and name in r["metrics"]]
                if len(v) < 2:
                    continue
                q = statistics.quantiles(v, n=4)
                m = statistics.median(v)
                medians.append(m)
                iqr, rng = (q[2] - q[0]) / m, (max(v) - min(v)) / m
                cells.append(f"{m:.4g} ({iqr:.3f}, {rng:.3f})")
                if name != "setup_s" and iqr > bound:
                    ok = False
            drifts = []
            for m in medians[1:]:
                worse = (m - medians[0]) / medians[0]
                if not worse_if_higher[name]:
                    worse = -worse
                drifts.append(f"{worse:+.3f}")
                if worse > bound:
                    ok = False
            print(f"{w['name']:15s} {name:14s} {bound:5.2f}  {' | '.join(cells)}  {' '.join(drifts)}")
    bad = [r for runs in doc["sets"] for r in runs if r["exit"] != 0 or not r["correct"]]
    print(f"{len(bad)} failed or incorrect runs; every spread and drift within its bound: {ok and not bad}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload in each set, one seed each")
    ap.add_argument("--out", default=".bench_build/calibration-runs.json")
    ap.add_argument("--summarize", metavar="FILE", help="summarize runs written earlier")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if a.summarize:
        with open(a.summarize) as f:
            doc = json.load(f)
    else:
        os.makedirs(os.path.dirname(a.out) or ".", exist_ok=True)
        doc = run_sets(bench, a.sets, a.runs, a.out)
    summarize(bench, doc)


if __name__ == "__main__":
    main()
