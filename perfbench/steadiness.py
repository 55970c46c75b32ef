#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--seed0 1] [--workloads a,b] [--out FILE]
    python3 perfbench/steadiness.py --compare FIRST.json SECOND.json

Run from the root of the repository. Runs the command in BENCHMARK.json once
per seed (seeds seed0 .. seed0+runs-1) on each workload, untraced, and for
every end-to-end metric prints the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound. A spread above a third of the
bound is flagged. --out writes every raw value and spread as JSON.

--compare reads two such files and prints, per workload and metric, how much
worse the second median is than the first, as a share of the first, flagging
any change beyond the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds, trace="0"):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", trace]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: status {done.returncode}\n{done.stdout}\n{done.stderr}")
    host = next((l for l in lines if l.startswith("host:")), "")
    notes = [l for l in lines if l.startswith("note:")]
    return json.loads(lines[-1]), host, notes


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def compare(first_path, second_path, spec):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for w, rows in first["workloads"].items():
        theirs = second["workloads"][w]["metrics"]
        # Only the metrics BENCHMARK.json gates now, and both files hold.
        for name in [n for n in bounds if n in rows["metrics"] and n in theirs]:
            a, b = rows["metrics"][name]["median"], theirs[name]["median"]
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            worst = max(worst, worse / bounds[name])
            flag = "  <-- beyond bound" if worse > bounds[name] else ""
            print(f"  {w:15s} {name:14s} first={a:<14.6g} second={b:<14.6g} "
                  f"worse_by={worse:+.4f} bound={bounds[name]}{flag}")
    print(f"largest worsening: {worst:.2f} of its bound")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.compare:
        compare(*args.compare, spec)
        return
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "seeds": list(range(args.seed0, args.seed0 + args.runs)), "workloads": {}}
    for w in workloads:
        values = {name: [] for name in bounds}
        host = ""
        notes = []
        for seed in report["seeds"]:
            result, host, run_notes = run_once(spec, w, seed, seconds)
            notes.append(run_notes)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds), flush=True)
        rows = {}
        for name, vals in values.items():
            med, sp = spread(vals)
            flag = "" if name == "setup_s" or sp <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {w:15s} {name:14s} median={med:<14.6g} spread={sp:.4f} bound={bounds[name]}{flag}")
            rows[name] = {"values": vals, "median": med, "spread": sp, "bound": bounds[name]}
        report["workloads"][w] = {"host": host, "metrics": rows, "notes": notes}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
