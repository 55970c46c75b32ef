#!/usr/bin/env python3
"""Build and run the timer-stack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The script builds the benchmark
package in perfbench/ (release, offline) into $CARGO_TARGET_DIR (default
.bench_build), confines the benchmark process to one CPU and runs it. The
benchmark prints a host line, one line per metric and, as its last line, a
JSON object with `correct`, `attempted`, `failed` and `metrics`.

Confinement: the async-timeouts workload hands every op from the client
thread to the timer-service thread and back. Left to the scheduler, the two
threads sometimes share a CPU and sometimes not, and throughput jumps between
modes from run to run. Pinned to one CPU they still jump between two modes:
whether a wakeup preempts the thread that sent it (one extra pair of context
switches per op) settles differently from run to run. So the benchmark pins
the whole process to one CPU (the last one it may use) and runs it under
SCHED_BATCH, the unprivileged policy under which a wakeup never preempts: the
sender runs on until it blocks for the reply, and every op costs the same
two switches. The single-threaded workloads run the same way, so every run
sees the same machine.

Allocator: glibc adapts its mmap threshold to the sizes a process frees, so
whether a freed multi-megabyte arena is reused from the heap or mapped afresh
(and whether a rebuild page-faults) depended on allocation history, and
peak_rss_mb and setup_s jumped between two values from run to run. Fixing
the threshold at 64 KiB (MALLOC_MMAP_THRESHOLD_) maps every large buffer
afresh and returns it on free, the same way in every run.

The host line records all three settings.

Exit status: 0 on success, 1 when an output check failed, 2 when the
benchmark could not be built or run.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
MMAP_THRESHOLD = 64 * 1024


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(PACKAGE, "Cargo.toml")]
    try:
        # Cargo's own output goes to stderr; stdout carries only results.
        done = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if done.returncode != 0:
        print(f"run.py: build failed with status {done.returncode}", file=sys.stderr)
        return 2

    # Set on this process after the build, so cargo is not confined; the
    # benchmark inherits both settings.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    confinement = f"sched_setaffinity(cpu {cpu})"
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        confinement += "+SCHED_BATCH"
    except (AttributeError, OSError) as e:
        confinement += f"+SCHED_OTHER(batch refused: {e})"
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    confinement += f"+MALLOC_MMAP_THRESHOLD_={MMAP_THRESHOLD}"
    trace_dir = os.path.join(target, "perfbench-trace")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--confinement", confinement]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.tsv")]
    try:
        child = subprocess.Popen(cmd, cwd=ROOT, env=env)
    except OSError as e:
        print(f"run.py: cannot start the benchmark: {e}", file=sys.stderr)
        return 2
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
