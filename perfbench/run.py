#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload, or all of them.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own Cargo package
(perfbench/Cargo.toml) built offline into $CARGO_TARGET_DIR (default
.bench_build). Each workload runs in its own process; spans of traced runs
and scratch state go under .bench_out. The last line of standard output is
one JSON object: the workload's result, or with --workload all, every
workload's result keyed by name. The exit code is 0 only when the build
succeeded and every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["pull_fleet", "push_ingest", "fleet_poll", "goleak_ci"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Builds the release binary and returns its path, or None on failure."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(ROOT, target, "release", "perfbench")


def run_one(binary, workload, args):
    """Runs one workload; returns (exit code, parsed result or None,
    output lines)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", os.path.join(ROOT, ".bench_out"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} timed out", file=sys.stderr)
        return 1, None, []
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args()
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be between 1 and 60")

    binary = build()
    if binary is None:
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results, worst = {}, 0
    for name in names:
        code, result, lines = run_one(binary, name, args)
        if result is None:
            code = code or 1
        worst = max(worst, code)
        if args.workload == "all":
            for line in lines[:-1]:
                print(line)
            results[name] = result
        else:
            for line in lines:
                print(line)
    if args.workload == "all":
        print(json.dumps(results, separators=(",", ":")))
    return worst


if __name__ == "__main__":
    sys.exit(main())
