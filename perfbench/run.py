#!/usr/bin/env python3
"""Build and run the skip hash benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (release) against the repository's sources, prints the
host block, then runs the benchmark binary.  For a single workload the last
line of standard output is the binary's JSON result.  `--workload all` runs
the four workloads one after another.  Build output goes to standard error.
The build directory is $CARGO_TARGET_DIR, or `.bench_build` at the root.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ["fig5d-1m", "fig5f-16k", "fig6-r8k", "snap-htap-16k"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_block():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = command_output(["rustc", "--version"]) or "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    commit = commit or "unknown (not a git checkout)"
    return (
        f'host nproc={os.cpu_count()} cpu="{cpu}" arch={platform.machine()} '
        f'rustc="{rustc}" commit={commit}'
    )


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "perfbench")


def run_one(binary, target_dir, workload, args):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(target_dir, f"perfbench-spans-{workload}-seed{args.seed}.tsv")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{workload}: benchmark exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail(f"{workload}: last line is not a JSON result")
    print("\n".join(lines[:-1]))
    return lines[-1], result


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args()

    for crate in ("skiphash", "stm"):
        if not os.path.isfile(os.path.join(ROOT, "crates", crate, "Cargo.toml")):
            fail(f"crates/{crate} is missing: run from the root of a full checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    binary = build(target_dir)

    print(host_block(), flush=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        line, result = run_one(binary, target_dir, workload, args)
        print(line, flush=True)
        if not result.get("correct"):
            print(f"perfbench: {workload}: output checks failed", file=sys.stderr)


if __name__ == "__main__":
    main()
