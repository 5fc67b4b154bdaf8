#!/usr/bin/env python3
"""Build the mpath benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload churn-32 --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
libraries and the benchmark binary under $CARGO_TARGET_DIR (default
.bench_build); later runs only check that the build is up to date. The
workload runs in its own single-threaded process, and its result - one JSON
object with the keys correct, attempted, failed and metrics - is printed as
the last line of standard output. With --trace 1 the Chrome trace and the
per-layer table land in <build dir>/perfbench-out/.

Exits non-zero without printing a result when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("osu-p2p", "churn-32", "collective-chain", "tenants-faulted")
RUN_TIMEOUT_S = 170


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(build_dir, env):
    """Configure (once) and build the benchmark binary; return its path."""
    log = os.path.join(os.path.dirname(build_dir), "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "mpath_perfbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                sys.exit(f"build failed: {' '.join(cmd)} (log: {log})")
    return os.path.join(build_dir, "mpath_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = build_root()
    # Compiler and run-time scratch files stay inside the build root too.
    env = dict(os.environ, TMPDIR=os.path.join(root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(os.path.join(root, "perfbench"), env)
    out_dir = os.path.join(root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
