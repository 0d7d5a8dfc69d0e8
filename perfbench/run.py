#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench) for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig9_48 --seed 1 --seconds 20 --trace 0

The Go benchmark in this directory is a module of its own that uses the
simulator's packages from the parent directory. It is built from source
into $CARGO_TARGET_DIR (default .bench_build), with the Go build cache,
temporary files and the traced run's CPU profile kept there too, so the
run reads and writes only inside the checkout. The last line of standard
output is the benchmark's JSON result; the exit code is non-zero when the
build fails, the run fails, or any output is wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def go_env(build_dir):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(build_dir, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOWORK="off", GOTOOLCHAIN="local", GOPROXY="off",
               GOFLAGS="-buildvcs=false",
               PPROF_TMPDIR=os.path.join(build_dir, "tmp"))
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out_dir = os.path.join(build_dir, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    env = go_env(build_dir)
    binary = os.path.join(out_dir, "perfbench")

    build = subprocess.run([go, "build", "-trimpath", "-o", binary, "."],
                           cwd=HERE, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("run.py: build failed", file=sys.stderr)
        return 2

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-outdir", out_dir]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    try:
        result = json.loads(run.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if (run.returncode != 0 or not isinstance(result, dict)
            or set(result) != RESULT_KEYS or result["correct"] is not True):
        print(f"run.py: benchmark failed or wrong (exit {run.returncode})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
