#!/usr/bin/env python3
"""Train+serve benchmark: one run of one workload.

    python3 quadbench/run.py --workload ld-qd2 --seed 1 --seconds 25 --trace 0

Builds the quadbench binary (quadbench/CMakeLists.txt, Release) on first
use, generates the workload's LIBSVM files from --seed, runs the untimed
reference check, then measures. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones (see
README.md).

The build lives in $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; generated inputs are deleted when the run ends.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ld-qd2", "hs-qd1", "mc-qd4")
# Wall limits: the build (first run in a checkout only), then the rest of
# the run. Each step is killed when its limit's deadline passes.
BUILD_LIMIT_S = 880
RUN_LIMIT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run(cmd, deadline, **kwargs):
    """Runs cmd to completion (killing it at the time.monotonic() deadline)
    and returns (exit code, captured stdout); logs its wall time to
    stderr."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("timed out: %s" % " ".join(cmd))
    log("run.py: %s took %.1f s" % (os.path.basename(cmd[0]) + " " + cmd[1],
                                    time.monotonic() - start))
    return proc.returncode, out


def build():
    """Configures once and builds incrementally; returns the binary's path."""
    out_dir = os.path.join(build_dir(), "quadbench")
    os.makedirs(out_dir, exist_ok=True)
    deadline = time.monotonic() + BUILD_LIMIT_S
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            code, _ = run(["cmake", "-S", HERE, "-B", out_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], deadline,
                          stdout=sys.stderr)
            if code != 0:
                raise RuntimeError("cmake configure failed")
        code, _ = run(["cmake", "--build", out_dir, "-j",
                       str(os.cpu_count() or 1)], deadline,
                      stdout=sys.stderr)
        if code != 0:
            raise RuntimeError("build failed")
    return os.path.join(out_dir, "quadbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: library sources (src/) not found next to quadbench/")
        return 2

    binary = build()
    deadline = time.monotonic() + RUN_LIMIT_S
    data = os.path.join(build_dir(), "data",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(data)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        code, _ = run([binary, "gen"] + common + ["--dir", data], deadline)
        if code != 0:
            raise RuntimeError("input generation failed")
        check_code, _ = run([binary, "check"] + common, deadline)
        code, out = run([binary, "measure"] + common +
                        ["--dir", data, "--seconds", str(args.seconds),
                         "--trace", str(args.trace)],
                        deadline, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if code != 0:
        sys.stdout.write(out)
        raise RuntimeError("measure exited with %d" % code)

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    # The reference check is one more attempted operation.
    result["attempted"] += 1
    if check_code != 0:
        result["failed"] += 1
        result["correct"] = False
        lines.insert(-1, "# FAILED: reference check")
    if args.trace == 0:
        result["metrics"]["ok_ratio"] = {
            "value": 1.0 - result["failed"] / result["attempted"],
            "unit": "ratio"}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as err:
        log("run.py:", err)
        sys.exit(1)
