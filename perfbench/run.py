#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload mixed-inproc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The benchmark is built from the tree's
own sources with CMake into $CARGO_TARGET_DIR (default .bench_build), then
run once; its last line of output is the JSON result, checked here against
the metric names and units BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "protocol.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "setrec_perf",
                 "-j", jobs]):
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "setrec_perf")


def commit():
    """The measured commit, when the tree is a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest"],
                                timeout=RUN_TIMEOUT_S).returncode)
    if not args.workload:
        parser.error("--workload is required")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail("benchmark exited with %d and no result" % done.returncode)
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace == 1)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        sys.stdout.write(done.stdout)
        fail("emitted metrics differ from BENCHMARK.json: %s"
             % sorted(set(emitted.items()) ^ set(declared.items())))
    print("\n".join(lines[:-1]))
    print("# commit: " + commit())
    print(lines[-1])


if __name__ == "__main__":
    main()
