#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only re-check the build. The harness's
stdout is passed through: its last line is the result object
{"correct", "attempted", "failed", "metrics"}. Exit code 0 only when
every operation returned the right bytes.

ECFRM_* variables are removed from the harness's environment so every run
uses the shipped defaults: I/O backend uring-when-available, fsync off,
best GF SIMD tier. The detail line before the result records what was
actually used.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no src/ next to {HERE}: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr, env=env,
                   check=True)
    return os.path.join(build_dir, "perfbench_harness")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Compiler and harness temporaries stay inside the build directory.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ECFRM_")}
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        harness = build(build_dir, env)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    proc = subprocess.run(
        [harness, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        stdout=subprocess.PIPE, env=env, text=True)
    shutil.rmtree(".bench_data", ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"harness exited {proc.returncode} without a result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    if proc.returncode != 0 or not result["correct"] or result["failed"] != 0:
        fail(f"harness exited {proc.returncode}: {result['failed']} of "
             f"{result['attempted']} operations failed or returned wrong bytes")


if __name__ == "__main__":
    main()
