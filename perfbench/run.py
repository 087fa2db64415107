#!/usr/bin/env python3
"""Builds and runs the MegaDc end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the simulator from src/)
into $CARGO_TARGET_DIR (default .bench_build) under the checkout, runs one
invocation of megadc_bench, checks its result line against BENCHMARK.json
and prints it as the last line of standard output.  Exits non-zero, without
a result line, when the build fails or the benchmark dies.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    quiet = {"stdout": sys.stderr, "check": True}
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], **quiet)
    subprocess.run(["cmake", "--build", build_dir, "--target", "megadc_bench",
                    "-j", jobs], **quiet)
    return os.path.join(build_dir, "megadc_bench")


def schema_problems(result, spec, trace):
    """What is wrong with a result line, given BENCHMARK.json."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
        return problems
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append("metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(expected) - set(got))}, extra "
                        f"{sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r} != {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"run.py: unknown workload {args.workload!r}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.join(ROOT, target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"run.py: benchmark died (exit {proc.returncode})")

    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("run.py: benchmark printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        sys.exit(f"run.py: unreadable result line: {e}")
    problems = schema_problems(result, spec, args.trace == 1)
    if problems:
        sys.exit("run.py: bad result line: " + "; ".join(problems))
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
