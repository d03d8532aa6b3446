#!/usr/bin/env python3
"""Builds the benchmark programs from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Each call configures and builds perfbench/
(and with it the simulator sources under src/) into .bench_build/; only the
first call compiles everything. It then runs the self-tests of the
benchmark's arithmetic, then perfbench itself, and with --trace 1 the allocation
census too. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; README.md beside this file defines
every metric. Exits non-zero without that line when the build, a self-test,
a program or the metric set fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
# A run must end within 180 s of its start, build excluded.
RUN_BUDGET_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_program(name, args, deadline):
    """Runs a built program, echoes its stdout but the last line, and
    returns that last line parsed as the JSON result."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([os.path.join(BUILD_DIR, name), *args],
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def check_metric_set(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong_unit = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}, "
                           f"extra {extra}, wrong unit {wrong_unit}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                                  timeout=60)
        if selftest.returncode != 0:
            raise RuntimeError("self-tests of the benchmark arithmetic failed")
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = run_program("perfbench", run_args, deadline)
        if args.trace:
            census = run_program("perfbench_alloc", common, deadline)
            result["metrics"].update(census["metrics"])
            result["attempted"] += census["attempted"]
            result["failed"] += census["failed"]
            result["correct"] = result["correct"] and census["correct"]
        check_metric_set(result, args.trace)
    except (OSError, KeyError, ValueError, RuntimeError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
