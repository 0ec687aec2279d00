#!/usr/bin/env python3
"""End-to-end benchmark of the engine: builds the benchmark program from
this source tree, runs one workload and prints every metric, then the
result object as the last line of standard output.

    python3 perfbench/run.py --workload pingpong_small --seed 1 \
        --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (a metric that does not apply to the workload reads 0 and is
marked n/a). The exit status is 0 when every request completed with the
expected bytes, 1 when verification failed, and 2 when the benchmark could
not run (missing sources, failed build, timeout, malformed output); no
result object is printed in that last case.

The build goes to .bench_build/perfbench under the repository root.
"""
import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "nmad_perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175  # the whole run, build excluded


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds incrementally; a lock serialises
    concurrent runs in one checkout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "nmad", "core",
                                       "core.hpp")):
        fail(f"engine sources not found under {ROOT}/src")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", BUILD_DIR, "-j", jobs]]
        if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps = steps[1:]
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")


def source_digest():
    """sha256 over the engine and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, declared, trace):
    """The program's result must name exactly the declared metrics (the
    per-layer ones it does not measure are filled in as n/a)."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result object")
    metrics = result["metrics"]
    unknown = set(metrics) - set(declared)
    if unknown:
        fail(f"undeclared metrics: {sorted(unknown)}")
    for name, unit in declared.items():
        if name not in metrics:
            if not trace:
                fail(f"end-to-end metric {name} missing")
            metrics[name] = {"value": 0, "unit": unit}
            print(f"metric {name:28s} n/a on this workload")
        elif metrics[name]["unit"] != unit:
            fail(f"{name}: unit {metrics[name]['unit']}, declared {unit}")
    result["metrics"] = {name: metrics[name] for name in declared}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = load_spec()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject-corrupt", action="store_true",
                        help="self-check: corrupt one expected payload, so "
                             "the run must fail verification")
    args = parser.parse_args()

    build()
    declared = declared_metrics(spec, args.trace)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject_corrupt:
        command.append("--inject-corrupt")
    start = time.monotonic()
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"benchmark program exited with {done.returncode}")

    provenance = {"git_sha": git_sha(), "source_sha256": source_digest(),
                  "host": platform.node(), "machine": platform.machine(),
                  "nproc": os.cpu_count(),
                  "wall_s": round(time.monotonic() - start, 3)}
    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance.update(json.loads(line[len("provenance "):]))
        else:
            print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line of the program is not a result object")
    check_result(result, declared, args.trace)
    if (done.returncode == 0) != result["correct"]:
        fail("exit status and result disagree")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
