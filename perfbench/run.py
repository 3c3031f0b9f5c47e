#!/usr/bin/env python3
"""Builds and runs the xpc user-facing benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload contain_cold|sat_warm|stream_route \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the library from src/ and the
benchmark program into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs one workload under an address-space cap,
so that a blowup ends the run with the workload named instead of exhausting
the host's memory. The last line of stdout is the run's JSON result, with
the metrics BENCHMARK.json lists (end_to_end for --trace 0, per_layer for
--trace 1) and their units; a traced run also writes its spans next to the
build.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("contain_cold", "sat_warm", "stream_route")
# Seed for tuning and everyday runs. Seed 20070611 is held out: use it only
# to confirm a claim, never to tune.
DEFAULT_SEED = 1
AS_CAP_MB = 4096          # RLIMIT_AS of the benchmark process.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the xpc sources (src/) are not in this checkout; nothing to build")
    log = sys.stderr  # Keep stdout for the result.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=log, stderr=log).returncode != 0:
        fail("build failed")


def load_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def result_line(program_line, metrics, trace):
    """The program's JSON result, restricted to `metrics` and given units.

    A missing end-to-end metric makes the run incorrect; a per-layer metric
    that does not apply to the workload reads 0.
    """
    result = json.loads(program_line)
    measured = result["metrics"]
    out = {}
    for m in metrics:
        if m["name"] not in measured and not trace:
            print(f"WRONG: end-to-end metric not measured: {m['name']}")
            result["correct"] = False
        out[m["name"]] = {"value": measured.get(m["name"], 0), "unit": m["unit"]}
    result["metrics"] = out
    return json.dumps(result)


def cap_address_space():
    limit = AS_CAP_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics = load_metrics(args.trace)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              preexec_fn=cap_address_space, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s", 5)
    if proc.returncode == 3:
        fail(f"workload {args.workload} exceeded the {AS_CAP_MB} MiB address-space cap", 3)
    if proc.returncode < 0:
        fail(f"workload {args.workload} was killed by signal {-proc.returncode}", 6)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"workload {args.workload} failed with exit code {proc.returncode}", 4)
    try:
        last = result_line(lines[-1], metrics, args.trace)
    except (ValueError, KeyError):
        fail(f"workload {args.workload} printed no result", 4)
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]) + last + "\n")
    sys.exit(0 if json.loads(last)["correct"] else 1)


if __name__ == "__main__":
    main()
