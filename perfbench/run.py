#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload flow_ml|flow_route|train|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the program and the benchmark binary
from source into .bench_build/ (the first run takes a minute or two), then
runs one workload with MFA_THREADS=2. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics, holding every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer metric
(--trace 1). A per-layer metric the workload's op never produces (it makes
no call into that layer) reads 0. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("flow_ml", "flow_route", "train", "serve")
RUN_TIMEOUT_S = 175


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no program sources under {os.path.join(ROOT, 'src')}", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 3)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    env = dict(os.environ, MFA_THREADS="2")
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}", 5)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1], 6)
    with open(MANIFEST) as f:
        manifest = json.load(f)
    units = {m["name"]: m["unit"]
             for m in manifest["per_layer" if args.trace else "end_to_end"]}
    metrics = result["metrics"]
    for name, unit in units.items():
        if args.trace and name not in metrics:
            metrics[name] = {"value": 0, "unit": unit}
        if name not in metrics:
            fail(f"{args.workload} did not report {name}", 6)
        if metrics[name]["unit"] != unit:
            fail(f"{name} is in {metrics[name]['unit']}, not {unit}", 6)
    extra = sorted(set(metrics) - set(units))
    if extra:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(extra), 6)
    result["metrics"] = {name: metrics[name] for name in units}
    print("\n".join(lines[:-1] + [json.dumps(result)]))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
