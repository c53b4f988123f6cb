#!/usr/bin/env python3
"""Build and run the MTBase benchmark.

    python3 mtbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds mtbench/ (a CMake package
that compiles ../src) into $CARGO_TARGET_DIR, or .bench_build when unset,
then runs one workload. The mtbench program's own output (configuration,
every metric by name and unit, errors) passes through; the last line of
stdout is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. A per-layer metric of a layer the
workload does not exercise reports 0. Exits 1 without a result when the
build or the run fails, and 1 after the result when a correctness check
or work-count invariant failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("mtbench: " + message, file=sys.stderr)
    sys.exit(1)


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(cpus())],
    ]
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "mtbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    binary = build()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out_dir", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    measured = {}
    result = None
    print("config git_sha " + git_sha())
    for line in proc.stdout.splitlines():
        print(line)
        fields = line.split()
        if len(fields) == 5 and fields[0] == "metric":
            measured[fields[1]] = (float(fields[2]), fields[3])
        elif line.startswith("result "):
            result = json.loads(line[len("result "):])
    if result is None:
        fail("the run ended without a result (exit code %d)" %
             proc.returncode)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(measured) - names)
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    for m in listed:
        value, unit = measured.get(m["name"], (None, m["unit"]))
        if value is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            value = 0.0  # the workload does no work in this layer
        if unit != m["unit"]:
            fail("%s measured in %s, listed in %s" % (m["name"], unit,
                                                     m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    result["metrics"] = metrics
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
