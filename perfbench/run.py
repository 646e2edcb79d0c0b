#!/usr/bin/env python3
"""Builds the gerel end-to-end benchmark from source and runs one workload.

Run from the root of a gerel checkout:

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0

Workloads: serve-read, serve-mixed, prepare-corpus (see WORKLOADS.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run (spans go to <build>/traces/). --self-check corrupts
one reference answer; the run must then fail.

The last stdout line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Earlier lines carry the host fingerprint and the full report (every metric
with its unit and sample count). The exit code is non-zero when an answer
is wrong, the model drifts, or the build fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-read", "serve-mixed", "prepare-corpus")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no gerel sources (src/CMakeLists.txt) next to perfbench/")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "gerel_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "gerel_perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        return 2

    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", "--trace-out=" + os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    if args.self_check:
        cmd.append("--corrupt-reference")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        log(f"no result (exit {done.returncode})")
        return done.returncode or 2

    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    names = declared_metrics(root, args.trace)
    if sorted(result["metrics"]) != sorted(names) or not all(
            math.isfinite(m["value"]) for m in result["metrics"].values()):
        log("metrics differ from BENCHMARK.json: " +
            ", ".join(sorted(set(result["metrics"]) ^ set(names))))
        return 3
    report["host"] = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": report.pop("build_type"),
        "compiler": report.pop("compiler"),
        "git_commit": git_commit(root),
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    sys.stdout.flush()
    if args.self_check and done.returncode == 0:
        log("self-check: the corrupted reference was not detected")
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
