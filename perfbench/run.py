#!/usr/bin/env python3
"""The repository benchmark: one command that builds the tree, runs one
workload against it, checks the outputs against an independent oracle and
prints the metrics.

    python3 perfbench/run.py --workload mcq_eval --seed 1 --seconds 10 --trace 0

Run it from the repository root. `--trace 0` prints the end-to-end metrics
of an untraced run; `--trace 1` runs the workload again with `util::trace`
on and prints the per-layer metrics instead. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The program under test runs in supervised child processes (the harness
binary for mcq_eval / decode_bound / cpt_train, the `serve` binary for
serve_chat). A child that dies is restarted and resumes (eval journal,
Trainer snapshot, fresh server); the operations it had in flight are
re-run, and the crash is reported as a restart. See README.md.
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
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing into the benchmark's directory

import workloads  # noqa: E402  (the benchmark's own module, next to this file)
from common import BUILD_DIR, RUNS_DIR, log  # noqa: E402


RUN_LIMIT_S = 160.0  # measuring, checking and restarts; a run may take 180 s


def build():
    """Configures (once) and builds the harness and `serve` from source."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no source tree next to the benchmark (src/CMakeLists.txt missing)")
        sys.exit(2)
    cmake_dir = os.path.join(BUILD_DIR, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    with open(build_log, "ab") as out:
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure + generator, stdout=out, stderr=out).returncode != 0:
                log("configure failed; see " + build_log)
                sys.exit(2)
        jobs = str(os.cpu_count() or 1)
        cmd = ["cmake", "--build", cmake_dir, "-j", jobs, "--target", "perfbench_harness", "serve"]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            log("build failed; see " + build_log)
            sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    workloads.RUN_DEADLINE[0] = time.time() + RUN_LIMIT_S
    state = os.path.join(RUNS_DIR, "%s-%d-%d" % (args.workload, os.getpid(), int(time.time())))
    os.makedirs(state)
    try:
        if args.trace:
            result = workloads.traced_run(args.workload, args.seed, args.seconds, state)
        else:
            result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, state, False)
    finally:
        shutil.rmtree(state, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    measured = result.layer if args.trace else result.e2e
    unmeasured = result.unmeasured_layers if args.trace else result.unmeasured
    metrics = {}
    for spec in declared:
        if spec["name"] in measured:
            metrics[spec["name"]] = (measured[spec["name"]][0], spec["unit"])
        else:
            unmeasured.append("metric %s" % spec["name"])
    for what in unmeasured:
        result.check(False, "not measured: " + what)

    print("workload %s: attempted=%d failed=%d restarts=%d lost_in_flight=%d correct=%s"
          % (args.workload, result.attempted, result.failed, result.restarts, result.lost,
             result.correct))
    for problem in result.problems:
        print("  check failed: " + problem)
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("  %-40s %14.6g %s" % (name, value, unit))
    for line in result.notes:
        print("  " + line)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    sys.stdout.flush()
    sys.exit(0 if result.correct else 1)


if __name__ == "__main__":
    main()
