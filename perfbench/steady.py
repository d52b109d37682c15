#!/usr/bin/env python3
"""Steadiness mode: repeats each workload with consecutive seeds and reports,
per end-to-end metric, the median, the quartiles and the spread (Q3 - Q1 over
the median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workloads mcq_eval,serve_chat]
                                [--seconds 15] [--first-seed 1]

A spread above its bound (setup_s excepted, whose bound limits the median
only) makes the exit code 1, as does a run that fails or reports incorrect
results, or a failed-operation share that differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            try:
                row = json.loads(lines[-1])
            except (IndexError, ValueError):
                row = None
            if out.returncode != 0 or row is None or not row["correct"]:
                print("%s seed %d: run failed (exit %d)" % (workload, seed, out.returncode))
                ok = False
                continue
            for line in lines:
                if line.startswith("workload "):
                    fields = dict(f.split("=") for f in line.split()[2:] if "=" in f)
                    row["restarts"] = int(fields.get("restarts", 0))
                    row["lost"] = int(fields.get("lost_in_flight", 0))
            rows.append(row)
            sys.stdout.write("%s seed %d: %s\n" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in sorted(row["metrics"].items()))))
            sys.stdout.flush()
        if len(rows) < 2:
            continue
        shares = {row["failed"] / row["attempted"] for row in rows}
        if len(shares) > 1:
            print("%s: failed share differs between runs: %s" % (workload, sorted(shares)))
            ok = False
        print("%s: %d runs, failed share %s, restarts per run %s, lost in flight per run %s"
              % (workload, len(rows), sorted(shares), [r.get("restarts") for r in rows],
                 [r.get("lost") for r in rows]))
        print("  %-20s %12s %12s %12s %8s %6s %s" % ("metric", "median", "q1", "q3",
                                                    "spread", "bound", "spread/bound"))
        for name in sorted(rows[0]["metrics"]):
            values = [row["metrics"][name]["value"] for row in rows]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0.0)
            print("  %-20s %12.5g %12.5g %12.5g %8.3f %6.2f %.2f" % (
                name, med, q1, q3, spread, bound, spread / bound if bound else 0.0))
            if name != "setup_s" and spread > bound:
                ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
