#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the repository root.

    python3 perfbench/check.py determinism [--workload W] [--seed N]
        Runs each workload twice with the same seed, untraced and
        traced, and fails unless every modeled metric and every
        per-layer count is bit-identical across the two runs.

    python3 perfbench/check.py spread [--workload W] [--seeds 1-10]
        Runs each workload once per seed, untraced, and prints for every
        end-to-end metric the median and the interquartile range as a
        share of the median, next to the bound in BENCHMARK.json (the
        spread should stay below a third of it).

Runs are sequential: concurrent runs would disturb each other's host
timings.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]
BENCH = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
SECONDS = str(BENCH["run_seconds"])

# Modeled (fabric-clock) end-to-end metrics and the per-layer metrics
# that are counts or ratios of counts: a pure function of the seed.
MODELED = {"fabric_ns_per_op", "fabric_nj_per_op", "critical_ns_per_op",
           "gpu_time_ratio"}
COUNT_UNITS = {"count", "1/op"}
COUNT_RATIOS = {"service.coalesce_ratio", "core.planned_frac",
                "core.plan_programs_per_epoch", "core.plan_lead_frac",
                "uprog.progcache_hit_rate", "virt.route_exact_frac",
                "virt.route_sketch_frac", "fabric.skew"}


def run(workload, seed, trace):
    out = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                                "--seconds", SECONDS, "--trace", str(trace)],
                         stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        sys.exit("run failed: %s seed %s trace %s\n%s"
                 % (workload, seed, trace, out.stdout))
    return json.loads(lines[-1])


def deterministic(name, metric):
    return (name in MODELED or name in COUNT_RATIOS
            or metric["unit"] in COUNT_UNITS
            or (name.startswith("fabric.") and name.endswith("_ns_per_op")))


def determinism(workloads, seed):
    ok = True
    for w in workloads:
        for trace in (0, 1):
            a, b = run(w, seed, trace), run(w, seed, trace)
            names = [n for n, m in a["metrics"].items() if deterministic(n, m)]
            same = [n for n in names
                    if a["metrics"][n]["value"] == b["metrics"][n]["value"]]
            same_io = (a["attempted"], a["failed"]) == (b["attempted"],
                                                        b["failed"])
            print("%-22s trace %d: %d/%d deterministic metrics identical, "
                  "attempted/failed %s"
                  % (w, trace, len(same), len(names),
                     "identical" if same_io else "DIFFER"))
            for n in sorted(set(names) - set(same)):
                print("  DIFFERS %s: %r vs %r" % (n, a["metrics"][n]["value"],
                                                 b["metrics"][n]["value"]))
            ok = ok and same_io and len(same) == len(names)
    return ok


def spread(workloads, seeds):
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    ok = True
    for w in workloads:
        runs = [run(w, s, 0) for s in seeds]
        print("%s over seeds %s (correct: %s)"
              % (w, seeds, all(r["correct"] for r in runs)))
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and iqr > bound / 3:
                flag = "  > bound/3"
                ok = False
            print("  %-20s median %14.6g  iqr/median %.4f  bound %s%s"
                  % (name, med, iqr, bound, flag))
    return ok


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["determinism", "spread"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in BENCH["workloads"]]
    ok = (determinism(workloads, args.seed) if args.mode == "determinism"
          else spread(workloads, args.seeds))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
