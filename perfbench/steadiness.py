#!/usr/bin/env python3
"""Steadiness of the benchmark: two independent sets of runs of one commit.

    python3 perfbench/steadiness.py

Each of the two sets runs every workload of BENCHMARK.json ten times,
each run with its own seed (set k uses seeds 1000*k+1 ... 1000*k+10),
one after the other, through run.py with --trace 0 and the run length of
BENCHMARK.json. For every workload and end-to-end metric it prints each
set's median and quartiles, the spread (quartile distance over the
median), whether the spread is within the metric's bound, and whether
the two medians differ by at most the bound in either direction (the
printed difference is signed, positive meaning set 2 is worse). It also
checks that every run is correct and that the share of failed
operations is equal in both sets. Per-run figures go to stderr.
"""
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETS = 2
RUNS = 10


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results = {}
    for s in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                seed = 1000 * (s + 1) + i + 1
                r = one_run(w, seed, seconds)
                results.setdefault((s, w), []).append(r)
                print("set %d %s seed %d: correct=%s %s" % (
                    s + 1, w, seed, r["correct"],
                    " ".join("%s=%.6g" % (k, v["value"])
                             for k, v in r["metrics"].items())),
                    file=sys.stderr, flush=True)

    ok = True
    print("| workload | metric | set | median | q1 | q3 | spread | bound | agrees |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for name, m in bounds.items():
            medians = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[(s, w)]]
                q1, med, q3, sp = spread(values)
                medians.append(med)
                if s == 0:
                    verdict = ""
                else:
                    worse = (medians[0] - med if m["better"] == "higher"
                             else med - medians[0]) / medians[0]
                    agrees = abs(worse) <= m["bound"]
                    ok = ok and agrees
                    verdict = "%s (%+.3f)" % ("yes" if agrees else "NO", worse)
                if sp > m["bound"]:
                    ok = False
                    verdict += " spread over bound"
                print("| %s | %s | %d | %.6g | %.6g | %.6g | %.3f | %.2f | %s |"
                      % (w, name, s + 1, med, q1, q3, sp, m["bound"], verdict))
        shares = [sum(r["failed"] for r in results[(s, w)]) /
                  sum(r["attempted"] for r in results[(s, w)])
                  for s in range(SETS)]
        correct = all(r["correct"] for s in range(SETS)
                      for r in results[(s, w)])
        same = shares[0] == shares[1]
        ok = ok and same and correct
        print("| %s | failed share | all | %s | | | | | %s |" % (
            w, " / ".join("%.6g" % v for v in shares),
            "equal" if same else "DIFFER")
            + ("" if correct else " (a run was not correct)"))
    print("\nsteady: %s" % ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
