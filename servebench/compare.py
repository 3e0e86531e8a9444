#!/usr/bin/env python3
"""Compares two sets of servebench results, metric by metric.

    python3 servebench/compare.py BASE.jsonl NEW.jsonl [--cross-host]

Each file holds result records as run.py appends them to
.bench_build/results.jsonl (copy that file aside after each set of runs).
For every workload and end-to-end metric it prints each side's median and
quartiles, the change of the medians, and a verdict against the metric's
bound in BENCHMARK.json: "worse" when the new median is worse by more than
the bound, "unresolved" when either side's own spread exceeds the bound.

Results are only compared when both sides ran on the same host fingerprint
(cores, CPU model, kernel ISA, build type); anything else exits 2 unless
--cross-host is given, and then every line is marked as cross-host.
"""

import argparse
import json
import os
import statistics
import sys

HOST_KEYS = ("cores", "cpu_model", "isa", "build_type")


def load(path):
    with open(path) as records:
        return [json.loads(line) for line in records if line.strip()]


def hosts(records):
    return {tuple(r["fingerprint"].get(k) for k in HOST_KEYS)
            for r in records}


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--cross-host", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    base, new = load(args.base), load(args.new)
    host_sets = hosts(base) | hosts(new)
    cross = len(host_sets) > 1
    if cross:
        print("host fingerprints differ:", file=sys.stderr)
        for host in sorted(host_sets, key=str):
            print("  " + json.dumps(dict(zip(HOST_KEYS, host))),
                  file=sys.stderr)
        if not args.cross_host:
            print("refusing to compare; pass --cross-host to override",
                  file=sys.stderr)
            return 2

    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        sides = []
        for records in (base, new):
            runs = [r["result"]["metrics"] for r in records
                    if r["workload"] == workload and r["trace"] == 0
                    and r["result"].get("correct")]
            sides.append(runs)
        if not sides[0] or not sides[1]:
            continue
        print("%s (%d base runs, %d new runs)%s" % (
            workload, len(sides[0]), len(sides[1]),
            " [cross-host]" if cross else ""))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([run[name]["value"] for run in runs])
                     for runs in sides]
            (b1, bm, b3), (n1, nm, n3) = stats
            change = (nm - bm) / bm if bm else float("nan")
            got_worse = change < -bound if metric["better"] == "higher" \
                else change > bound
            spread = max((b3 - b1) / bm if bm else 0.0,
                         (n3 - n1) / nm if nm else 0.0)
            verdict = ("unresolved" if spread > bound else
                       "worse" if got_worse else "within bound")
            worse += verdict == "worse"
            print("  %-20s base %-12.5g [%.5g, %.5g]  new %-12.5g "
                  "[%.5g, %.5g]  %+6.1f%%  %s" % (
                      name, bm, b1, b3, nm, n1, n3, 100 * change, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
