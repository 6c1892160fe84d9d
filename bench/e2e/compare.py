#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py BASE NEW

BASE and NEW are result files written by run.py, or directories holding
them. For every workload and gated metric it prints each set's median and
quartiles and a verdict:

  within      the medians differ by no more than the metric's bound
  worse       NEW's median is worse than BASE's by more than the bound
  better      NEW's median is better than BASE's by more than the bound
  unresolved  a set's spread (IQR / median) is wider than the bound and
              the runs do not separate (every NEW run better, or every
              NEW run worse, than every BASE run)

Bounds and directions come from BENCHMARK.json's end_to_end list, plus
recovery_s, which only the durable workload reports. Per-layer metrics of
traced runs are listed without a verdict.

Exit status: 1 on a regression or a run that failed a correctness gate,
2 when the sets cannot be compared (smoke results, different boxes or
build types, no common runs), 0 otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BOX_KEYS = ["nproc", "numa_nodes", "cpu_model", "compiler", "build_type"]
# Gated here but not in BENCHMARK.json, whose end-to-end metrics must exist
# on every workload.
EXTRA_GATES = [{"name": "recovery_s", "better": "lower", "bound": 0.1,
                "workloads": ["ycsb-durable-100k"]}]


class Refused(Exception):
    pass


def load_set(path):
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    runs, box = [], None
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if doc.get("schema") != "quecc-e2e-v1":
            continue  # e.g. a Chrome trace beside the results
        if doc.get("smoke"):
            raise Refused(f"{f} holds smoke results, which are not "
                          "comparable")
        key = {k: doc["box"].get(k) for k in BOX_KEYS}
        if box is not None and key != box:
            raise Refused(f"{f} ran on another box than the rest of its set")
        box = key
        runs.extend(doc["runs"])
    if not runs:
        raise Refused(f"no result files under {path}")
    return runs, box


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base, new, better, bound):
    bmed, bq1, bq3 = summary(base)
    nmed, nq1, nq3 = summary(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nmed - bmed) / bmed if bmed else 0.0
    spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                 (nq3 - nq1) / nmed if nmed else 0.0)
    if spread > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better", worse_by
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "within", worse_by


def fmt(values):
    med, q1, q3 = summary(values)
    return f"{med:12.6g} [{q1:.4g}, {q3:.4g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        base, base_box = load_set(args.base)
        new, new_box = load_set(args.new)
        if base_box != new_box:
            raise Refused(f"different boxes or builds: {base_box} vs "
                          f"{new_box}")
    except Refused as e:
        print(f"compare.py: refused: {e}", file=sys.stderr)
        return 2

    status = 0
    for side, runs in (("BASE", base), ("NEW", new)):
        for r in runs:
            if not r["correct"]:
                print(f"{side} {r['workload']} seed {r['seed']}: failed "
                      f"its correctness gates {r['gates']}")
                status = 1

    gates = [dict(m, workloads=None) for m in spec["end_to_end"]]
    gates += EXTRA_GATES
    layer_names = [m["name"] for m in spec["per_layer"]]
    workloads = sorted({r["workload"] for r in base} &
                       {r["workload"] for r in new})
    if not workloads:
        print("compare.py: refused: no workload in common", file=sys.stderr)
        return 2

    print(f"{'workload':18} {'metric':34} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'worse by':>9} {'bound':>6}  verdict")
    for w in workloads:
        def values(runs, name, traced):
            return [r["metrics"][name]["value"] for r in runs
                    if r["workload"] == w and r["trace"] == traced
                    and name in r["metrics"]]
        for g in gates:
            if g["workloads"] is not None and w not in g["workloads"]:
                continue
            b, n = values(base, g["name"], False), values(new, g["name"], False)
            if not b or not n:
                continue
            v, by = verdict(b, n, g["better"], g["bound"])
            if v == "worse":
                status = 1
            print(f"{w:18} {g['name']:34} {fmt(b):>32} {fmt(n):>32} "
                  f"{by:+9.2%} {g['bound']:6.0%}  {v}")
        for name in layer_names:
            b, n = values(base, name, True), values(new, name, True)
            if b and n:
                print(f"{w:18} {name:34} {fmt(b):>32} {fmt(n):>32} "
                      f"{'':9} {'':6}  info")
    return status


if __name__ == "__main__":
    sys.exit(main())
