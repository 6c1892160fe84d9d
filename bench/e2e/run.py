#!/usr/bin/env python3
"""End-to-end benchmark of the queue-oriented engine.

Builds bench/e2e (Release) into build-bench/, runs each workload in its own
quecc_bench process, prints every metric as `workload metric value unit`,
and writes one JSON result file. The last line of standard output is a JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics (the traced run also writes trace-<workload>.json).

    python3 bench/e2e/run.py                          # all four workloads
    python3 bench/e2e/run.py --workload ycsb-hot --seed 7 --seconds 10
    python3 bench/e2e/run.py --trace                  # per-layer metrics
    python3 bench/e2e/run.py --smoke                  # all four in seconds
    python3 bench/e2e/run.py --seed 3 --out set-a/seed-3.json

Exits non-zero when the build fails, a run fails, or a correctness gate
(serial replay hash and outcomes, recovery hash) fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["ycsb-hot", "tpcc-full-spec", "tpcc-full-cons",
             "ycsb-durable-100k"]
# Printed beside the end-to-end metrics but not listed in BENCHMARK.json,
# whose end-to-end metrics must be nonzero on every workload: recovery_s
# exists only on the durable workload, failed_frac is 0 on a correct run,
# and p99 is too noisy to gate.
EXTRA_E2E = ["e2e_p99_ms", "recovery_s", "failed_frac"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "quecc_bench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "quecc_bench")


def read_file(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def box_extras():
    cpu = "unknown"
    for line in read_file("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"cpu_model": cpu, "git_sha": sha}


def run_one(exe, args, workload, seed, work_dir, trace_out):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--trace-out", trace_out]
    if args.smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = p.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload}: quecc_bench exited {p.returncode} without a result")
        return None
    if p.returncode != 0 and doc.get("correct", False):
        log(f"{workload}: quecc_bench exited {p.returncode}")
        return None
    return doc


def contract(spec, trace):
    """Metrics of the final result line: end-to-end, or per-layer when
    traced."""
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    spec = json.loads(read_file(os.path.join(ROOT, "BENCHMARK.json")) or "{}")
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all, in order)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured phase length (default: BENCHMARK.json "
                         "run_seconds; 1 with --smoke)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="report per-layer metrics from a "
                    "traced phase and write Chrome traces")
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken sizes, same code paths and gates")
    ap.add_argument("--out", help="result file (default: "
                    "build-bench/results/e2e-<time>.json)")
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build-bench"))
    args = ap.parse_args()
    if not spec:
        log("BENCHMARK.json not found at the repository root")
        return 2
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])

    try:
        exe = build(args.build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    out = args.out or os.path.join(
        args.build_dir, "results", time.strftime("e2e-%Y%m%d-%H%M%S.json"))
    out_dir = os.path.dirname(os.path.abspath(out))
    work_dir = os.path.join(args.build_dir, "work")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)

    required = contract(spec, args.trace)
    # Every run measures the end-to-end metrics and the registry-based
    # per-layer ones; self times need the traced phase.
    printed = list(dict.fromkeys(contract(spec, False) + EXTRA_E2E +
                                 contract(spec, True)))
    workloads = [args.workload] if args.workload else WORKLOADS
    runs, box = [], None
    ok = True
    for w in workloads:
        doc = run_one(exe, args, w, args.seed, work_dir,
                      os.path.join(out_dir, f"trace-{w}.json"))
        if doc is None:
            return 1
        box = box or dict(doc.pop("box"), **box_extras())
        doc.pop("box", None)
        runs.append(doc)
        missing = [n for n in required if n not in doc["metrics"]]
        if missing:
            log(f"{w}: metrics missing from the result: {missing}")
            return 1
        for n in printed:
            if n in doc["metrics"]:
                m = doc["metrics"][n]
                print(f"{w} {n} {m['value']:.6g} {m['unit']}", flush=True)
        if not doc["correct"]:
            log(f"{w} seed {args.seed}: correctness gate failed: "
                f"{doc['gates']} hashes {doc['hashes']}")
            ok = False

    box["seed"] = args.seed
    with open(out, "w") as f:
        json.dump({"schema": "quecc-e2e-v1", "smoke": args.smoke,
                   "trace": bool(args.trace), "box": box, "runs": runs},
                  f, indent=1)
        f.write("\n")
    log(f"results: {out}")

    prefix = len(runs) > 1
    print(json.dumps({
        "correct": ok,
        "attempted": sum(d["attempted"] for d in runs),
        "failed": sum(d["failed"] for d in runs),
        "metrics": {(f"{d['workload']}/{n}" if prefix else n):
                    d["metrics"][n] for d in runs for n in required},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
