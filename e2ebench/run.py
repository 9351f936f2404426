#!/usr/bin/env python3
"""Build the simulator benchmark and run one workload.

    python3 e2ebench/run.py --workload tpcc-24n --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload tpcc-24n --seed 1 --seconds 30 --trace 1
    python3 e2ebench/run.py --selftest

Builds e2ebench/ (and the simulator library from src/) under .bench_build/
in the checkout, then runs the driver. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured untraced: whole rounds of
the workload, one process each, for about --seconds, and the median of each
metric over the rounds. --trace 1 runs one untraced round and one traced round
(spans and allocation counts), reports the per-layer metrics plus the
traced-minus-untraced difference of each end-to-end metric, and writes the
spans to .bench_build/e2ebench/traces/. Exits non-zero when an output check
fails or the benchmark cannot be built.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
END_TO_END = ("wall_s", "setup_s", "sim_rate", "peak_rss_mb")


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # One build at a time per checkout.
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", jobs]):
            subprocess.run(cmd, stdout=sys.stderr, check=True)


def run_driver(binary, args):
    """Runs a driver binary, echoes its output and returns (code, result, digest)."""
    proc = subprocess.run([os.path.join(BUILD, binary)] + args,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    digest = None
    for line in lines[:-1]:
        print(line, flush=True)
        if line.startswith("digest "):
            digest = line.split()[1]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1], flush=True)
    return proc.returncode, result, digest


def measure(common, seconds):
    """Untraced rounds, one process each, until about `seconds` have passed."""
    rounds = []
    t0 = time.monotonic()
    while True:
        code, result, digest = run_driver("e2ebench", common)
        if result is None:
            return code or 1
        rounds.append((code, result, digest))
        elapsed = time.monotonic() - t0
        # Stop before a round that would end past the measuring time.
        if elapsed + elapsed / len(rounds) > seconds:
            break
    correct = all(code == 0 and r["correct"] for code, r, _ in rounds)
    if len({d for _, _, d in rounds}) != 1:
        print("CHECK FAILED: digest differs between rounds of one seed")
        correct = False
    metrics = {}
    for name, first in rounds[0][1]["metrics"].items():
        values = [r["metrics"][name]["value"] for _, r, _ in rounds]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for _, r, _ in rounds),
                      "failed": sum(r["failed"] for _, r, _ in rounds),
                      "metrics": metrics}))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "e2ebench"), "--selftest",
                               "--seed", str(args.seed)]).returncode

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace == 0:
        return measure(common, args.seconds)

    code_u, untraced, digest_u = run_driver("e2ebench", common)
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
    code_t, traced, digest_t = run_driver("e2ebench_traced",
                                          common + ["--trace-out", trace_out])
    if untraced is None or traced is None:
        return 1
    correct = untraced["correct"] and traced["correct"] and code_u == 0 and code_t == 0
    if digest_u is None or digest_u != digest_t:
        print(f"CHECK FAILED: traced digest {digest_t} != untraced digest {digest_u}")
        correct = False
    metrics = {k: v for k, v in traced["metrics"].items() if k not in END_TO_END}
    for name in END_TO_END:
        t, u = traced["metrics"][name], untraced["metrics"][name]
        metrics["trace.overhead_" + name] = {"value": t["value"] - u["value"],
                                             "unit": t["unit"]}
    print(f"spans written to {os.path.relpath(trace_out, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": traced["attempted"],
                      "failed": traced["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
