#!/usr/bin/env python3
"""Steadiness check: two independent sets of runs per workload.

    python3 e2ebench/steadiness.py [--workloads tpcc-24n,ycsb-b-shift]

Runs each workload 10 times in set A (seeds 1..10) and 10 times in set B
(seeds 101..110), alternating A and B, each run through e2ebench/run.py with
--trace 0 and BENCHMARK.json's run_seconds. For every end-to-end metric it
prints both sets' median and quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median, and whether the sets agree within the metric's
bound: each spread within the bound, the two medians apart by no more than
the bound in either direction, and the same share of failed operations.
Raw results are written to .bench_build/e2ebench/steadiness/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SEED_BASE = {"A": 1, "B": 101}


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    rounds = sum(1 for line in lines if line.startswith("round:"))
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    return {"seed": seed, "rounds": rounds, "digest": digest, **result}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(metric, med_a, med_b):
    """Share by which set B's median is worse than set A's (negative: better)."""
    if metric["better"] == "lower":
        return med_b / med_a - 1.0
    return 1.0 - med_b / med_a


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    report = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    all_ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            for name, base in SEED_BASE.items():
                r = run_once(workload, base + i, seconds)
                sets[name].append(r)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                print(f"{workload} set {name} seed {r['seed']}: {r['rounds']} rounds "
                      f"{values}", flush=True)
        print(f"\n{workload}")
        print(f"  {'metric':<12} {'set':<3} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6}  verdict")
        summary = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {s: summarize([r["metrics"][name]["value"] for r in sets[s]])
                     for s in sets}
            drift = worse_by(metric, stats["A"]["median"], stats["B"]["median"])
            spread_ok = all(st["spread"] <= bound for st in stats.values())
            ok = spread_ok and abs(drift) <= bound
            all_ok &= ok
            for s, st in stats.items():
                verdict = ""
                if s == "B":
                    verdict = f"{'agree' if ok else 'DISAGREE'} (B worse by {drift:+.2%})"
                print(f"  {name:<12} {s:<3} {st['median']:>10.4f} {st['q1']:>10.4f} "
                      f"{st['q3']:>10.4f} {st['spread']:>7.2%} {bound:>6.2f}  {verdict}")
            summary[name] = {"A": stats["A"], "B": stats["B"], "worse_by": drift, "ok": ok}
        shares = {s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for s, rs in sets.items()}
        correct = all(r["correct"] for rs in sets.values() for r in rs)
        all_ok &= correct and shares["A"] == shares["B"]
        print(f"  failed share A {shares['A']:.6f} B {shares['B']:.6f}; "
              f"all runs correct: {correct}\n")
        report["workloads"][workload] = {"sets": sets, "summary": summary,
                                         "failed_share": shares, "correct": correct}

    out_dir = os.path.join(ROOT, ".bench_build", "e2ebench", "steadiness")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, time.strftime("%Y%m%d-%H%M%S") + ".json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"{'every set agrees within its bounds' if all_ok else 'SETS DISAGREE'}; "
          f"raw results in {os.path.relpath(out, ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
