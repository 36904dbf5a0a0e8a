#!/usr/bin/env python3
"""Steadiness check and baseline recorder for the perfbench benchmark.

Runs the benchmark binary once per seed on each workload, then reports
for every end-to-end metric the median over seeds and the spread: the
distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median. A spread
at or above a third of the metric's bound in BENCHMARK.json is flagged.

Usage, from the repository root, after building the benchmark with
`cargo build --release --offline --manifest-path perfbench/Cargo.toml`:

    python3 perfbench/steadiness.py --seeds 101 102 103 104 105 \
        [--workloads probe campaign] [--binary perfbench/target/release/perfbench] \
        [--baseline perfbench/baseline.json --commit <id>]

With `--baseline`, the medians, spreads, per-seed values and sample
counts are written there as the benchmark's recorded baseline for
`--commit`. With `--compare FILE`, each median is also compared with
the one recorded in FILE, and a median worse than it by more than the
metric's bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    ap.add_argument("--binary", default=os.path.join(target, "release", "perfbench"))
    ap.add_argument("--baseline")
    ap.add_argument("--commit", default="unknown")
    ap.add_argument("--compare")
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("need at least two seeds for a spread")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    previous = None
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)["workloads"]
    baseline = {"commit": args.commit, "nproc": os.cpu_count(),
                "run_seconds": bench["run_seconds"], "seeds": args.seeds,
                "workloads": {}}
    steady = True
    for w in args.workloads:
        results = []
        for seed in args.seeds:
            r = run_once(args.binary, w, seed, bench["run_seconds"])
            results.append(r)
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", file=sys.stderr)
        entry = {"runs": len(results),
                 "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            s = spread(values)
            flag = "" if s < bound / 3 else "  <-- not steady"
            if previous is not None and w in previous:
                before = previous[w]["metrics"][name]["median"]
                worse = (med / before - 1) if better[name] == "lower" else (1 - med / before)
                flag += f"  vs {before:.6g}: {worse:+.4f} worse"
                if worse > bound:
                    flag += "  <-- beyond bound"
            if "<--" in flag:
                steady = False
            print(f"{w:11} {name:14} median {med:14.6g} "
                  f"spread {s:.4f} (bound {bound}){flag}")
            entry["metrics"][name] = {
                "median": med,
                "spread": s,
                "samples": len(values),
                "unit": results[0]["metrics"][name]["unit"],
                "values": values,
            }
        baseline["workloads"][w] = entry
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
