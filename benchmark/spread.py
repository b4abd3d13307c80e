#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, measured the way the driver does.

Runs the command of BENCHMARK.json `--runs` times on each workload, each time
with another `--seed`, and prints for every end-to-end metric the median and
the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound. `--sets 2` repeats the whole thing and also prints how much
worse the second set's median is than the first's.

    python3 benchmark/spread.py                       # 10 runs x 6 workloads, ~20 min
    python3 benchmark/spread.py --workloads ycsb_cold --runs 5

Run it from the checkout root, on an otherwise idle machine.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in spec["workloads"]]

    medians = []
    for s in range(args.sets):
        medians.append({})
        for workload in workloads:
            seeds = [args.seed_base + 100 * s + i for i in range(args.runs)]
            runs = [run(spec["command"], workload, seed, spec["run_seconds"], args.trace) for seed in seeds]
            for metric in metrics:
                values = [r[metric["name"]] for r in runs]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
                spread = (q3 - q1) / abs(median) if median else 0.0
                medians[s][(workload, metric["name"])] = median
                line = f"set {s} {workload:22} {metric['name']:36} median {median:14.6g} {metric['unit']:6} spread {spread:7.2%}"
                if "bound" in metric:
                    line += f"  bound {metric['bound']:.0%}" + ("" if spread <= metric["bound"] / 3 else "  > bound/3")
                if s > 0:
                    first = medians[0][(workload, metric["name"])]
                    worse = (median - first) / first if metric["better"] == "lower" else (first - median) / first
                    line += f"  vs set 0 {worse:+.2%} worse"
                print(line, flush=True)


if __name__ == "__main__":
    main()
