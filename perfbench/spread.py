#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed, then prints, for every metric, the
median of the runs and the distance between the first and third
quartile as a share of that median (``statistics.quantiles(n=4)``),
next to the metric's bound from BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/spread.py --workload city-3025 --seeds 1-10
    python3 perfbench/spread.py --workload fleet-surge --seeds 1-5 --bin <path>

Without ``--bin`` each run goes through the command in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin", help="a built perfbench binary to run directly")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    command = [args.bin] if args.bin else bench["command"]
    values = {}
    for seed in seeds_of(args.seeds):
        run = subprocess.run(
            command
            + ["--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<28} median {med:<14.6g} spread {spread:7.4f}"
              + (f"  bound {bound}  ({spread / bound:.2f} of it)" if bound else ""))


if __name__ == "__main__":
    main()
