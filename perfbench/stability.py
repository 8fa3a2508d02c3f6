#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 perfbench/stability.py --workloads serve_steady paper_sweep --seeds 1-10

Runs perfbench/run.py once per (workload, seed) with tracing off and, per
end-to-end metric, prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, next to the metric's bound from BENCHMARK.json. A spread
over a third of the bound is flagged. Also prints each run's wall time.
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


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    worst = 0.0
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        walls = []
        for seed in args.seeds:
            start = time.monotonic()
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                cwd=ROOT)
            walls.append(time.monotonic() - start)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{run.stdout}"
                         f"{run.stderr}")
            result = json.loads(run.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload}: run wall s " +
              " ".join(f"{w:.1f}" for w in walls))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "  WIDE" if spread > m["bound"] / 3 else ""
            worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:28s} median {med:14.6g}  spread "
                  f"{spread:7.4f}  bound {m['bound']}{flag}")
            if args.verbose:
                print("    " + " ".join(f"{x:.6g}" for x in v))
    print(f"largest spread as a share of its bound: {worst:.3f}")


if __name__ == "__main__":
    main()
