"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py WORKLOAD [--seeds 1,2,...] [--seconds 32] [--trace 0|1]

Run from the root of a checkout.  Prints one line per run, then for every
metric the median over the runs and the distance between the first and
third quartiles as a share of the median, as ``statistics.quantiles(n=4)``
gives them.  These are the reference figures in README.md; the bounds in
BENCHMARK.json come from them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", default="32")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)
    values, shares = {}, set()
    for seed in args.seeds.split(","):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload,
             "--seed", seed, "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(res["failed"] / res["attempted"])
        print(f"seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in res["metrics"].items()), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k}: median {med:.4g}, quartile spread {spread:.4f}")
    print(f"failed shares: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
