"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload explore --seeds 1-10 --seconds 15

For every metric in the final JSON line of each run this prints the
median and the interquartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), the figure a metric's bound in
BENCHMARK.json must stay well clear of.  Runs go one after another, never
in parallel, so they do not disturb each other.  Run from the checkout
root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from lazybench.stats import spread

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}"
                         for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        shown = f"{spread(series):.4f}" if len(series) >= 2 else "n/a"
        print(f"{name:40s} median={statistics.median(series):.6g} "
              f"spread={shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
