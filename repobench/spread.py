"""Run one workload over several seeds and report each metric's spread.

Usage::

    python3 repobench/spread.py --workload serve --seeds 1 2 3 4 5 [--seconds S]

Each seed is one untraced ``run.py`` process, run one after another.  For
every end-to-end metric the tool prints the median of the per-seed values, the
interquartile range (``statistics.quantiles(values, n=4)``) as a share of that
median, and the metric's bound from ``BENCHMARK.json`` beside it.  A spread
below a third of its bound is the steadiness target.  Repeating a seed
(``--seeds 1 1 1 1 1``) separates the machine's noise from seed-dependent work.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list) -> tuple[float, float]:
    """``(median, interquartile range / median)`` of a list of values."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def run_seed(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if completed.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {completed.returncode}:\n"
                           f"{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[entry["name"] for entry in config["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {entry["name"]: entry.get("bound") for entry in config["end_to_end"]}
    runs = []
    for seed in args.seeds:
        result = run_seed(args.workload, seed, args.seconds)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    print(f"{args.workload}: {len(runs)} seeds, {args.seconds} s each")
    print(f"{'metric':<28} {'median':>14} {'IQR/median':>11} {'bound':>7} {'share of bound':>15}")
    worst = 0.0
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median, share = spread(values) if len(values) > 1 else (values[0], 0.0)
        bound = bounds.get(name)
        ratio = share / bound if bound else None
        if ratio is not None:
            worst = max(worst, ratio)
        print(f"{name:<28} {median:>14.6g} {share:>11.4f} "
              f"{bound if bound is not None else '-':>7} "
              f"{ratio if ratio is not None else '-':>15.4}")
    correct = all(run["correct"] for run in runs)
    print(f"all correct: {correct}; widest spread is {worst:.2f} of its bound")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
