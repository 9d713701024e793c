"""Render the layer tree of a traced benchmark run.

Usage::

    python3 repobench/run.py --workload serve --seed 1 --seconds 10 --trace 1 \\
        --record /tmp/serve.jsonl
    python3 repobench/tree.py /tmp/serve.jsonl

Each row shows a span's calls, inclusive time and self time.  Under every
root the self times sum to the root's wall-clock; the renderer checks that
and prints the residual.
"""

from __future__ import annotations

import argparse
import json
import sys


def root_sums(rows: list) -> dict:
    """``{root: (root inclusive seconds, sum of self seconds under it)}``."""
    sums = {}
    for row in rows:
        root = row["path"][0]
        inclusive, total = sums.get(root, (0.0, 0.0))
        if len(row["path"]) == 1:
            inclusive = row["inclusive_s"]
        sums[root] = (inclusive, total + row["self_s"])
    return sums


def render(rows: list) -> str:
    width = max((2 * (len(row["path"]) - 1) + len(row["path"][-1]) for row in rows),
                default=4)
    lines = [f"{'span':<{width}}  {'calls':>7}  {'incl s':>10}  {'self s':>10}"]
    for row in rows:
        label = "  " * (len(row["path"]) - 1) + row["path"][-1]
        lines.append(f"{label:<{width}}  {row['calls']:>7}  "
                     f"{row['inclusive_s']:>10.4f}  {row['self_s']:>10.4f}")
    for root, (inclusive, total) in root_sums(rows).items():
        lines.append(f"{root}: wall {inclusive:.6f} s, self sum {total:.6f} s, "
                     f"residual {total - inclusive:+.2e} s")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("record", help="JSONL file written by run.py --record, or -")
    args = parser.parse_args(argv)
    stream = sys.stdin if args.record == "-" else open(args.record, encoding="utf-8")
    with stream:
        records = [json.loads(line) for line in stream if line.strip()]
    traced = [record for record in records if record.get("layer_tree")]
    if not traced:
        print("no traced run in the input (run with --trace 1)", file=sys.stderr)
        return 1
    for record in traced:
        print(f"== {record['provenance']['workload']} "
              f"(seed {record['provenance']['seed']})")
        print(render(record["layer_tree"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
