"""Repository benchmark: four seeded workloads through the public ``repro`` API.

Usage::

    python3 repobench/run.py --workload {pipeline,serve,retrieval,stream} \\
        --seed N --seconds S --trace {0,1} [--record FILE.jsonl]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  With ``--trace 0`` the last line of standard output is
the end-to-end result, measured with tracing off; with ``--trace 1`` it is
the per-layer result of a run that spends half of ``--seconds`` on untraced
passes and half on traced ones (their ratio is the tracing overhead).  The
line before it is the full record: provenance, gate checks, sample counts
and, when traced, the layer tree.  Nothing is written to disk unless
``--record`` names a file, which gets the record appended.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("pipeline", "serve", "retrieval", "stream")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"full": 7, "tiny": 2}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="pass time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for the self-tests")
    parser.add_argument("--record", help="append the full record to this JSONL file")
    return parser.parse_args(argv)


def _json_default(value):
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value)
    raise TypeError(f"cannot serialise {type(value).__name__}")


def _counters() -> dict:
    from repro.obs import snapshot

    return snapshot()["counters"]


def _snapshot(tracer) -> dict:
    return {**tracer.totals(), "counters": _counters()}


def untraced_run(workload, args, repeats: int):
    import harness

    setup_samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload.setup()
        setup_samples.append(time.perf_counter() - start)
    workload.warm_up()
    passes = harness.measure_passes(workload, args.seconds)
    gate = workload.gate(passes)
    metrics, details = harness.end_to_end(setup_samples, passes, gate)
    return metrics, details, gate, {}


def traced_run(workload, args):
    import harness
    import layers
    import tracing

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        before = _snapshot(tracer)
        setup_start = time.perf_counter()
        with tracer.span("setup"):
            workload.setup()
        setup_seconds = time.perf_counter() - setup_start
        setup_delta = layers.diff(_snapshot(tracer), before)
    finally:
        restore()
    workload.warm_up()
    half = args.seconds / 2
    untraced = harness.measure_passes(workload, half)
    traced, deltas = [], []
    restore = tracing.install(tracer)
    try:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < half:
            before = _snapshot(tracer)
            with tracer.span("pass"):
                record = workload.run_pass()
            delta = layers.diff(_snapshot(tracer), before)
            delta["ops"] = sum(record.sample_ops)
            traced.append(record)
            deltas.append(delta)
    finally:
        restore()
    passes = untraced + traced
    gate = workload.gate(passes)
    _, details = harness.end_to_end([setup_seconds], passes, gate)
    details["traced_passes"] = len(traced)
    return setup_delta, deltas, untraced, traced, tracer, gate, details


def per_layer_metrics(workload, setup_delta, deltas, untraced, traced, run_delta):
    import layers

    metrics, absent = layers.per_layer(workload.name, setup_delta, deltas, run_delta)
    plain = statistics.median(record.seconds for record in untraced)
    metrics["trace.overhead_share"] = (
        statistics.median(record.seconds for record in traced) / plain - 1.0, "fraction")
    if workload.name == "retrieval":
        overhead = statistics.median(
            statistics.median(record.samples)
            / statistics.median(record.extras["baseline_samples"])
            for record in untraced)
    else:
        overhead = 0.0
        absent["retrieval.plugin_overhead"] = "only the retrieval workload runs both paths"
    metrics["retrieval.plugin_overhead"] = (overhead, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, absent


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; run.py must sit in a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.engine import set_backend

    set_backend("numpy")
    import layers
    import workloads
    from provenance import provenance

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    start_counters = _counters()
    record = {"provenance": provenance(ROOT, args.seed, args.workload, workload.sizes),
              "trace": args.trace, "seconds": args.seconds,
              "op": workload.op, "latency_sample": workload.sample}
    if args.trace:
        setup_delta, deltas, untraced, traced, tracer, gate, details = \
            traced_run(workload, args)
    else:
        metrics, details, gate, absent = untraced_run(
            workload, args, SETUP_REPEATS[args.scale])
    end_counters = _counters()
    run_delta = layers.diff({"names": {}, "counts": {}, "counters": end_counters},
                            {"names": {}, "counts": {}, "counters": start_counters})
    moved = {name: run_delta["counters"].get(name, 0) for name in layers.MUST_STAY_ZERO
             if run_delta["counters"].get(name, 0)}
    gate.checks["resilience_counters_zero"] = not moved
    if args.trace:
        metrics, absent = per_layer_metrics(workload, setup_delta, deltas, untraced,
                                            traced, run_delta)
        record["layer_tree"] = tracer.tree()
    record.update(details=details, gate={"checks": gate.checks, **gate.details,
                                         "moved_counters": moved},
                  absent=absent)
    result = {"correct": gate.ok, "attempted": details["attempted"],
              "failed": details["failed"], "metrics": metrics}
    record["result"] = result
    line = json.dumps(record, default=_json_default, sort_keys=True)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as sink:
            sink.write(line + "\n")
    print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
