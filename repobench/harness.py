"""Timing loop and metric arithmetic shared by every workload.

A workload object exposes:

* ``name`` and ``sizes`` (a dict recorded in provenance);
* ``setup()`` — everything a user pays before the first op; called several
  times so ``setup_s`` is a median, the objects of the last call are kept;
* ``warm_up()`` — untimed work that fills lazy caches before the first pass;
* ``run_pass()`` — one fixed amount of seeded work, returning a :class:`Pass`;
* ``gate(passes)`` — checks the answers of every pass and returns a
  :class:`Gate`;
* ``op`` / ``sample`` — what one op and one latency sample are;
* ``min_passes`` / ``max_passes`` — limits on the passes of one run.

Failed ops count against ops attempted and read as infinitely slow in every
latency figure.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

#: Fewest samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: What a latency figure reads when it lands on a failed op.  JSON has no
#: infinity, so the largest finite float stands in for it.
FAILED_LATENCY = sys.float_info.max


@dataclass
class Pass:
    """One timed pass: its wall-clock, its ops and its latency samples."""

    seconds: float
    samples: list  # per-sample latency, seconds
    sample_ops: list  # ops carried by each sample
    answers: object = None
    extras: dict = field(default_factory=dict)


@dataclass
class Gate:
    """Outcome of a workload's correctness gate."""

    failed_samples: dict  # pass index -> set of failed sample positions
    checks: dict  # check name -> bool
    hr10: float
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values()) and not any(self.failed_samples.values())


def tail(per_pass: list) -> dict:
    """Highest percentile with at least :data:`TAIL_BEYOND` samples beyond it.

    With ``n`` sorted samples the value at rank ``n - TAIL_BEYOND`` (1-based)
    has exactly ``TAIL_BEYOND`` samples above it, so it is the
    ``100 * (n - TAIL_BEYOND) / n`` percentile.  A run with too few samples
    for any rank to qualify reports the median over passes of each pass's
    slowest sample, and says so.
    """
    ordered = sorted(sample for samples in per_pass for sample in samples)
    n = len(ordered)
    if n > TAIL_BEYOND:
        rank = n - TAIL_BEYOND
        return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n,
                "samples": n, "beyond": TAIL_BEYOND}
    return {"value": statistics.median(max(samples) for samples in per_pass),
            "percentile": 100.0, "samples": n, "beyond": 0,
            "rule": "median over passes of the slowest sample"}


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms(seconds: float) -> float:
    return seconds * 1e3 if math.isfinite(seconds) else FAILED_LATENCY


def measure_passes(workload, seconds: float) -> list:
    """Run passes until ``seconds`` have elapsed, within the workload's pass limits."""
    passes = []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or (
            time.perf_counter() - start < seconds
            and len(passes) < (workload.max_passes or math.inf)):
        passes.append(workload.run_pass())
    return passes


def end_to_end(setup_samples: list, passes: list, gate: Gate) -> tuple[dict, dict]:
    """End-to-end metrics plus the details behind them (tail rank, counts)."""
    per_pass: list[list[float]] = []
    per_pass_rate = []
    attempted = failed = 0
    for position, record in enumerate(passes):
        bad = gate.failed_samples.get(position, set())
        good_ops = 0
        latencies = []
        for sample, (latency, ops) in enumerate(zip(record.samples, record.sample_ops)):
            attempted += ops
            if sample in bad:
                failed += ops
                latencies.append(math.inf)
            else:
                good_ops += ops
                latencies.append(latency)
        per_pass.append(latencies)
        per_pass_rate.append(good_ops / max(sum(record.samples), 1e-12))
    latencies = [latency for samples in per_pass for latency in samples]
    tail_info = tail(per_pass)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "run_s": (statistics.median(p.seconds for p in passes), "s"),
        "ops_per_s": (statistics.median(per_pass_rate), "1/s"),
        "latency_p50_ms": (_ms(statistics.median(latencies)), "ms"),
        "latency_tail_ms": (_ms(tail_info["value"]), "ms"),
        "hr10": (gate.hr10, "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "pass_seconds": [p.seconds for p in passes],
        "setup_seconds": list(setup_samples),
        "latency_samples": len(latencies),
        "latency_tail": {key: value for key, value in tail_info.items() if key != "value"},
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}, details
