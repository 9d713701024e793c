"""Per-layer metrics of the traced run.

Each metric reads one of three scopes:

* ``setup`` — the one traced set-up;
* ``pass`` — every traced pass, reported as the median over passes;
* ``run`` — registry counters over the whole process, which must stay 0.

``trace.overhead_share`` and ``retrieval.plugin_overhead`` come from pass
timings instead; ``run.py`` adds them.

Times (``*_s``) are inclusive seconds spent in the named public calls, except
``*_self_s``, which is the span's self time.  A metric whose layer never ran
on the workload reads 0 and is listed in ``absent`` with the reason.
"""

from __future__ import annotations

import statistics


def _span(field: int, name: str):
    return lambda delta: delta["names"].get(name, (0, 0.0, 0.0))[field]


def inclusive(name: str):
    return _span(1, name)


def own(name: str):
    return _span(2, name)


def counter(name: str):
    return lambda delta: delta["counters"].get(name, 0)


def tracer_count(name: str):
    return lambda delta: delta["counts"].get(name, 0)


def ratio(numerator, denominator):
    def value(delta):
        below = denominator(delta)
        return numerator(delta) / below if below else 0.0
    return value


def ops(delta):
    return delta["ops"]


#: name -> (unit, scope, value function, span whose calls mark the layer active)
PER_LAYER = {
    "data.generate_s": ("s", "setup", inclusive("data.generate"), "data.generate"),
    "engine.pairwise_s.dtw": ("s", "pass", inclusive("engine.pairwise.dtw"),
                              "engine.pairwise.dtw"),
    "engine.pairwise_s.edr": ("s", "pass", inclusive("engine.pairwise.edr"),
                              "engine.pairwise.edr"),
    "engine.pairwise_s.sspd": ("s", "pass", inclusive("engine.pairwise.sspd"),
                               "engine.pairwise.sspd"),
    "engine.dp_cells": ("count", "pass", counter("engine.dp_cells"), None),
    "engine.pairs_s": ("s", "pass", inclusive("engine.pairs"), "engine.pairs"),
    "engine.dp_cells_per_query": ("count", "pass",
                                  ratio(counter("engine.dp_cells"),
                                        counter("search.queries")), "search.knn"),
    "engine.abandoned_share": ("fraction", "pass",
                               ratio(counter("search.abandoned"),
                                     counter("search.refined")), "search.knn"),
    "search.lower_bound_s": ("s", "pass", inclusive("search.lower_bound"),
                             "search.lower_bound"),
    "search.pruned_fraction": ("fraction", "pass",
                               ratio(counter("search.pruned"),
                                     counter("search.candidates")), "search.knn"),
    "search.refined_per_query": ("count", "pass",
                                 ratio(counter("search.refined"),
                                       counter("search.queries")), "search.knn"),
    "search.service_self_s": ("s", "pass", own("search.service"), "search.service"),
    "nn.backward_s": ("s", "pass", inclusive("nn.backward"), "nn.backward"),
    "nn.optim_step_s": ("s", "pass", inclusive("nn.optim_step"), "nn.optim_step"),
    "nn.tape_nodes_per_pair": ("count", "pass",
                               ratio(tracer_count("nn.tape_nodes"), ops), "nn.backward"),
    "models.encode_batch_s": ("s", "pass", inclusive("models.encode_batch"),
                              "models.encode_batch"),
    "core.pair_distances_s": ("s", "pass", inclusive("core.pair_distances"),
                              "core.pair_distances"),
    "training.fit_self_s": ("s", "pass", own("training.fit"), "training.fit"),
    "eval.evaluate_s": ("s", "pass", inclusive("eval.evaluate"), "eval.evaluate"),
    "core.embed_database_s": ("s", "pass", inclusive("core.embed_database"),
                              "core.embed_database"),
    "core.distance_matrix_s": ("s", "pass", inclusive("core.distance_matrix"),
                               "core.distance_matrix"),
    "eval.topk_s": ("s", "pass", inclusive("eval.topk"), "eval.topk"),
    "search.embedding_topk_s": ("s", "pass", inclusive("search.embedding_topk"),
                                "search.embedding_topk"),
    "search.index_update_s": ("s", "pass", inclusive("search.index_update"),
                              "search.index_update"),
    "engine.stream_force_s": ("s", "pass", inclusive("engine.stream_force"),
                              "engine.stream_force"),
    "engine.stream_dp_cells": ("count", "pass", counter("stream.dp_cells"),
                               "engine.stream_force"),
    "search.monitor_bound_skips": ("count", "pass", counter("monitor.skipped_bound"),
                                   "search.monitor_tick"),
    "resilience.retries": ("count", "run", counter("resilience.retries"), None),
    "resilience.degradations": ("count", "run", counter("resilience.degradations"), None),
    "service.overloaded": ("count", "run", counter("service.overloaded"), None),
}

#: Counters that must not move in any run; a non-zero delta fails the run.
MUST_STAY_ZERO = ("resilience.retries", "resilience.degradations",
                  "service.overloaded", "monitor.skipped_ticks")

#: Why a layer is idle on a workload, where the reason is not plain idleness.
REASONS = {
    ("retrieval", "data.generate_s"): "Table V synthesises embeddings with numpy; "
                                      "no repro.data call",
}


def diff(after: dict, before: dict) -> dict:
    """Per-name span aggregates, tracer counts and registry counters in between."""
    names = {}
    for name, (calls, inclusive_s, self_s) in after["names"].items():
        earlier = before["names"].get(name, (0, 0.0, 0.0))
        names[name] = (calls - earlier[0], inclusive_s - earlier[1], self_s - earlier[2])
    return {
        "names": names,
        "counts": {name: value - before["counts"].get(name, 0)
                   for name, value in after["counts"].items()},
        "counters": {name: value - before["counters"].get(name, 0)
                     for name, value in after["counters"].items()},
        "ops": after.get("ops", 0) - before.get("ops", 0),
    }


def per_layer(workload: str, setup_delta: dict, pass_deltas: list,
              run_delta: dict) -> tuple[dict, dict]:
    """``({name: (value, unit)}, {name: reason})`` for every :data:`PER_LAYER` metric."""
    metrics, absent = {}, {}
    for name, (unit, scope, value_of, active_span) in PER_LAYER.items():
        deltas = {"setup": [setup_delta], "pass": pass_deltas, "run": [run_delta]}[scope]
        values = [value_of(delta) for delta in deltas]
        metrics[name] = (float(statistics.median(values)), unit)
        if scope == "run":
            continue
        idle = (not any(values) if active_span is None else
                not any(delta["names"].get(active_span, (0,))[0] for delta in deltas))
        if idle:
            absent[name] = REASONS.get((workload, name),
                                       f"idle on {workload}: no "
                                       f"{active_span or name} during the traced {scope}")
    return metrics, absent
