"""In-memory span tracer that wraps public ``repro`` calls from outside.

Nothing under ``src/`` knows about it: :func:`install` replaces a fixed list
of public functions and methods with timing wrappers and returns a callable
that puts the originals back.  Every span records its inclusive time and its
self time (inclusive minus the time its child spans cover), aggregated per
call path, so the self times of a tree sum to its root's wall-clock.

Counts the program keeps itself (``engine.dp_cells``, ``search.pruned``, …)
are read from the ``repro.obs`` registry, whose counters are always on.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Stack of open spans plus per-path and per-name aggregates."""

    def __init__(self):
        self._stack: list[list] = []  # [name, start, child_seconds]
        #: call path (tuple of names) -> [calls, inclusive_s, self_s]
        self.paths: dict[tuple, list] = {}
        #: name -> [calls, outermost inclusive_s, self_s]
        self.names: dict[str, list] = {}
        #: free-form counts (e.g. autograd tape nodes)
        self.counts: dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[1]
            self._stack.pop()
            own = duration - frame[2]
            path = tuple(open_frame[0] for open_frame in self._stack) + (name,)
            if self._stack:
                self._stack[-1][2] += duration
            entry = self.paths.setdefault(path, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
            total = self.names.setdefault(name, [0, 0.0, 0.0])
            total[0] += 1
            total[2] += own
            if name not in path[:-1]:  # recursion counts once in inclusive time
                total[1] += duration

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def totals(self) -> dict:
        """Copy of the per-name aggregates and counts (for per-pass deltas)."""
        return {"names": {name: list(value) for name, value in self.names.items()},
                "counts": dict(self.counts)}

    def tree(self) -> list[dict]:
        """Per-path rows ``{path, calls, inclusive_s, self_s}`` in path order."""
        return [{"path": list(path), "calls": calls, "inclusive_s": inclusive,
                 "self_s": own}
                for path, (calls, inclusive, own) in sorted(self.paths.items())]


def _wrap(tracer: Tracer, function, name):
    namer = name if callable(name) else (lambda args, kwargs: name)

    def wrapper(*args, **kwargs):
        with tracer.span(namer(args, kwargs)):
            return function(*args, **kwargs)

    wrapper.__wrapped__ = function
    wrapper.__name__ = getattr(function, "__name__", "wrapper")
    wrapper.__doc__ = getattr(function, "__doc__", None)
    return wrapper


def _pairwise_name(args, kwargs) -> str:
    measure = args[2] if len(args) > 2 else kwargs.get("measure", "dtw")
    return f"engine.pairwise.{measure if isinstance(measure, str) else 'callable'}"


def _tape_nodes(root) -> int:
    """Nodes of the autograd graph reachable from ``root`` (the loss)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._prev:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install(tracer: Tracer):
    """Wrap the public calls the workloads make; returns the undo callable."""
    import repro.data
    import repro.distances
    import repro.experiments.runner
    import repro.search
    import repro.search.service
    from repro.core import LHPlugin
    from repro.engine import MatrixEngine, StreamingEngine
    from repro.models import NeutrajEncoder, Traj2SimVecEncoder, TrajGATEncoder
    from repro.nn import Adam, Tensor
    from repro.search import SearchService, StreamMonitor, TrajectoryIndex
    from repro.training import SimilarityTrainer

    targets = [
        (repro.data, "generate_dataset", "data.generate"),
        (repro.data, "generate_stream_workload", "data.generate"),
        (repro.distances, "knn_from_matrix", "eval.topk"),
        (repro.experiments.runner, "train_variant", "experiments.train_variant"),
        (repro.experiments.runner, "evaluate_retrieval", "eval.evaluate"),
        (repro.search, "embedding_topk", "search.embedding_topk"),
        (repro.search.service, "knn_search", "search.knn"),
        (MatrixEngine, "pairwise", _pairwise_name),
        (MatrixEngine, "pairs", "engine.pairs"),
        (StreamingEngine, "value", "engine.stream_force"),
        (StreamingEngine, "append", "engine.stream_append"),
        (SearchService, "search", "search.service"),
        (StreamMonitor, "tick", "search.monitor_tick"),
        (TrajectoryIndex, "lower_bounds", "search.lower_bound"),
        (TrajectoryIndex, "update", "search.index_update"),
        (TrajectoryIndex, "__init__", "search.index_build"),
        (LHPlugin, "embed_database", "core.embed_database"),
        (LHPlugin, "distance_matrix", "core.distance_matrix"),
        (LHPlugin, "pair_distances_from", "core.pair_distances"),
        (SimilarityTrainer, "fit", "training.fit"),
        (SimilarityTrainer, "model_distance_matrix", "training.model_distance_matrix"),
        (Adam, "step", "nn.optim_step"),
        (NeutrajEncoder, "encode_batch", "models.encode_batch"),
        (TrajGATEncoder, "encode_batch", "models.encode_batch"),
        (Traj2SimVecEncoder, "encode_batch", "models.encode_batch"),
    ]
    undo = []
    for owner, attribute, name in targets:
        original = owner.__dict__[attribute]
        setattr(owner, attribute, _wrap(tracer, original, name))
        undo.append((owner, attribute, original))

    original_backward = Tensor.__dict__["backward"]

    def backward(loss, *args, **kwargs):
        with tracer.span("trace.tape_walk"):
            tracer.count("nn.tape_nodes", _tape_nodes(loss))
        with tracer.span("nn.backward"):
            return original_backward(loss, *args, **kwargs)

    Tensor.backward = backward
    undo.append((Tensor, "backward", original_backward))

    def restore():
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return restore
