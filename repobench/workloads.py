"""The four seeded workloads, each driven through the public ``repro`` API.

All four are closed loops with one client on the process-default in-process
(``chunked``) engine.  Every call into ``repro`` goes through a module or
class attribute (``repro.data.generate_dataset``, ``MatrixEngine.pairwise``,
…) so the tracer in :mod:`tracing` can wrap it from outside.

``SCALES`` holds the full sizes the benchmark runs and the tiny sizes its
self-tests run.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import repro.data
import repro.distances
import repro.experiments.runner as runner
import repro.search
from repro.core import LHPlugin, LHPluginConfig
from repro.data import BoundingBox, TrajectoryDataset
from repro.engine import MatrixEngine, get_batch_kernel
from repro.eval import euclidean_distance_matrix
from repro.experiments import ExperimentSettings
from repro.search import SearchService, StreamMonitor, TrajectoryIndex
from repro.training import PairSampler

from harness import Gate, Pass

K = 10

SCALES = {
    "pipeline": {
        "full": {"dataset_size": 30, "pool": 600, "epochs": 3, "hidden_dim": 20,
                 "num_nearest": 2, "num_random": 2},
        "tiny": {"dataset_size": 12, "pool": 40, "epochs": 1, "hidden_dim": 8,
                 "num_nearest": 2, "num_random": 2},
    },
    "serve": {
        "full": {"fleet": 2000, "queries": 32, "query_pool": 400, "gate_queries": 3},
        "tiny": {"fleet": 60, "queries": 4, "query_pool": 20, "gate_queries": 2},
    },
    "retrieval": {
        "full": {"database": 20000, "dim": 128, "batch": 20, "ops": 16,
                 "sequence_points": 8, "factor_dim": 4, "gate_ops": 3},
        "tiny": {"database": 300, "dim": 16, "batch": 4, "ops": 3,
                 "sequence_points": 4, "factor_dim": 4, "gate_ops": 2},
    },
    "stream": {
        "full": {"streams": 500, "ticks": 40, "initial_points": 12,
                 "update_fraction": 0.15, "evict_fraction": 0.3, "patterns": 3,
                 "pattern_points": 32, "pattern_pool": 41, "warm_ticks": 10},
        "tiny": {"streams": 40, "ticks": 6, "initial_points": 6,
                 "update_fraction": 0.3, "evict_fraction": 0.3,
                 "patterns": 2, "pattern_points": 8, "pattern_pool": 5,
                 "warm_ticks": 2},
    },
}

#: Table III tier-1 grid thinned to its diagonal: every model and every
#: measure stays in each pass, and each cell trains both variants.
PIPELINE_CELLS = (("neutraj", "dtw"), ("trajgat", "edr"), ("traj2simvec", "sspd"))
VARIANTS = ("original", "fusion-dist")
#: Watched region of the stream workload, inside the chengdu preset's extent.
STREAM_REGION = BoundingBox(0.5, 0.5, 1.5, 1.5)


def length_quantiles(items: list, count: int, trim: float = 0.05) -> list:
    """``count`` items at evenly spaced length quantiles in ``[trim, 1 - trim]``.

    Picking by length rank keeps the cost of a seeded input set nearly the
    same for every seed; trimming keeps one extreme draw from setting it.
    """
    order = np.argsort([len(item) for item in items], kind="stable")
    ranks = np.linspace(trim * (len(items) - 1), (1 - trim) * (len(items) - 1), count)
    return [items[int(order[int(round(rank))])] for rank in ranks]


@contextmanager
def pairs_drawn():
    """Record the size of every epoch's pair list the trainer draws.

    ``SimilarityTrainer.fit`` trains on every pair ``PairSampler.epoch_pairs``
    returns, so these are the pairs actually trained on.
    """
    drawn: list[int] = []
    original = PairSampler.__dict__["epoch_pairs"]

    def epoch_pairs(sampler, *args, **kwargs):
        pairs = original(sampler, *args, **kwargs)
        drawn.append(len(pairs))
        return pairs

    PairSampler.epoch_pairs = epoch_pairs
    try:
        yield drawn
    finally:
        PairSampler.epoch_pairs = original


def _same(first, second) -> bool:
    """Bitwise equality of two nested answer structures."""
    if isinstance(first, np.ndarray) or isinstance(second, np.ndarray):
        return (np.shape(first) == np.shape(second)
                and np.array_equal(first, second, equal_nan=True))
    if isinstance(first, dict):
        return first.keys() == second.keys() and all(_same(first[key], second[key])
                                                      for key in first)
    if isinstance(first, (list, tuple)):
        return len(first) == len(second) and all(map(_same, first, second))
    return first == second or (first != first and second != second)


def _mark_unrepeated(passes: list, failed: dict) -> bool:
    """Fail every sample whose answer differs from the first pass's."""
    reference = passes[0].answers
    for position, record in enumerate(passes[1:], start=1):
        for sample, (got, want) in enumerate(zip(record.answers, reference)):
            if not _same(got, want):
                failed.setdefault(position, set()).add(sample)
    return not any(failed.values())


class Workload:
    """Common plumbing: name, seed and sizes."""

    name = ""
    op = ""
    sample = ""
    #: Passes a run makes however long they take, and at most (None: no limit).
    min_passes = 1
    max_passes = None

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.sizes = dict(SCALES[self.name][scale])


class PipelineWorkload(Workload):
    """Table III tier-1 pipeline: ground truth, two fits and evaluation per cell."""

    name = "pipeline"
    op = "one training pair"
    sample = "one cell: ground truth, fit original and fusion-dist, evaluate"
    # A pass is sized so that three fit in ``run_seconds``.  Exactly three
    # passes keep the sample count fixed at nine cells, too few for the tail
    # rank, so latency_tail_ms always takes the same fallback rather than a
    # rank that moves with the machine's speed.
    min_passes = max_passes = 3

    def setup(self) -> None:
        sizes = self.sizes
        self.cells = []
        for position, (model, measure) in enumerate(PIPELINE_CELLS):
            pool = list(repro.data.generate_dataset(
                "chengdu", size=sizes["pool"], seed=self.seed * 100 + position))
            dataset = TrajectoryDataset(length_quantiles(pool, sizes["dataset_size"]),
                                        name="chengdu")
            settings = ExperimentSettings(
                dataset_size=sizes["dataset_size"], epochs=sizes["epochs"],
                hidden_dim=sizes["hidden_dim"], num_nearest=sizes["num_nearest"],
                num_random=sizes["num_random"], seed=self.seed, model=model,
                measure=measure)
            self.cells.append((settings, dataset))

    def _run_cell(self, settings, dataset) -> dict:
        # A cache-less engine: every pass pays for its ground truth.
        engine = MatrixEngine(strategy="chunked", cache=None)
        matrix = repro.distances.pairwise_distance_matrix(
            dataset.point_arrays(spatial_only=True), settings.measure, engine=engine,
            **settings.measure_kwargs())
        truth = repro.distances.normalize_matrix(matrix, method="mean")
        answer = {"truth": truth}
        for variant in VARIANTS:
            with pairs_drawn() as drawn:
                result = runner.train_variant(settings, dataset, truth, variant)
            answer[variant] = {"metrics": result["metrics"],
                               "losses": list(result["history"].losses),
                               "epoch_pairs": drawn}
        return answer

    def warm_up(self) -> None:
        for settings, dataset in self.cells:
            self._run_cell(replace(settings, epochs=1), dataset)

    def run_pass(self) -> Pass:
        samples, answers = [], []
        start = time.perf_counter()
        for settings, dataset in self.cells:
            cell_start = time.perf_counter()
            answer = self._run_cell(settings, dataset)
            samples.append(time.perf_counter() - cell_start)
            del answer["truth"]
            answers.append(answer)
        ops = [sum(sum(answer[variant]["epoch_pairs"]) for variant in VARIANTS)
               for answer in answers]
        return Pass(time.perf_counter() - start, samples, ops, answers)

    def gate(self, passes: list) -> Gate:
        failed: dict[int, set] = {}
        finite = counted = True
        for position, record in enumerate(passes):
            for sample, answer in enumerate(record.answers):
                losses = [loss for variant in VARIANTS for loss in answer[variant]["losses"]]
                if not losses or not np.all(np.isfinite(losses)):
                    failed.setdefault(position, set()).add(sample)
                    finite = False
                # Every fit trains its full epochs, each on a non-empty pair list.
                epochs = self.cells[sample][0].epochs
                if not all(len(answer[variant]["epoch_pairs"]) == epochs
                           and all(answer[variant]["epoch_pairs"]) for variant in VARIANTS):
                    failed.setdefault(position, set()).add(sample)
                    counted = False
        repeated = _mark_unrepeated(passes, failed)
        hr10 = float(np.mean([answer[variant]["metrics"]["hr@10"]
                              for answer in passes[0].answers for variant in VARIANTS]))
        return Gate(failed, {"losses_finite": finite, "pairs_counted": counted,
                             "passes_repeat": repeated}, hr10)


class ServeWorkload(Workload):
    """Exact DTW top-10 through ``SearchService.search``, one query at a time."""

    name = "serve"
    op = "one query, timed from submit to result"
    sample = "one query"

    def setup(self) -> None:
        sizes = self.sizes
        # Queries come from the same city (same route network) as the fleet
        # but are not in the index.
        city = repro.data.generate_dataset(
            "chengdu", size=sizes["fleet"] + sizes["query_pool"], seed=self.seed)
        arrays = city.point_arrays(spatial_only=True)
        self.index = TrajectoryIndex(arrays[:sizes["fleet"]])
        self.queries = length_quantiles(arrays[sizes["fleet"]:], sizes["queries"])

    def _serve(self, queries) -> tuple[list, list, dict]:
        # A fresh service per pass: its result cache starts cold, so every
        # query runs the filter-and-refine path.
        service = SearchService(self.index, measure="dtw", k=K)
        samples, answers = [], []
        totals = {"candidates": 0, "pruned": 0, "refined": 0, "abandoned": 0}
        for query in queries:
            start = time.perf_counter()
            result = service.search(query)
            samples.append(time.perf_counter() - start)
            answers.append((result.indices, result.distances))
            stats = result.stats
            totals["candidates"] += stats.num_candidates
            totals["pruned"] += stats.num_pruned
            totals["refined"] += stats.num_refined
            totals["abandoned"] += stats.num_abandoned
        service.close()
        return samples, answers, totals

    def warm_up(self) -> None:
        self._serve(self.queries[:4])

    def run_pass(self) -> Pass:
        start = time.perf_counter()
        samples, answers, totals = self._serve(self.queries)
        return Pass(time.perf_counter() - start, samples, [1] * len(samples), answers,
                    {"queries": len(samples), **totals})

    def gate(self, passes: list) -> Gate:
        failed: dict[int, set] = {}
        repeated = _mark_unrepeated(passes, failed)
        chooser = random.Random(self.seed)
        sampled = sorted(chooser.sample(range(len(self.queries)),
                                        self.sizes["gate_queries"]))
        serial = MatrixEngine(strategy="serial", cache=None)
        hits, exact = [], True
        for position in sampled:
            row = serial.cross([self.queries[position]], self.index.arrays, "dtw")
            want = repro.distances.knn_from_matrix(row, K)[0]
            want_distances = row[0, want]
            for index, record in enumerate(passes):
                got, got_distances = record.answers[position]
                if not (np.array_equal(got, want)
                        and np.array_equal(got_distances, want_distances)):
                    failed.setdefault(index, set()).add(position)
                    exact = False
            hits.append(len(set(passes[0].answers[position][0].tolist())
                            & set(want.tolist())) / K)
        return Gate(failed, {"passes_repeat": repeated, "matches_serial_row": exact},
                    float(np.mean(hits)), {"gated_queries": sampled})


class RetrievalWorkload(Workload):
    """Table V's largest row: LH-plugin top-10 over a pre-embedded database."""

    name = "retrieval"
    op = "one batch of queries: embed, plugin distance matrix, top-10"
    sample = "one batch"

    def setup(self) -> None:
        sizes = self.sizes
        rng = np.random.default_rng(self.seed)
        shape = (sizes["sequence_points"], 2)
        self.database = rng.normal(size=(sizes["database"], sizes["dim"]))
        sequences = list(rng.random((sizes["database"], *shape)))
        self.plugin = LHPlugin(LHPluginConfig(factor_dim=sizes["factor_dim"]))
        self.embedded = self.plugin.embed_database(self.database, sequences)
        self.batches = [(rng.normal(size=(sizes["batch"], sizes["dim"])),
                         list(rng.random((sizes["batch"], *shape))))
                        for _ in range(sizes["ops"])]

    def _plugin_topk(self, queries, sequences) -> np.ndarray:
        embedded = self.plugin.embed_database(queries, sequences)
        matrix = self.plugin.distance_matrix(embedded, self.embedded)
        return repro.distances.knn_from_matrix(matrix, K)

    def _run(self, batches) -> tuple[list, list, list]:
        samples, baseline, answers = [], [], []
        for queries, sequences in batches:
            start = time.perf_counter()
            plugin_top = self._plugin_topk(queries, sequences)
            samples.append(time.perf_counter() - start)
            start = time.perf_counter()
            euclidean_top, _ = repro.search.embedding_topk(queries, self.database, K)
            baseline.append(time.perf_counter() - start)
            # Both top-k results are views into full argsort buffers; copies
            # keep the run from holding every batch's buffer alive.
            answers.append((plugin_top.copy(), euclidean_top.copy()))
        return samples, baseline, answers

    def warm_up(self) -> None:
        self._run(self.batches[:3])

    def run_pass(self) -> Pass:
        start = time.perf_counter()
        samples, baseline, answers = self._run(self.batches)
        return Pass(time.perf_counter() - start, samples, [1] * len(samples), answers,
                    {"baseline_samples": baseline})

    def gate(self, passes: list) -> Gate:
        failed: dict[int, set] = {}
        repeated = _mark_unrepeated(passes, failed)
        chooser = random.Random(self.seed)
        sampled = sorted(chooser.sample(range(len(self.batches)), self.sizes["gate_ops"]))
        hits, exact = [], True
        for position in sampled:
            queries, sequences = self.batches[position]
            embedded = self.plugin.embed_database(queries, sequences)
            plugin_matrix = self.plugin.distance_matrix(embedded, self.embedded)
            want_plugin = np.argsort(plugin_matrix, axis=1, kind="stable")[:, :K]
            euclidean_matrix = euclidean_distance_matrix(queries, self.database)
            want_euclidean = np.argsort(euclidean_matrix, axis=1, kind="stable")[:, :K]
            for index, record in enumerate(passes):
                plugin_top, euclidean_top = record.answers[position]
                if not (np.array_equal(plugin_top, want_plugin)
                        and np.array_equal(euclidean_top, want_euclidean)):
                    failed.setdefault(index, set()).add(position)
                    exact = False
            got = passes[0].answers[position][0]
            hits.append(np.mean([len(set(g.tolist()) & set(w.tolist())) / K
                                 for g, w in zip(got, want_plugin)]))
        return Gate(failed, {"passes_repeat": repeated, "matches_stable_argsort": exact},
                    float(np.mean(hits)), {"gated_batches": sampled})


class StreamWorkload(Workload):
    """``StreamMonitor`` standing queries replaying a seeded tick schedule."""

    name = "stream"
    op = "one appended point"
    sample = "one tick, applied to every standing query"

    def setup(self) -> None:
        sizes = self.sizes
        self.schedule = repro.data.generate_stream_workload(
            "chengdu", streams=sizes["streams"], ticks=sizes["ticks"], seed=self.seed,
            initial_points=sizes["initial_points"],
            update_fraction=sizes["update_fraction"],
            evict_fraction=sizes["evict_fraction"])
        # Same seed, same route network: the patterns are trips in the streams'
        # city.  How much refinement a pattern causes depends on how close it
        # runs to the streams, so several patterns at fixed length quantiles
        # keep the cost of a pass nearly the same for every seed.
        trips = repro.data.generate_dataset("chengdu", size=sizes["pattern_pool"],
                                            seed=self.seed)
        self.patterns = [trip[:sizes["pattern_points"]] for trip in length_quantiles(
            trips.point_arrays(spatial_only=True), sizes["patterns"], trim=0.25)]
        self.monitors = self._monitors()

    def _monitors(self) -> list:
        return [StreamMonitor([window.copy() for window in self.schedule.initial],
                              pattern, STREAM_REGION, measure="dtw", k=K)
                for pattern in self.patterns]

    def _replay(self, monitors, ticks) -> tuple[list, list]:
        samples, ops = [], []
        for tick in ticks:
            start = time.perf_counter()
            for monitor in monitors:
                monitor.tick(tick.appends, tick.evicts)
            samples.append(time.perf_counter() - start)
            ops.append(sum(len(points) for points in tick.appends.values()))
        return samples, ops

    def warm_up(self) -> None:
        self._replay(self._monitors(), self.schedule.ticks[:self.sizes["warm_ticks"]])

    def run_pass(self) -> Pass:
        # The monitors a pass replays into are built before its clock starts.
        monitors, self.monitors = self.monitors or self._monitors(), None
        start = time.perf_counter()
        samples, ops = self._replay(monitors, self.schedule.ticks)
        seconds = time.perf_counter() - start
        errors = [repr(monitor.last_tick_error) for monitor in monitors
                  if monitor.last_tick_error]
        return Pass(seconds, samples, ops, [[monitor.topk() for monitor in monitors]],
                    {"ticks": len(samples), "last_tick_errors": errors})

    def reference_topk(self) -> list:
        """Batch recompute of every final top-k from the replayed windows."""
        windows = [window.copy() for window in self.schedule.initial]
        for tick in self.schedule.ticks:
            for stream_id, points in tick.appends.items():
                windows[stream_id] = np.concatenate([windows[stream_id], points])
            for stream_id, count in tick.evicts.items():
                windows[stream_id] = windows[stream_id][count:]
        region = STREAM_REGION
        inside = [stream_id for stream_id, window in enumerate(windows)
                  if not (window[:, 0].min() > region.max_lon
                          or window[:, 0].max() < region.min_lon
                          or window[:, 1].min() > region.max_lat
                          or window[:, 1].max() < region.min_lat)]
        kernel = get_batch_kernel("dtw")
        answers = []
        for pattern in self.patterns:
            ranked = sorted((float(np.asarray(kernel([pattern], [windows[i]]))[0]), i)
                            for i in inside)
            answers.append([(stream_id, distance) for distance, stream_id in ranked[:K]])
        return answers

    def gate(self, passes: list) -> Gate:
        want = self.reference_topk()
        failed: dict[int, set] = {}
        for index, record in enumerate(passes):
            if record.answers[0] != want or record.extras["last_tick_errors"]:
                failed[index] = set(range(len(record.samples)))
        hits = [len({i for i, _ in got} & {i for i, _ in expected}) / max(len(expected), 1)
                for got, expected in zip(passes[0].answers[0], want)]
        return Gate(failed, {"final_topk_matches_recompute": not failed},
                    float(np.mean(hits)), {"reference_topk": want})


WORKLOADS = {workload.name: workload for workload in
             (PipelineWorkload, ServeWorkload, RetrievalWorkload, StreamWorkload)}
