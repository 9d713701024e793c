"""Self-tests of the benchmark at tiny scale.

Run with ``python3 repobench/selftest.py`` or ``python -m pytest
repobench/selftest.py``.  The file name keeps the repository's plain
``pytest`` run from collecting it.  Temporary directories follow ``TMPDIR``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tree import root_sums  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT,
                  script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_every_workload_emits_every_metric_with_its_unit():
    expected = {0: {m["name"]: m["unit"] for m in CONFIG["end_to_end"]},
                1: {m["name"]: m["unit"] for m in CONFIG["per_layer"]}}
    for entry in CONFIG["workloads"]:
        for trace, units in expected.items():
            completed = run_benchmark(entry["name"], trace)
            assert completed.returncode == 0, completed.stderr
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert got == units, (entry["name"], trace)
            assert all(math.isfinite(metric["value"])
                       for metric in result["metrics"].values())
            record = json.loads(lines[-2])
            assert record["provenance"]["seed"] == SEED
            if trace:
                for inclusive, total in root_sums(record["layer_tree"]).values():
                    assert abs(total - inclusive) <= 1e-9 * max(inclusive, 1.0)


def _tiny_passes(name: str):
    workload = workloads.WORKLOADS[name](SEED, "tiny")
    # Gate every query and batch, so a corrupted one is always among them.
    for gated, total in (("gate_queries", "queries"), ("gate_ops", "ops")):
        if gated in workload.sizes:
            workload.sizes[gated] = workload.sizes[total]
    workload.setup()
    workload.warm_up()
    passes = [workload.run_pass(), workload.run_pass()]
    assert workload.gate(passes).ok
    return workload, passes


def _corrupt_pipeline(passes):
    passes[1].answers[0]["original"]["losses"][0] = float("nan")


def _corrupt_serve(passes):
    indices, distances = passes[1].answers[0]
    passes[1].answers[0] = (indices[::-1].copy(), distances)


def _corrupt_retrieval(passes):
    plugin_top, euclidean_top = passes[0].answers[0]
    wrong = euclidean_top.copy()
    wrong[:, [0, 1]] = wrong[:, [1, 0]]
    for record in passes:
        record.answers[0] = (plugin_top, wrong)


def _corrupt_stream(passes):
    (first_id, first_distance), *rest = passes[1].answers[0][0]
    passes[1].answers[0][0] = [(first_id, first_distance + 1.0), *rest]


def test_a_wrong_answer_trips_each_gate():
    corruptions = {"pipeline": _corrupt_pipeline, "serve": _corrupt_serve,
                   "retrieval": _corrupt_retrieval, "stream": _corrupt_stream}
    for name, corrupt in corruptions.items():
        workload, passes = _tiny_passes(name)
        broken = copy.deepcopy(passes)
        corrupt(broken)
        gate = workload.gate(broken)
        assert not gate.ok, name
        assert any(gate.failed_samples.values()), name


def test_an_untrained_epoch_trips_the_pipeline_gate():
    workload, passes = _tiny_passes("pipeline")
    assert passes[0].sample_ops == [
        sum(sum(answer[variant]["epoch_pairs"]) for variant in workloads.VARIANTS)
        for answer in passes[0].answers]
    # One fit skips an epoch, or trains one on no pairs, in every pass alike.
    for wrong in ([], [0]):
        broken = copy.deepcopy(passes)
        for record in broken:
            record.answers[0]["fusion-dist"]["epoch_pairs"] = list(wrong)
        gate = workload.gate(broken)
        assert not gate.ok and not gate.checks["pairs_counted"]
        assert all(0 in failed for failed in gate.failed_samples.values())


def test_stream_reference_is_a_real_recompute():
    workload, passes = _tiny_passes("stream")
    reference = workload.reference_topk()
    assert all(topk and all(np.isfinite(distance) for _, distance in topk)
               for topk in reference)
    assert passes[0].answers[0] == reference


def test_a_moved_resilience_counter_fails_the_run():
    import run
    from repro.obs import counter

    original = workloads.ServeWorkload.run_pass

    def run_pass(self):
        counter("resilience.retries").add(1)
        return original(self)

    workloads.ServeWorkload.run_pass = run_pass
    output = io.StringIO()
    try:
        with contextlib.redirect_stdout(output):
            assert run.main(["--workload", "serve", "--seed", str(SEED),
                             "--seconds", "0.1", "--trace", "0", "--scale", "tiny"]) == 0
    finally:
        workloads.ServeWorkload.run_pass = original
    result = json.loads(output.getvalue().strip().splitlines()[-1])
    assert result["correct"] is False


def _git_status() -> str | None:
    environment = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        completed = subprocess.run(["git", "status", "--porcelain", "--ignored=no"],
                                   cwd=ROOT, env=environment, capture_output=True,
                                   text=True, timeout=60)
    except OSError:
        return None
    return completed.stdout if completed.returncode == 0 else None


def test_an_unrecorded_run_leaves_the_git_tree_clean():
    before = _git_status()
    if before is None:
        return  # not a git checkout: nothing to compare
    completed = run_benchmark("stream", 1)
    assert completed.returncode == 0, completed.stderr
    assert _git_status() == before


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory() as directory:
        bare = Path(directory)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = run_benchmark("serve", 0, cwd=bare,
                                  script=bare / HERE.name / "run.py")
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def main() -> int:
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_") and callable(value)]
    failures = 0
    for test in tests:
        try:
            test()
        except Exception as error:  # report every failing test, then exit non-zero
            failures += 1
            print(f"FAIL {test.__name__}: {type(error).__name__}: {error}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
