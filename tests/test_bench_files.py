"""The committed performance records: every ``BENCH_*.json`` at the root.

Each file holds one paired campaign of the benchmark harness
(``perfbench/run.py``) on two trees, the parent and the change: the
harness's result files of both, the seeds and ``--seconds``, the host
facts and, per workload and end-to-end metric, each side's values,
medians and quartiles, the median pair ratio and the pairs the change
won.  The check reads only the files themselves and ``BENCHMARK.json``,
so it needs no git history.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_records_the_benchmark(path):
    # It parses, names only the workloads and end-to-end metrics of
    # BENCHMARK.json, carries at least ten values per metric and side,
    # and its summary values are the metrics of its own result files.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    doc = json.loads(path.read_text())
    assert doc["harness"]["seconds"] > 0
    for fact in ("vcpus", "python", "numpy", "scipy", "blas_threads"):
        assert doc["host"][fact]
    assert doc["summary"] and set(doc["summary"]) <= workloads
    for workload, entries in doc["summary"].items():
        named = set(entries) - {"failed_runs"}
        assert named and named <= metrics
        runs = {side: doc["results"][side][workload] for side in SIDES}
        for side in SIDES:
            assert len(runs[side]) == len(doc["harness"]["seeds"][workload])
            for run in runs[side]:
                assert run["workload"] == workload and set(run["metrics"]) <= metrics
        for metric in named:
            entry = entries[metric]
            for side in SIDES:
                values = entry[side]["values"]
                assert len(values) >= 10 and all(math.isfinite(x) for x in values)
                assert values == [run["metrics"][metric]["value"] for run in runs[side]]
                low, high = entry[side]["quartiles"]
                assert low <= entry[side]["median"] <= high
            lower = sum(c < p for p, c in zip(entry["parent"]["values"], entry["change"]["values"]))
            assert entry["pairs_change_lower"] == lower
            assert entry["pairs"] == len(entry["parent"]["values"])
            assert math.isfinite(entry["median_pair_ratio"])
    assert set(doc["results"]) == set(SIDES)
    for side in SIDES:
        assert set(doc["results"][side]) <= workloads
