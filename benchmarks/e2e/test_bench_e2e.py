"""Tests for the end-to-end benchmark on a tiny configuration.

Run with ``python -m pytest benchmarks/e2e -q`` (the tier-1 suite's
``testpaths`` does not collect this directory).
"""

import io
import json
from pathlib import Path

import pytest

import bench_e2e
import compare
import make_golden

bench_e2e.use_source_tree()

TINY = bench_e2e.Workload(
    "tiny",
    "two small cells, one per validation style",
    (("kmeans", "ROCoCoTM", 4, 1), ("ssca2", "TinySTM", 4, 1)),
)
SCALE = 0.1
BENCHMARK = json.loads((Path(bench_e2e.HERE).parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def golden():
    return make_golden.golden_digests([TINY], seeds=(1,), scale=SCALE)


def run(golden, seed=1, trace=None):
    return bench_e2e.run_workload(TINY, seed, 0, trace=trace, golden=golden, scale=SCALE)


def test_every_metric_is_printed_with_its_unit(golden):
    result = run(golden)
    out = io.StringIO()
    line = bench_e2e.report([result], trace=None, out=out)
    printed = {}
    for text in out.getvalue().splitlines():
        if not text.startswith("#"):
            name, unit, value = text.split()[:3]
            printed[name] = unit
            float(value)
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: unit for name, unit in printed.items()
    }
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == len(bench_e2e.specs_for(TINY, 1, SCALE))
    assert set(line["metrics"]) == {m["name"] for m in declared}
    assert result["golden"] == "passed"


def test_corrupted_golden_entry_fails_exactly_that_cell(golden):
    key = next(iter(golden))
    corrupted = dict(golden, **{key: "0" * 64})
    result = run(corrupted, trace=0)
    assert result["failed"] == [key]
    assert result["golden"] == "failed"
    assert not result["correct"]


def test_seed_without_golden_is_unchecked_not_passed(golden):
    result = run(golden, seed=3, trace=0)
    assert result["golden"] == "unchecked"
    assert result["failed"] == [] and result["correct"]


def test_traced_round_restores_every_patch(golden):
    targets = bench_e2e.layer_targets()
    before = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in targets}
    result = run(golden, trace=1)
    assert result["problems"] == [] and result["failed"] == []
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original
    metrics = result["metrics"]
    assert metrics["tinystm.commit.calls"]["value"] > 0
    assert metrics["hw.detector.edges.calls"]["value"] > 0
    assert metrics["cluster.coordinator.calls"]["value"] == 0


def test_self_times_take_the_tracer_cost_out():
    trace = bench_e2e.LayerTrace()
    callee = trace.wrap(lambda: None, "callee")
    caller = trace.wrap(lambda: [callee() for _ in range(3)], "caller")
    caller()
    caller()
    assert trace.calls == {"caller": 2, "callee": 6}
    assert trace.children == {"caller": 6, "callee": 0}
    assert trace.self_times(0.0, 0.0) == trace.self_s
    own, per_child = 1e-9, 1e-8
    corrected = trace.self_times(own, per_child)
    assert corrected["caller"] == pytest.approx(
        max(0.0, trace.self_s["caller"] - 2 * own - 6 * per_child)
    )
    assert corrected["callee"] == pytest.approx(max(0.0, trace.self_s["callee"] - 6 * own))


def test_patches_are_restored_when_a_cell_raises():
    from repro.runtime import EventBus

    subscribe = EventBus.__dict__["subscribe"]
    problems = []
    with pytest.raises(RuntimeError):
        with bench_e2e.LayerTrace().patched(problems):
            assert EventBus.__dict__["subscribe"] is not subscribe
            raise RuntimeError("cell failed")
    assert problems == []
    assert EventBus.__dict__["subscribe"] is subscribe


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([100.0 + i % 3 for i in range(10)], [110.0 + i % 3 for i in range(10)], "improved"),
        ([100.0 + i % 3 for i in range(10)], [90.0 + i % 3 for i in range(10)], "worse"),
        ([100.0 + i % 3 for i in range(10)], [100.0 + i % 2 for i in range(10)], "no-worse"),
        ([80.0, 120.0] * 5, [100.0] * 10, "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, "higher", 0.05)["verdict"] == expected


def test_compare_pairs_runs_of_one_workload_per_file():
    def doc(workload, value, failed=()):
        metrics = {"txn_per_s": {"value": value, "unit": "1/s"}}
        return {"workloads": {workload: {"metrics": metrics, "failed": list(failed)}}}

    spec = [{"name": "txn_per_s", "unit": "1/s", "better": "higher", "bound": 0.05}]
    parent = [doc("a", 100.0), doc("b", 50.0), doc("a", 101.0), doc("b", 51.0)]
    change = [doc("a", 80.0), doc("b", 50.5), doc("a", 81.0), doc("b", 50.0, ["cell"])]
    rows = {row["workload"]: row for row in compare.compare(parent, change, spec)}
    assert rows["a"]["pairs"] == 2 and rows["a"]["verdict"] == "worse"
    assert rows["b"]["verdict"] == "failures"
