"""Cluster determinism: parallel == serial, and single-shard ClusterTM
stamps byte-identically to plain ROCoCoTM (modulo the backend name)."""

import pytest

from repro.exec import (
    ExperimentSpec,
    SerialRunner,
    SupervisedRunner,
    write_bench_stamp,
)
from repro.bench import matrix_from_results, matrix_specs
from repro.cluster import ClusterTMBackend
from repro.runtime import RococoTMBackend

#: the cluster mini-grid: two shard counts across two thread counts.
CLUSTER_GRID = [
    ExperimentSpec("ssca2", "ClusterTM", n_threads, scale=0.1, shards=shards)
    for shards in (2, 4)
    for n_threads in (4, 8)
]


def _dicts(stats_list):
    return [stats.to_dict() for stats in stats_list]


class TestPoolIdentity:
    def test_pool_identical_to_serial(self):
        serial = SerialRunner().run(CLUSTER_GRID)
        pooled = SupervisedRunner(max_workers=2).run(CLUSTER_GRID)
        assert _dicts(serial) == _dicts(pooled)


class TestSingleShardStampIdentity:
    """``ClusterTM(shards=1)`` and plain ``ROCoCoTM`` produce
    byte-identical ``BENCH_stamp.json`` files once the backend-name
    strings are normalized."""

    # The heap kernel is the only scheduler; the linear scan this test
    # once also ran under is retired.
    @pytest.mark.parametrize("sched", ["kernel"])
    def test_stamp_bytes_match(self, sched, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        stamps = {}
        for backend_cls in (RococoTMBackend, ClusterTMBackend):
            specs = matrix_specs(
                workloads=[_workload("ssca2")],
                backends=(backend_cls,),
                threads=(1, 4),
                scale=0.1,
                shards=1,
            )
            results = SerialRunner().run(specs)
            matrix = matrix_from_results(specs, results)
            out = tmp_path / f"BENCH_stamp_{backend_cls.name}.json"
            write_bench_stamp(str(out), matrix, specs, 0.0)
            stamps[backend_cls.name] = out.read_text()
        scrubbed = stamps["ClusterTM"].replace("ClusterTM", "ROCoCoTM")
        assert scrubbed == stamps["ROCoCoTM"]


def _workload(name):
    from repro.exec.spec import WORKLOAD_REGISTRY

    return WORKLOAD_REGISTRY[name]
