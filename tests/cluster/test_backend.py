"""ClusterTMBackend: identity at one shard, invariants at many,
cross-shard conflicts, chaos, and the serializability oracle."""

import pytest

from repro.cluster import ClusterTMBackend
from repro.exec import ExperimentSpec
from repro.runtime import RococoTMBackend
from .conftest import run_counter, run_two_shard_transfers


class TestSingleShardIdentity:
    def test_counter_bit_identical_to_plain_rococotm(self):
        v_plain, s_plain = run_counter(RococoTMBackend(), 4, increments=10)
        v_cluster, s_cluster = run_counter(
            ClusterTMBackend(shards=1), 4, increments=10
        )
        assert v_plain == v_cluster
        plain, cluster = s_plain.to_dict(), s_cluster.to_dict()
        plain.pop("backend"), cluster.pop("backend")
        assert plain == cluster

    def test_stamp_cell_identical_to_plain_rococotm(self):
        plain = ExperimentSpec("ssca2", "ROCoCoTM", 4, scale=0.1).execute()
        cluster = ExperimentSpec("ssca2", "ClusterTM", 4, scale=0.1).execute()
        a, b = plain.to_dict(), cluster.to_dict()
        a.pop("backend"), b.pop("backend")
        assert a == b


class TestMultiShardInvariants:
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("n_threads", [4, 8])
    def test_no_lost_updates(self, shards, n_threads):
        value, stats = run_counter(
            ClusterTMBackend(shards=shards), n_threads, increments=8
        )
        assert value == n_threads * 8
        assert stats.commits == n_threads * 8

    @pytest.mark.parametrize("shards", [2, 4])
    def test_deterministic(self, shards):
        v1, s1 = run_counter(ClusterTMBackend(shards=shards), 6, increments=6, seed=5)
        v2, s2 = run_counter(ClusterTMBackend(shards=shards), 6, increments=6, seed=5)
        assert v1 == v2
        assert s1.to_dict() == s2.to_dict()

    @pytest.mark.parametrize("workload", ["ssca2", "vacation"])
    def test_stamp_workloads_verify(self, workload):
        stats = ExperimentSpec(
            workload, "ClusterTM", 8, scale=0.1, shards=4
        ).execute()
        assert stats.commits > 0

    def test_round_robin_node_occupancy(self):
        backend = ClusterTMBackend(shards=4)
        backend.shards_n = 4  # before attach: pure arithmetic check
        backend.driver = type("D", (), {"n_threads": 10})()
        assert [backend._node_threads(node) for node in range(4)] == [3, 3, 2, 2]
        assert backend.local_threads(0) == 3
        assert backend.local_threads(3) == 2


class TestCrossShardConflicts:
    def test_symmetric_transfers_abort_exactly_one(self):
        """Two opposite transfers over the same two shards collide;
        the coordinator certifies the earlier commit and refuses the
        later one (stale forward edge), which retries and commits."""
        total, stats, _ = run_two_shard_transfers()
        assert total == 200
        assert stats.commits == 2
        assert stats.aborts_by_cause.get("fpga-xshard-stale") == 1
        assert stats.aborts == 1

    def test_refusals_count_as_fpga_aborts(self):
        _, stats, _ = run_two_shard_transfers(rounds=3)
        assert stats.commits == 6
        assert stats.fpga_aborts >= 1
        assert set(stats.aborts_by_cause) <= {
            "fpga-xshard-stale", "fpga-xshard-overflow"
        }

    def test_cross_shard_validations_accrue_latency(self):
        _, stats, _ = run_two_shard_transfers()
        # Every 2PC prepares on both shards: >= 2 validations/commit.
        assert stats.validations >= 2 * stats.commits
        assert stats.validation_ns > 0


class TestChaosAtScale:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_faults_inject_per_shard(self, shards):
        stats = ExperimentSpec(
            "ssca2", "ClusterTM", 8, scale=0.1, faults="drop", shards=shards
        ).execute()
        assert stats.total_faults_injected > 0
        assert stats.commits > 0

    def test_chaos_deterministic(self):
        spec = ExperimentSpec(
            "ssca2", "ClusterTM", 4, scale=0.1, faults="mixed", shards=2
        )
        assert spec.execute().to_dict() == spec.execute().to_dict()


class TestSanitizerOracle:
    @pytest.mark.parametrize(
        "workload_name, shards, irrevocable_after",
        [
            pytest.param("ssca2", 4, None, id="ssca2"),
            pytest.param("vacation", 4, None, id="vacation"),
            # The cluster-wide escape hatch, taken after every abort.
            *(
                pytest.param(w, n, 1, id=f"{w}-shards{n}-irrevocable1")
                for w in ("ssca2", "vacation")
                for n in (2, 4)
            ),
        ],
    )
    def test_multi_shard_history_serializable(
        self, workload_name, shards, irrevocable_after
    ):
        from repro.exec.spec import WORKLOAD_REGISTRY
        from repro.sanitizer.dynamic import run_sanitized

        report, _, _ = run_sanitized(
            WORKLOAD_REGISTRY[workload_name],
            ClusterTMBackend(shards=shards, irrevocable_after=irrevocable_after),
            8,
            scale=0.1,
            seed=1,
        )
        assert report.ok, report.summary()

    def test_cross_shard_fixture_serializable(self):
        from repro.sanitizer import SanitizerBackend

        backend = SanitizerBackend(ClusterTMBackend(shards=2, partition="range"))
        total, _, _ = run_two_shard_transfers(backend=backend)
        assert total == 200
        report = backend.report("xfer")
        assert report.ok, report.summary()


class TestValidation:
    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError):
            ClusterTMBackend(shards=0)

    def test_spec_rejects_shards_on_single_node_backends(self):
        with pytest.raises(ValueError):
            ExperimentSpec("kmeans", "ROCoCoTM", 2, shards=2)

    def test_spec_accepts_cluster_faults(self):
        spec = ExperimentSpec("kmeans", "ClusterTM", 2, faults="drop", shards=2)
        assert spec.label() == "kmeans/ClusterTM@2tx2s+drop"

    def test_spec_hash_covers_shards(self):
        base = ExperimentSpec("kmeans", "ClusterTM", 2)
        assert base.content_hash() != base.with_(shards=2).content_hash()
