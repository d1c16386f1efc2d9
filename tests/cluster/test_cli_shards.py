"""The ``--shards`` surface: stamp/chaos/fig10 flags, guards, env."""

import pytest

from repro.cli import main


class TestStampShards:
    def test_cluster_stamp_runs(self, capsys):
        assert main(["stamp", "ssca2", "ClusterTM", "--threads", "8",
                     "--shards", "4", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "ssca2/ClusterTM@8t" in out

    def test_shards_require_clustertm(self, capsys):
        assert main(["stamp", "ssca2", "ROCoCoTM", "--shards", "2",
                     "--scale", "0.1"]) == 1
        assert "requires the ClusterTM backend" in capsys.readouterr().err

    def test_cluster_accepts_faults(self, capsys):
        assert main(["stamp", "ssca2", "ClusterTM", "--threads", "4",
                     "--shards", "2", "--faults", "drop",
                     "--scale", "0.1"]) == 0
        assert "ssca2/ClusterTM" in capsys.readouterr().out

    def test_faults_still_guarded_on_other_backends(self, capsys):
        assert main(["stamp", "ssca2", "TinySTM", "--faults", "drop",
                     "--scale", "0.1"]) == 1
        assert "ROCoCoTM or ClusterTM" in capsys.readouterr().err

    def test_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        assert main(["stamp", "ssca2", "ClusterTM", "--threads", "4",
                     "--scale", "0.1"]) == 0
        assert "ssca2/ClusterTM@4t" in capsys.readouterr().out


class TestChaosShards:
    def test_cluster_chaos_matrix(self, capsys):
        assert main(["chaos", "ssca2", "--shards", "2",
                     "--schedule", "drop", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Chaos matrix" in out and "drop" in out

    def test_sanitize_conflicts_with_shards(self, capsys):
        assert main(["chaos", "ssca2", "--shards", "2", "--sanitize",
                     "--schedule", "drop", "--scale", "0.1"]) == 1
        assert "single-node" in capsys.readouterr().err


class TestFig10Shards:
    def test_cluster_column_and_ratio_table(self, capsys):
        assert main(["fig10", "--scale", "0.1", "--workloads", "ssca2",
                     "--threads", "4", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "ClusterTM" in out
        assert "Cluster scale-out ratio (2 shards)" in out

    def test_default_stays_single_node(self, capsys):
        assert main(["fig10", "--scale", "0.1", "--workloads", "ssca2",
                     "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "ClusterTM" not in out


class TestListShards:
    def test_list_names_cluster_backend(self, capsys):
        assert main(["list"]) == 0
        assert "ClusterTM" in capsys.readouterr().out


class TestObservedShards:
    def test_trace_cluster(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "ssca2", "ClusterTM", "--threads", "4",
                     "--shards", "2", "--scale", "0.1",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_metrics_cluster(self, capsys):
        assert main(["metrics", "ssca2", "ClusterTM", "--threads", "4",
                     "--shards", "2", "--scale", "0.1"]) == 0
        assert "shard.single_commits" in capsys.readouterr().out


#: one minimal invocation per verb that takes --shards.
SHARDED_VERBS = {
    "stamp": ["stamp", "ssca2", "ClusterTM", "--scale", "0.1"],
    "chaos": ["chaos", "ssca2", "--schedule", "drop", "--scale", "0.1"],
    "fig10": ["fig10", "--scale", "0.1", "--workloads", "ssca2", "--threads", "4"],
    "trace": ["trace", "ssca2", "ClusterTM", "--scale", "0.1", "--out", "unused.json"],
    "metrics": ["metrics", "ssca2", "ClusterTM", "--scale", "0.1"],
}


class TestShardsBelowOne:
    """A shard count below 1 is refused on every verb, by ExperimentSpec,
    never coerced to a single-node run."""

    @pytest.mark.parametrize("verb", sorted(SHARDED_VERBS))
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_flag_rejected(self, verb, count, capsys):
        assert main(SHARDED_VERBS[verb] + ["--shards", count]) == 1
        assert "shards must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", sorted(SHARDED_VERBS))
    def test_env_rejected(self, verb, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "0")
        assert main(SHARDED_VERBS[verb]) == 1
        assert "shards must be at least 1" in capsys.readouterr().err
