"""Observability through the exec layer: specs, runners, stamps."""

import json

from repro.exec import (
    ExperimentSpec,
    ResultCache,
    SerialRunner,
    SupervisedRunner,
    bench_stamp_payload,
    write_bench_stamp,
)
from repro.bench import matrix_from_results, matrix_specs
from repro.stamp import Ssca2Workload


def obs_specs():
    return [
        ExperimentSpec("ssca2", "ROCoCoTM", nt, scale=0.2, seed=1, obs=True)
        for nt in (1, 2, 4)
    ]


class TestSpecObs:
    def test_execute_attaches_metrics(self):
        spec = ExperimentSpec("ssca2", "ROCoCoTM", 2, scale=0.2, seed=1, obs=True)
        stats = spec.execute()
        assert stats.metrics is not None
        assert stats.metrics["counters"]["txn.commits"] == stats.commits

    def test_obs_off_by_default(self):
        spec = ExperimentSpec("ssca2", "ROCoCoTM", 2, scale=0.2, seed=1)
        assert spec.execute().metrics is None

    def test_obs_changes_content_hash(self):
        base = ExperimentSpec("ssca2", "ROCoCoTM", 2, scale=0.2, seed=1)
        observed = base.with_(obs=True)
        assert base.content_hash() != observed.content_hash()

    def test_obs_does_not_change_outcomes(self):
        base = ExperimentSpec("ssca2", "ROCoCoTM", 2, scale=0.2, seed=1)
        plain = base.execute()
        observed = base.with_(obs=True).execute()
        assert observed.commits == plain.commits
        assert observed.aborts_by_cause == plain.aborts_by_cause
        assert observed.makespan_ns == plain.makespan_ns

    def test_canonical_roundtrip_keeps_obs(self):
        spec = ExperimentSpec("ssca2", "ROCoCoTM", 2, scale=0.2, seed=1, obs=True)
        assert ExperimentSpec.from_dict(spec.canonical()) == spec


class TestRunnerTransport:
    def test_pool_snapshots_bit_identical_to_serial(self):
        specs = obs_specs()
        serial = SerialRunner().run(specs)
        pooled = SupervisedRunner(max_workers=2).run(specs)
        for left, right in zip(serial, pooled):
            assert left.metrics is not None
            assert json.dumps(left.metrics, sort_keys=True) == json.dumps(
                right.metrics, sort_keys=True
            )

    def test_cache_roundtrips_metrics(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        [spec] = obs_specs()[:1]
        [fresh] = SerialRunner(cache=cache).run([spec])
        [cached] = SerialRunner(cache=cache).run([spec])
        assert cache.hits == 1
        assert cached.metrics == fresh.metrics


class TestBenchStampMetrics:
    def _payload(self, runner):
        specs = matrix_specs(
            workloads=[Ssca2Workload],
            threads=(1, 2),
            scale=0.2,
            seed=1,
            obs=True,
        )
        results = runner.run(specs)
        matrix = matrix_from_results(specs, results)
        return bench_stamp_payload(matrix, specs, 0.0, results=results)

    def test_stamp_carries_merged_metrics(self):
        payload = self._payload(SerialRunner())
        assert "metrics" in payload
        cells = payload["metrics"]["cells"]
        assert len(cells) == len(payload["specs"])
        merged = payload["metrics"]["merged"]
        total = sum(
            cell["snapshot"]["counters"]["txn.commits"] for cell in cells
        )
        assert merged["counters"]["txn.commits"] == total

    def test_pool_stamp_metrics_identical_to_serial(self):
        serial = self._payload(SerialRunner())["metrics"]
        pooled = self._payload(SupervisedRunner(max_workers=2))["metrics"]
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_no_metrics_section_without_obs(self):
        specs = matrix_specs(
            workloads=[Ssca2Workload], threads=(1,), scale=0.2, seed=1
        )
        results = SerialRunner().run(specs)
        matrix = matrix_from_results(specs, results)
        payload = bench_stamp_payload(matrix, specs, 0.0, results=results)
        assert "metrics" not in payload

    def test_write_bench_stamp_passes_results(self, tmp_path):
        specs = matrix_specs(
            workloads=[Ssca2Workload], threads=(1,), scale=0.2, seed=1, obs=True
        )
        results = SerialRunner().run(specs)
        matrix = matrix_from_results(specs, results)
        out = tmp_path / "BENCH_stamp.json"
        write_bench_stamp(str(out), matrix, specs, 0.0, results=results)
        payload = json.loads(out.read_text())
        assert payload["metrics"]["merged"]["counters"]["txn.commits"] > 0
