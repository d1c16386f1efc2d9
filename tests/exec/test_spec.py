"""ExperimentSpec: canonical naming, hashing, execution."""

import pytest

from repro.exec import BACKEND_REGISTRY, WORKLOAD_REGISTRY, ExperimentSpec
from repro.runtime import CostModel


class TestRegistries:
    def test_backend_keys_are_backend_names(self):
        for key, factory in BACKEND_REGISTRY.items():
            assert factory.name == key
        assert {"sequential", "TinySTM", "TSX", "ROCoCoTM"} <= set(BACKEND_REGISTRY)

    def test_workload_keys_are_workload_names(self):
        for key, cls in WORKLOAD_REGISTRY.items():
            assert cls.name == key
        assert {"kmeans", "ssca2", "vacation", "genome"} <= set(WORKLOAD_REGISTRY)


class TestValidation:
    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            ExperimentSpec("no-such-app", "TinySTM", 2)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            ExperimentSpec("kmeans", "no-such-tm", 2)

    def test_faults_require_rococotm(self):
        with pytest.raises(ValueError):
            ExperimentSpec("kmeans", "TinySTM", 2, faults="drop")

    @pytest.mark.parametrize("backend", ["TinySTM", "TSX", "sequential"])
    def test_irrevocable_after_requires_a_hatch(self, backend):
        with pytest.raises(ValueError, match="irrevocable_after"):
            ExperimentSpec("kmeans", backend, 2, irrevocable_after=1)

    @pytest.mark.parametrize("faults", [None, "drop"])
    def test_irrevocable_after_reaches_rococotm(self, faults):
        spec = ExperimentSpec(
            "vacation", "ROCoCoTM", 8, scale=0.1, faults=faults, irrevocable_after=1
        )
        assert spec.make_backend().hatch.after == 1

    def test_unknown_cost_field(self):
        with pytest.raises(ValueError):
            ExperimentSpec("kmeans", "TinySTM", 2, cost_model=(("warp_speed", 2.0),))

    def test_bad_threads_and_scale(self):
        with pytest.raises(ValueError):
            ExperimentSpec("kmeans", "TinySTM", 0)
        with pytest.raises(ValueError):
            ExperimentSpec("kmeans", "TinySTM", 2, scale=0.0)


class TestHashing:
    def test_hash_is_stable(self):
        a = ExperimentSpec("kmeans", "TinySTM", 4, scale=0.25, seed=3)
        b = ExperimentSpec("kmeans", "TinySTM", 4, scale=0.25, seed=3)
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_hash_covers_every_field(self):
        base = ExperimentSpec("kmeans", "ROCoCoTM", 4, scale=0.25, seed=3)
        variants = [
            base.with_(workload="ssca2"),
            base.with_(backend="TinySTM"),
            base.with_(n_threads=8),
            base.with_(scale=0.5),
            base.with_(seed=4),
            base.with_(verify=False),
            base.with_(faults="drop"),
            base.with_(fault_seed=1),
            base.with_(irrevocable_after=6),
            base.with_(cost_model=(("backoff_base_ns", 100.0),)),
        ]
        hashes = {base.content_hash()} | {v.content_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_cost_model_order_canonicalized(self):
        a = ExperimentSpec(
            "kmeans", "TinySTM", 2,
            cost_model=(("smt_penalty", 1.2), ("backoff_base_ns", 80.0)),
        )
        b = ExperimentSpec(
            "kmeans", "TinySTM", 2,
            cost_model=(("backoff_base_ns", 80.0), ("smt_penalty", 1.2)),
        )
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_round_trip(self):
        spec = ExperimentSpec(
            "vacation", "ROCoCoTM", 8, scale=0.3, seed=7,
            faults="mixed", fault_seed=2,
            cost_model=(("physical_cores", 8),),
        )
        assert ExperimentSpec.from_dict(spec.canonical()) == spec


class TestExecution:
    def test_execute_is_deterministic(self):
        spec = ExperimentSpec("kmeans", "TinySTM", 4, scale=0.2, seed=1)
        assert spec.execute().to_dict() == spec.execute().to_dict()

    def test_stats_carry_spec_identity(self):
        spec = ExperimentSpec("ssca2", "ROCoCoTM", 2, scale=0.2, seed=1)
        stats = spec.execute()
        assert stats.workload == "ssca2"
        assert stats.backend == "ROCoCoTM"
        assert stats.n_threads == 2
        assert stats.commits > 0

    def test_cost_model_override_changes_outcome(self):
        base = ExperimentSpec("kmeans", "TinySTM", 28, scale=0.2, seed=1)
        relaxed = base.with_(cost_model=(("smt_penalty", 1.0),))
        assert base.make_cost_model() is None
        assert relaxed.make_cost_model() == CostModel(smt_penalty=1.0)
        # SMT penalty off => 28-thread run gets strictly faster.
        assert relaxed.execute().makespan_ns < base.execute().makespan_ns

    def test_faulted_execution_runs_chaos_backend(self):
        spec = ExperimentSpec(
            "kmeans", "ROCoCoTM", 2, scale=0.2, seed=1,
            faults="drop", fault_seed=0,
        )
        stats = spec.execute()
        assert stats.total_faults_injected > 0

    def test_label(self):
        assert (
            ExperimentSpec("kmeans", "TinySTM", 4, scale=0.2).label()
            == "kmeans/TinySTM@4t"
        )
        assert (
            ExperimentSpec(
                "kmeans", "ROCoCoTM", 4, scale=0.2, faults="stall"
            ).label()
            == "kmeans/ROCoCoTM@4t+stall"
        )
