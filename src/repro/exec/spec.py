"""ExperimentSpec: the canonical name of one simulated run.

A spec is a *value*, not a process: a frozen dataclass whose fields
pin down everything that influences a run's outcome — workload,
backend, thread count, scale, seed, fault plan, cost-model overrides.
Because the simulator is deterministic (every RNG is seeded from spec
fields), the spec fully determines the resulting :class:`RunStats`;
that is what makes specs shardable across processes
(:mod:`repro.exec.runner`) and cacheable by content hash
(:mod:`repro.exec.cache`).

Workloads and backends are named by *registry key*, not by object:
names survive pickling, hashing and JSON round-trips, and the
registries here are the single source of truth the CLI and the bench
harness both use (they used to each keep their own dict).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..cluster import ClusterTMBackend
from ..runtime import (
    CoarseLockBackend,
    CostModel,
    RococoTMBackend,
    RunStats,
    SequentialBackend,
    SnapshotIsolationBackend,
    TinySTMBackend,
    TinySTMEtlBackend,
    TsxBackend,
)
from ..stamp import (
    ALL_WORKLOADS,
    CONTENTION_VARIANTS,
    EXTRA_WORKLOADS,
    run_stamp,
)

#: backend registry key -> zero-argument factory.  Keys are the
#: backends' ``name`` attributes, so ``RunStats.backend`` matches the
#: spec's ``backend`` field on every plain run.
BACKEND_REGISTRY = {
    cls.name: cls
    for cls in (
        SequentialBackend,
        CoarseLockBackend,
        TinySTMBackend,
        TinySTMEtlBackend,
        TsxBackend,
        RococoTMBackend,
        SnapshotIsolationBackend,
        ClusterTMBackend,
    )
}

#: backends whose validation path accepts fault schedules (the chaos
#: layer injects into each node's FPGA engine).
FAULT_CAPABLE_BACKENDS = ("ROCoCoTM", "ClusterTM")

#: workload registry key -> StampWorkload subclass.
WORKLOAD_REGISTRY = {
    cls.name: cls for cls in ALL_WORKLOADS + CONTENTION_VARIANTS + EXTRA_WORKLOADS
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One (workload, backend, threads, scale, seed, faults, costs) cell."""

    workload: str
    backend: str
    n_threads: int
    scale: float = 0.5
    seed: int = 1
    #: run the workload's final-state invariant check.
    verify: bool = True
    #: named fault schedule (``repro.faults.BUILTIN_SCHEDULES``);
    #: requires the ROCoCoTM backend, as in the CLI.
    faults: Optional[str] = None
    fault_seed: int = 0
    #: irrevocable escape hatch after N consecutive aborts (chaos runs).
    irrevocable_after: Optional[int] = None
    #: sorted ``((field, value), ...)`` CostModel overrides; a tuple so
    #: the spec stays hashable and the hash stays order-independent.
    cost_model: Tuple[Tuple[str, float], ...] = ()
    #: attach the observability layer (:mod:`repro.obs`): the returned
    #: stats carry a metric snapshot in ``stats.metrics``.  Part of the
    #: content hash — an observed run is a different (if decision-
    #: identical) experiment from an unobserved one.
    obs: bool = False
    #: shard count for the ClusterTM backend (docs/CLUSTER.md); 1 for
    #: every single-node backend.
    shards: int = 1

    def __post_init__(self):
        if self.workload not in WORKLOAD_REGISTRY:
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.backend not in BACKEND_REGISTRY:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.n_threads < 1:
            raise ValueError("n_threads must be at least 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.faults is not None and self.backend not in FAULT_CAPABLE_BACKENDS:
            raise ValueError(
                "fault schedules inject into the FPGA validation path "
                "and require the ROCoCoTM or ClusterTM backend"
            )
        if self.irrevocable_after is not None and self.backend not in FAULT_CAPABLE_BACKENDS:
            raise ValueError(
                "irrevocable_after sets the escape hatch of the hybrid "
                "commit path and requires the ROCoCoTM or ClusterTM backend"
            )
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.shards > 1 and self.backend != "ClusterTM":
            raise ValueError(
                f"shards={self.shards} requires the ClusterTM backend "
                f"(got {self.backend!r})"
            )
        valid = {f for f in CostModel.__dataclass_fields__}
        for name, _ in self.cost_model:
            if name not in valid:
                raise ValueError(f"unknown CostModel field {name!r}")
        # Canonicalize override order so equal specs hash equally.
        object.__setattr__(
            self, "cost_model", tuple(sorted(self.cost_model))
        )

    # ------------------------------------------------------------------
    def canonical(self) -> Dict:
        """A JSON-ready dict with deterministic key order."""
        payload = asdict(self)
        payload["cost_model"] = [list(pair) for pair in self.cost_model]
        return {key: payload[key] for key in sorted(payload)}

    def content_hash(self) -> str:
        """Stable sha256 over the canonical form — the cache key's
        spec half (:mod:`repro.exec.cache` adds the code half)."""
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, payload: Dict) -> "ExperimentSpec":
        payload = dict(payload)
        payload["cost_model"] = tuple(
            (str(name), value) for name, value in payload.get("cost_model", ())
        )
        return cls(**payload)

    def with_(self, **changes) -> "ExperimentSpec":
        """A copy with *changes* applied (dataclasses.replace)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    def make_backend(self):
        if self.backend == "ClusterTM":
            return ClusterTMBackend(
                shards=self.shards,
                faults=self.faults,
                fault_seed=self.fault_seed,
                irrevocable_after=self.irrevocable_after,
            )
        if self.faults is not None:
            from ..faults import build_chaos_backend

            return build_chaos_backend(
                self.faults,
                self.fault_seed,
                irrevocable_after=self.irrevocable_after,
            )
        if self.backend == "ROCoCoTM":
            return RococoTMBackend(irrevocable_after=self.irrevocable_after)
        return BACKEND_REGISTRY[self.backend]()

    def make_cost_model(self) -> Optional[CostModel]:
        if not self.cost_model:
            return None
        return CostModel(**dict(self.cost_model))

    def execute(self) -> RunStats:
        """Run the cell to completion; deterministic in the spec."""
        collector = None
        instrument = None
        if self.obs:
            from ..obs import MetricsCollector

            collector = MetricsCollector()
            instrument = collector.instrument
        stats = run_stamp(
            WORKLOAD_REGISTRY[self.workload],
            self.make_backend(),
            self.n_threads,
            scale=self.scale,
            seed=self.seed,
            cost_model=self.make_cost_model(),
            verify=self.verify,
            instrument=instrument,
        )
        if collector is not None:
            stats.metrics = collector.snapshot()
        return stats

    def label(self) -> str:
        tag = f"{self.workload}/{self.backend}@{self.n_threads}t"
        if self.shards > 1:
            tag += f"x{self.shards}s"
        if self.faults:
            tag += f"+{self.faults}"
        return tag
