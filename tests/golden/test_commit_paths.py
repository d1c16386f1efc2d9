"""The commit paths' golden: ROCoCoTM and ClusterTM runs that reach the
escape hatch, the fault ladder and the cross-shard commit.

``golden.json`` runs no ``irrevocable_after`` and no faults, so nothing
there reaches the irrevocable escape hatch.  ``commit_paths.json`` pins:

* ``cells`` — sha256 of ``RunStats.to_dict()`` (compact JSON, sorted
  keys) for each cell below at 8 threads, scale 0.1, seed 1, both
  unobserved and observed (span tracer and metrics collector attached,
  so the snapshot lands in ``RunStats.metrics``);
* ``exhausted_ladder`` — the same digest for the stall run whose
  validation ladder has no software rung (kmeans, 4 threads, scale
  0.25): it reaches the forced hatch and the phantom slots;
* ``traces`` — sha256 of the Chrome trace payload, compact with sorted
  keys, of vacation on ROCoCoTM and on ClusterTM at 2 shards (both
  shapes of the ``validate`` event, single-node and ``xshard``), of
  kmeans on ClusterTM at 2 shards under ``faults=stall`` (``fault`` and
  ``ladder`` markers and the ``s<N>:`` hw lanes), and of vacation on
  ROCoCoTM traced with ``detail=False`` (no read/write markers).

Regenerate only when a change is meant to move simulated results, and
say why in the same commit.  From the repository root::

    PYTHONPATH=src python -m tests.golden.test_commit_paths
"""

import hashlib
import json
from pathlib import Path

from repro.cluster import ClusterTMBackend
from repro.faults import build_chaos_backend
from repro.faults.degradation import DegradationPolicy
from repro.obs import chrome_trace_payload, observe_stamp
from repro.runtime import RococoTMBackend
from repro.stamp import KmeansWorkload, Ssca2Workload, VacationWorkload, run_stamp

GOLDEN = Path(__file__).with_name("commit_paths.json")

THREADS = 8
SCALE = 0.1
SEED = 1

#: label -> (workload, backend factory)
CELLS = {
    "ROCoCoTM/vacation/irrevocable_after=1": (
        VacationWorkload, lambda: RococoTMBackend(irrevocable_after=1),
    ),
    "ClusterTM/vacation/shards=2/irrevocable_after=1": (
        VacationWorkload, lambda: ClusterTMBackend(shards=2, irrevocable_after=1),
    ),
    "ClusterTM/kmeans/shards=4/irrevocable_after=1": (
        KmeansWorkload, lambda: ClusterTMBackend(shards=4, irrevocable_after=1),
    ),
    "ClusterTM/ssca2/shards=2/faults=stall": (
        Ssca2Workload, lambda: ClusterTMBackend(shards=2, faults="stall"),
    ),
    "ClusterTM/vacation/shards=4": (
        VacationWorkload, lambda: ClusterTMBackend(shards=4),
    ),
}

#: label -> (workload, backend factory, tracer detail)
TRACES = {
    "ROCoCoTM/vacation": (VacationWorkload, lambda: RococoTMBackend(), True),
    "ClusterTM/vacation/shards=2": (
        VacationWorkload, lambda: ClusterTMBackend(shards=2), True,
    ),
    "ClusterTM/kmeans/shards=2/faults=stall": (
        KmeansWorkload, lambda: ClusterTMBackend(shards=2, faults="stall"), True,
    ),
    "ROCoCoTM/vacation/detail=False": (
        VacationWorkload, lambda: RococoTMBackend(), False,
    ),
}


def _sha256(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _run(workload, backend, observed: bool, threads=THREADS, scale=SCALE):
    if observed:
        stats, _, _ = observe_stamp(workload, backend, threads, scale=scale, seed=SEED)
    else:
        stats = run_stamp(workload, backend, threads, scale=scale, seed=SEED)
    return _sha256(stats.to_dict())


def _exhausted_ladder() -> str:
    backend = build_chaos_backend(
        "stall", fault_seed=0, policy=DegradationPolicy(software_failover=False)
    )
    return _run(KmeansWorkload, backend, observed=False, threads=4, scale=0.25)


def _trace(workload, make_backend, detail: bool) -> str:
    _, tracer, _ = observe_stamp(
        workload, make_backend(), THREADS, scale=SCALE, seed=SEED,
        metrics=False, detail=detail,
    )
    return _sha256(chrome_trace_payload(tracer))


def golden() -> dict:
    return {
        "cells": {
            f"{label}/{'observed' if observed else 'unobserved'}": _run(
                workload, make_backend(), observed
            )
            for label, (workload, make_backend) in CELLS.items()
            for observed in (False, True)
        },
        "exhausted_ladder": _exhausted_ladder(),
        "traces": {label: _trace(*cell) for label, cell in TRACES.items()},
    }


def test_commit_paths_reproduced():
    assert golden() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
