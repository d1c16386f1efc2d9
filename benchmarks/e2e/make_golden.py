"""Regenerate ``golden.json``, the digests ``bench_e2e.py`` checks against.

For every cell of every workload at each golden seed, the digest is the
sha256 of ``RunStats.to_dict()`` as sorted-key JSON, produced through
``ExperimentSpec.execute()``.  Seed 1 is the benchmark's default; seed 2
is held out for checking a claim on a seed not used while writing it.

Regenerate only when a change is meant to move simulated results, and
say why in the same commit.  Run from the repository root::

    python3 benchmarks/e2e/make_golden.py
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Iterable

import bench_e2e

GOLDEN_SEEDS = (1, 2)


def golden_digests(
    workloads: Iterable[bench_e2e.Workload],
    seeds: Iterable[int] = GOLDEN_SEEDS,
    scale: float = bench_e2e.SCALE,
) -> Dict[str, str]:
    digests = {}
    for seed in seeds:
        for workload in workloads:
            for spec in bench_e2e.specs_for(workload, seed, scale):
                key = bench_e2e.cell_key(spec)
                if key not in digests:
                    digests[key] = bench_e2e.digest(spec.execute())
    return dict(sorted(digests.items()))


def main() -> int:
    bench_e2e.use_source_tree()
    document = {
        "about": (
            "sha256 of RunStats.to_dict() as sorted-key JSON per cell, from "
            "ExperimentSpec.execute(); regenerate with make_golden.py"
        ),
        "seeds": list(GOLDEN_SEEDS),
        "digests": golden_digests(bench_e2e.WORKLOADS.values()),
    }
    with open(bench_e2e.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(document['digests'])} digests to {bench_e2e.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
