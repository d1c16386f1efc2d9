"""Machine-readable sweep results: ``BENCH_stamp.json``.

One file per harness invocation, recording what was run (the canonical
specs), what came out (the matrix cells), how long it took
(wall-clock), and how much the :class:`~repro.exec.cache.ResultCache`
saved (hit rate) — the perf trajectory of the repo, trackable across
commits and uploadable as a CI artifact.
"""

from __future__ import annotations

import json
import os
import platform

# Run provenance (when was this stamp generated) is the one sanctioned
# wall-clock read: it annotates the artifact, never the results, and
# the stamp equality check excludes it.  SOURCE_DATE_EPOCH (the
# reproducible-builds convention) pins it — and zeroes wall_clock_s —
# so two runs of the same sweep can be compared byte-for-byte.
import time  # tm: ignore[TM101]
from dataclasses import asdict
from typing import Optional, Sequence

from .cache import ResultCache, code_fingerprint
from .runner import Runner
from .spec import ExperimentSpec

STAMP_VERSION = 1


def source_date_epoch() -> Optional[int]:
    """The pinned SOURCE_DATE_EPOCH, or None when it is unset.

    Per the reproducible-builds specification the value must be a
    plain decimal count of seconds; anything else raises ValueError
    rather than silently pinning the stamp to some other epoch.
    """
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    if pinned is None:
        return None
    if not (pinned.isascii() and pinned.isdigit()):
        raise ValueError(
            f"SOURCE_DATE_EPOCH={pinned!r} is malformed: expected a "
            "non-negative integer count of seconds since the Unix epoch"
        )
    return int(pinned)


def _provenance_clock(wall_clock_s: float):
    """(generated_at, wall_clock_s), honoring SOURCE_DATE_EPOCH.

    With the env var set, the stamp's two wall-clock fields become
    functions of it alone — the kill/resume bit-identity guarantee
    (and the CI crash-smoke byte comparison) rests on this.
    """
    epoch = source_date_epoch()
    if epoch is not None:
        # Not an ambient read: a pure function of the pinned epoch.
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))  # tm: ignore[TM101]
        return stamp, 0.0
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())  # tm: ignore[TM101]
    return stamp, round(wall_clock_s, 6)


def bench_stamp_payload(
    matrix,
    specs: Sequence[ExperimentSpec],
    wall_clock_s: float,
    runner: Optional[Runner] = None,
    cache: Optional[ResultCache] = None,
    results=None,
) -> dict:
    """The JSON-ready record of one sweep.

    *results* (the runner's per-spec :class:`RunStats`, in spec order)
    adds a ``metrics`` section when any cell ran with observability:
    per-cell snapshots plus their merged aggregate.  Snapshots merge
    counter-by-counter and bucket-by-bucket, so a pool-sharded sweep
    stamps byte-identically to a serial one.
    """
    generated_at, wall_clock_s = _provenance_clock(wall_clock_s)
    payload = {
        "version": STAMP_VERSION,
        "generated_at": generated_at,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "code_fingerprint": code_fingerprint(),
        "runner": runner.name if runner is not None else "serial",
        "wall_clock_s": wall_clock_s,
        "n_specs": len(specs),
        "specs": [spec.canonical() for spec in specs],
        "cells": [asdict(cell) for cell in matrix.cells],
    }
    if isinstance(runner, Runner) and getattr(runner, "fallback_reason", None):
        payload["runner_fallback"] = runner.fallback_reason
    quarantined = getattr(runner, "quarantined", None)
    if quarantined:
        # Quarantine diagnostics ride in the stamp so a partial sweep
        # is still a complete record: which cells are missing, and why.
        payload["quarantined"] = [
            quarantined[index] for index in sorted(quarantined)
        ]
    if cache is not None:
        payload["cache"] = {
            "root": str(cache.root),
            "lookups": cache.lookups,
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": round(cache.hit_rate, 6),
        }
    if results is not None:
        observed = [
            (spec, stats)
            for spec, stats in zip(specs, results)
            if getattr(stats, "metrics", None) is not None
        ]
        if observed:
            from ..obs import merge_metric_snapshots

            payload["metrics"] = {
                "cells": [
                    {"label": spec.label(), "snapshot": stats.metrics}
                    for spec, stats in observed
                ],
                "merged": merge_metric_snapshots(
                    [stats.metrics for _, stats in observed]
                ),
            }
    return payload


def write_bench_stamp(
    path: str,
    matrix,
    specs: Sequence[ExperimentSpec],
    wall_clock_s: float,
    runner: Optional[Runner] = None,
    cache: Optional[ResultCache] = None,
    results=None,
) -> dict:
    """Write the sweep record to *path*; returns the payload."""
    payload = bench_stamp_payload(
        matrix, specs, wall_clock_s, runner, cache, results=results
    )
    with open(path, "w") as sink:
        json.dump(payload, sink, indent=1, sort_keys=True)
        sink.write("\n")
    return payload
