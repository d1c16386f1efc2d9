"""Compare parent and change runs of ``bench_e2e.py``, workload by workload.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py P1.json ... Pn.json C1.json ... Cn.json

The first half of the files are runs of the parent commit and the second
half runs of the change, each written by ``bench_e2e.py --out`` with the
same settings, for one workload or several.  The *i*-th run of a
workload in each half form pair *i*; alternate which side of a pair
runs first.

For every workload and every end-to-end metric of ``BENCHMARK.json``
one row shows each side's median and quartiles, the share of pairs the
change won (ties count for neither side), and a verdict:

* ``improved`` -- at least ten pairs, the change won at least nine
  tenths of them, and the medians differ in its favour by more than the
  distance between the parent's quartiles;
* ``unresolved`` -- the parent's own spread (quartile distance over
  median) is wider than the metric's bound, and not every change run
  beat every parent run;
* ``worse`` -- the change's median is worse than the parent's by more
  than the bound;
* ``no-worse`` -- otherwise.

A workload on which the change fails more cells than the parent gets
the verdict ``failures`` on every metric: no gain counts there.
The exit code is 1 when any row reads ``worse`` or ``failures``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def _quartiles(values: Sequence[float]):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> dict:
    """Apply the comparison rule to paired runs of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = _quartiles(parent)
    c_q1, c_med, c_q3 = _quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = len(parent)
    gain = sign * (c_med - p_med)
    spread = p_q3 - p_q1
    if pairs >= MIN_PAIRS_FOR_GAIN and wins >= WIN_SHARE_FOR_GAIN * pairs and gain > spread:
        outcome = "improved"
    elif spread > bound * abs(p_med) and not all(
        sign * (c - p) > 0 for c in change for p in parent
    ):
        outcome = "unresolved"
    elif -gain > bound * abs(p_med):
        outcome = "worse"
    else:
        outcome = "no-worse"
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "wins": wins,
        "pairs": pairs,
        "verdict": outcome,
    }


def _results(docs: List[dict], workload: str) -> List[dict]:
    """*workload*'s results, in file order, from the documents that ran it."""
    return [d["workloads"][workload] for d in docs if workload in d["workloads"]]


def compare(parent_docs: List[dict], change_docs: List[dict], metrics: List[dict]) -> List[dict]:
    """One row per workload and end-to-end metric that both sides
    measured the same number of times; the *i*-th run of a workload on
    each side form a pair."""
    workloads = dict.fromkeys(w for d in parent_docs + change_docs for w in d["workloads"])
    rows = []
    for workload in workloads:
        parent, change = _results(parent_docs, workload), _results(change_docs, workload)
        more_failures = sum(len(r["failed"]) for r in change) > sum(
            len(r["failed"]) for r in parent
        )
        for spec in metrics:
            name = spec["name"]
            p_values = [r["metrics"][name]["value"] for r in parent if name in r["metrics"]]
            c_values = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
            if len(p_values) != len(c_values) or len(p_values) < 2:
                continue
            row = verdict(p_values, c_values, spec["better"], spec["bound"])
            if more_failures:
                row["verdict"] = "failures"
            row.update(workload=workload, metric=name, unit=spec["unit"], bound=spec["bound"])
            rows.append(row)
    return rows


def _fmt(stat) -> str:
    median, q1, q3 = stat
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Parent-vs-change verdicts per workload and end-to-end metric."
    )
    parser.add_argument("runs", nargs="+", type=Path, help="parent runs, then change runs")
    args = parser.parse_args(argv)
    if len(args.runs) % 2 or len(args.runs) < 4:
        parser.error("give an equal number (at least two) of parent and change runs")
    docs = []
    for path in args.runs:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    with open(BENCHMARK, encoding="utf-8") as fh:
        metrics: List[Dict] = json.load(fh)["end_to_end"]
    half = len(docs) // 2
    rows = compare(docs[:half], docs[half:], metrics)
    if half < MIN_PAIRS_FOR_GAIN:
        print(f"# {half} pairs: fewer than {MIN_PAIRS_FOR_GAIN}, so no gain can be claimed")
    print(f"{'workload':16s} {'metric':12s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>7s}  verdict (bound)")
    for row in rows:
        print(
            f"{row['workload']:16s} {row['metric']:12s} {_fmt(row['parent']):34s} "
            f"{_fmt(row['change']):34s} {row['wins']:>3d}/{row['pairs']:<3d}  "
            f"{row['verdict']} ({row['bound']:.0%})"
        )
    return 1 if any(row["verdict"] in ("worse", "failures") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
