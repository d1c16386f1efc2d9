"""Chrome trace-event / Perfetto JSON export for span traces.

Emits the `Trace Event Format`_ JSON that ``chrome://tracing`` and
``ui.perfetto.dev`` open directly:

* process 1 (``cpu``) has one lane per simulated thread;
* process 2 (``hw``) has one lane per pipeline stage (``link-req``,
  ``queue``, ``detector``, ``manager``, ``link-resp``) plus marker
  lanes for injected faults and ladder transitions;
* spans are ``"X"`` (complete) events with ``ts``/``dur`` in
  microseconds (simulated ns / 1000); markers are ``"i"`` (instant)
  events; lane names are ``"M"`` (metadata) events.

The payload is a pure function of the tracer's spans — no wall-clock
timestamps, hostnames or pids ever enter it, so the exported file is
byte-identical across runs of the same spec (the determinism
contract, DESIGN.md).

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .spans import HW_MARKER_LANES, HW_STAGES, SpanTracer

#: Chrome trace pids for the two lane groups.
CPU_PID = 1
HW_PID = 2

#: hw lane name -> tid within the hw process, in display order.
HW_LANE_TIDS = {
    name: index for index, name in enumerate(HW_STAGES + HW_MARKER_LANES)
}


def _lane_tid(pid: str, lane) -> int:
    if pid == "hw":
        # Cluster runs add per-shard lane sets named ``s<N>:<stage>``
        # (shard 0 keeps the unprefixed names): block N occupies tids
        # [N*len(base), (N+1)*len(base)) so shards group in order.
        lane = str(lane)
        if lane.startswith("s") and ":" in lane:
            prefix, _, stage = lane.partition(":")
            if stage in HW_LANE_TIDS and prefix[1:].isdigit():
                return int(prefix[1:]) * len(HW_LANE_TIDS) + HW_LANE_TIDS[stage]
        return HW_LANE_TIDS[lane]
    return int(lane)


def _lane_pid(pid: str) -> int:
    return HW_PID if pid == "hw" else CPU_PID


def chrome_trace_payload(tracer: SpanTracer, **meta) -> dict:
    """Build the trace-event payload dict for *tracer*.

    Keyword arguments land in ``otherData`` (workload, backend, seed,
    ...); values must be JSON-serializable and deterministic.  Marker
    ``args`` dicts are shared with the tracer, not copied.
    """
    tracer.finish()
    # (pid, lane) -> Chrome (pid, tid), computed once per distinct lane.
    lane_ids: Dict[tuple, Tuple[int, int]] = {}

    def ids(pid: str, lane) -> Tuple[int, int]:
        chrome = lane_ids[pid, lane] = (_lane_pid(pid), _lane_tid(pid, lane))
        return chrome

    rows: List[tuple] = []
    for span in tracer.spans:
        pid, tid = lane_ids.get((span.pid, span.lane)) or ids(span.pid, span.lane)
        start = span.start_ns
        dur = span.end_ns - start
        args = dict(span.args)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent"] = span.parent_id
        rows.append(
            (
                pid,
                tid,
                start,
                -dur,
                span.span_id,
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": start / 1000.0,
                    "dur": dur / 1000.0,
                    "args": args,
                },
            )
        )
    # Markers sort after any span opening at the same ts.
    next_id = tracer._next_id
    for index, marker in enumerate(tracer.markers):
        pid, tid = lane_ids.get((marker.pid, marker.lane)) or ids(
            marker.pid, marker.lane
        )
        rows.append(
            (
                pid,
                tid,
                marker.ts_ns,
                0.0,
                next_id + index,
                {
                    "name": marker.name,
                    "cat": marker.cat,
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid,
                    "ts": marker.ts_ns / 1000.0,
                    "args": marker.args,
                },
            )
        )
    # Per-lane time order; longer spans first at equal start so
    # children follow their enclosing parents.  Element 4 (span id, or
    # past the last id for markers) is unique, so the dicts are never
    # compared.
    rows.sort()

    # Metadata rows first: stable names so lanes line up across exports.
    events = [
        _meta(CPU_PID, 0, "process_name", {"name": "cpu (simulated threads)"}),
        _meta(HW_PID, 0, "process_name", {"name": "hw (validation pipeline)"}),
    ]
    for (pid, lane), (chrome_pid, tid) in sorted(
        lane_ids.items(), key=lambda item: item[1]
    ):
        name = f"thread {lane}" if pid == "cpu" else str(lane)
        events.append(_meta(chrome_pid, tid, "thread_name", {"name": name}))
    events.extend(row[5] for row in rows)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": dict(meta),
    }


def _meta(pid: int, tid: int, name: str, args: dict) -> dict:
    return {"name": name, "ph": "M", "pid": pid, "tid": tid, "args": args}


def write_chrome_trace(path, tracer: SpanTracer, **meta) -> dict:
    """Serialize :func:`chrome_trace_payload` to *path*; returns it.

    The file is one compact JSON object with sorted keys, written one
    trace event per line (``traceEvents`` sorts last), so it can be
    grepped and diffed line by line.
    """
    payload = chrome_trace_payload(tracer, **meta)
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    head = encode({k: v for k, v in payload.items() if k != "traceEvents"})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ',"traceEvents":[\n')
        fh.write(",\n".join(map(encode, payload["traceEvents"])))
        fh.write("\n]}\n")
    return payload
