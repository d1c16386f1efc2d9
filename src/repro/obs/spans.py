"""The span tracer: per-transaction lifecycle spans over the bus.

:class:`SpanTracer` subscribes to the :class:`~repro.runtime.events.
EventBus` and assembles the flat event stream into nested spans:

* **CPU lanes** (one per simulated thread): a ``txn:<label>`` span per
  transaction *attempt*, opened at the attempt's true start (the
  ``begin`` event's ``start`` field, before the backend's begin cost)
  and closed by the matching ``commit``/``abort``.  Inside it nest a
  ``begin`` child (the backend's begin cost), ``parked:<cause>``
  children (park→wake), and — for the hybrid backend — a
  ``validate:<label>`` child covering the CPU-visible round trip.
  ``backoff`` spans sit between attempts at top level.
* **HW lanes** (one per pipeline stage): each ``validate`` event's
  timing breakdown is exploded into ``link-req`` (sent→arrived),
  ``queue`` (arrived→started), ``detector`` (started→detect_done),
  ``manager`` (detect_done→finished) and ``link-resp``
  (finished→ready) spans, so Perfetto shows the Detector/Manager
  pipeline exactly as Fig. 5 draws it.  ``fault``/``failover``/
  ``failback`` become instant markers on dedicated hw lanes.

Span ids are sequential integers minted in event-delivery order —
the stream is totally ordered (single-threaded discrete-event core),
so ids are deterministic across runs and processes.  All timestamps
are simulated nanoseconds; the tracer never reads a wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: hw pseudo-thread lanes, in display order.
HW_STAGES = ("link-req", "queue", "detector", "manager", "link-resp")
HW_MARKER_LANES = ("faults", "ladder")


@dataclass
class Span:
    """One closed (or force-closed) span; times in simulated ns."""

    span_id: int
    name: str
    cat: str
    pid: str  # "cpu" or "hw"
    lane: object  # thread id (cpu) or stage name (hw)
    start_ns: float
    end_ns: float
    parent_id: Optional[int] = None
    args: dict = field(default_factory=dict)

    @property
    def dur_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass
class Marker:
    """An instant event on a lane."""

    name: str
    cat: str
    pid: str
    lane: object
    ts_ns: float
    args: dict = field(default_factory=dict)


@dataclass
class _OpenSpan:
    span_id: int
    name: str
    cat: str
    pid: str
    lane: object
    start_ns: float
    parent_id: Optional[int]
    args: dict


class SpanTracer:
    """Assembles bus events into :class:`Span`/:class:`Marker` lists.

    ``detail=False`` skips the per-operation ``read``/``write``
    markers — and, crucially, does not *subscribe* to those kinds, so
    the simulator's ``wants()`` guard keeps the per-operation fast
    path emission-free.
    """

    BASE_KINDS = (
        "begin",
        "commit",
        "abort",
        "park",
        "wake",
        "backoff",
        "validate",
        "xshard",
        "fault",
        "failover",
        "failback",
    )
    DETAIL_KINDS = ("read", "write")

    def __init__(self, detail: bool = True) -> None:
        self.detail = detail
        self.spans: List[Span] = []
        self.markers: List[Marker] = []
        self._next_id = 1
        #: open txn span per thread: (span_id, start_ns, label).
        self._open_txn: Dict[int, Tuple[int, float, Optional[str]]] = {}
        #: open parked child per thread: (span_id, start_ns, cause, parent).
        self._open_park: Dict[int, Tuple[int, float, str, Optional[int]]] = {}
        #: cpu-lane validate children awaiting their txn's close (the
        #: child is clamped to its parent: a failed validation's
        #: round trip outlives the abort, because the model does not
        #: charge the thread for a verdict it acts on immediately).
        self._pending_validate: Dict[int, List[_OpenSpan]] = {}
        self._max_ns = 0.0
        #: kind -> bound ``_on_<kind>`` handler, built by :meth:`install`
        #: for exactly the kinds it subscribes.
        self._handlers: Dict[str, Callable] = {}
        self._bus = None

    # ------------------------------------------------------------------
    def install(self, bus) -> None:
        kinds = self.BASE_KINDS + (self.DETAIL_KINDS if self.detail else ())
        self._handlers = {kind: getattr(self, f"_on_{kind}") for kind in kinds}
        bus.subscribe(self._on_event, kinds=kinds)
        self._bus = bus

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(self._on_event)
            self._bus = None

    def instrument(self, simulator) -> None:
        """The :func:`repro.stamp.run_stamp` ``instrument`` hook."""
        self.install(simulator.bus)

    def finish(self) -> None:
        """Force-close dangling spans (run ended mid-transaction)."""
        for tid, (span_id, start, cause, parent) in sorted(self._open_park.items()):
            self._close(
                span_id, f"parked:{cause}", "sched", "cpu", tid, start,
                self._max_ns, parent, {"truncated": True},
            )
        self._open_park.clear()
        for tid, (span_id, start, label) in sorted(self._open_txn.items()):
            self._flush_validates(tid, self._max_ns)
            self._close(
                span_id, _txn_name(label), "txn", "cpu", tid, start,
                self._max_ns, None, {"outcome": "truncated"},
            )
        self._open_txn.clear()

    # ------------------------------------------------------------------
    def _mint(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _close(self, span_id, name, cat, pid, lane, start, end, parent, args):
        self.spans.append(
            Span(span_id, name, cat, pid, lane, start, end, parent, args)
        )

    def _span(self, name, cat, pid, lane, start, end, parent=None, args=None) -> int:
        span_id = self._mint()
        self._close(span_id, name, cat, pid, lane, start, end, parent, args or {})
        return span_id

    # ------------------------------------------------------------------
    def _on_event(self, event) -> None:
        if event.time > self._max_ns:
            self._max_ns = event.time
        self._handlers[event.kind](event)

    def _on_begin(self, event) -> None:
        tid = event.tid
        start = event.start if event.start is not None else event.time
        span_id = self._mint()
        self._open_txn[tid] = (span_id, start, event.label)
        self._span(
            "begin", "txn", "cpu", tid, start, event.time,
            parent=span_id, args={"attempt": event.attempt_index},
        )

    def _on_commit(self, event) -> None:
        self._close_txn(event.tid, event.time, {"outcome": "commit"})

    def _on_abort(self, event) -> None:
        args = {"outcome": "abort", "cause": event.cause}
        if event.wasted:
            args["wasted_ns"] = event.wasted
        if not event.began:
            # A begin-time abort never opened an attempt; mark the
            # instant instead of closing a span that does not exist.
            self.markers.append(
                Marker("abort:begin", "txn", "cpu", event.tid, event.time, args)
            )
            return
        self._close_txn(event.tid, event.time, args)

    def _close_txn(self, tid: int, end_ns: float, args: dict) -> None:
        open_txn = self._open_txn.pop(tid, None)
        if open_txn is None:
            return
        span_id, start, label = open_txn
        # A transaction cannot end while parked; close any leak first.
        park = self._open_park.pop(tid, None)
        if park is not None:
            park_id, park_start, cause, parent = park
            self._close(
                park_id, f"parked:{cause}", "sched", "cpu", tid, park_start,
                end_ns, parent, {},
            )
        self._flush_validates(tid, end_ns)
        self._close(span_id, _txn_name(label), "txn", "cpu", tid, start, end_ns, None, args)

    def _flush_validates(self, tid: int, end_ns: float) -> None:
        for pending in self._pending_validate.pop(tid, ()):
            self._close(
                pending.span_id, pending.name, pending.cat, pending.pid,
                pending.lane, pending.start_ns,
                max(pending.start_ns, min(pending.args["ready_ns"], end_ns)),
                pending.parent_id, pending.args,
            )

    def _on_park(self, event) -> None:
        tid = event.tid
        parent = self._open_txn.get(tid)
        span_id = self._mint()
        self._open_park[tid] = (
            span_id, event.time, event.cause or "parked",
            parent[0] if parent else None,
        )

    def _on_wake(self, event) -> None:
        park = self._open_park.pop(event.tid, None)
        if park is None:
            return
        span_id, start, cause, parent = park
        self._close(
            span_id, f"parked:{cause}", "sched", "cpu", event.tid, start,
            event.time, parent, {},
        )

    def _on_backoff(self, event) -> None:
        self._span(
            "backoff", "sched", "cpu", event.tid,
            event.time - event.ns, event.time, args={"ns": event.ns},
        )

    def _on_read(self, event) -> None:
        self.markers.append(
            Marker("read", "mem", "cpu", event.tid, event.time,
                   {"addr": event.addr}),
        )

    def _on_write(self, event) -> None:
        self.markers.append(
            Marker("write", "mem", "cpu", event.tid, event.time,
                   {"addr": event.addr}),
        )

    def _on_validate(self, event) -> None:
        data = event.data
        tid = event.tid
        parent = self._open_txn.get(tid)
        label = data.get("label")
        shard = data.get("shard", 0)
        args = {
            "n_read": data["n_read"],
            "n_write": data["n_write"],
            "committed": data["committed"],
            "reason": data["reason"],
            "mode": data["mode"],
            "shard": shard,
            "window_resident": data["window_resident"],
            # The unclamped round trip (the hw lanes show it in full).
            "sent_ns": data["sent_ns"],
            "ready_ns": data["ready_ns"],
        }
        if parent is not None:
            self._pending_validate.setdefault(tid, []).append(
                _OpenSpan(
                    self._mint(), _name("validate", label), "validate",
                    "cpu", tid, data["sent_ns"], parent[0], args,
                )
            )
        else:
            self._span(
                _name("validate", label), "validate", "cpu", tid,
                data["sent_ns"], data["ready_ns"], args=args,
            )
        # The hw pipeline lanes: consecutive stage spans per request.
        # At shard > 0 (cluster runs) each shard's engine gets its own
        # lane set, prefixed ``s<N>:``; shard 0 keeps the unprefixed
        # names so single-node traces are unchanged.
        stage_args = {"tid": tid, "label": label}
        edges = (
            ("link-req", data["sent_ns"], data["arrived_ns"]),
            ("queue", data["arrived_ns"], data["started_ns"]),
            ("detector", data["started_ns"], data["detect_done_ns"]),
            ("manager", data["detect_done_ns"], data["finished_ns"]),
            ("link-resp", data["finished_ns"], data["ready_ns"]),
        )
        for stage, start, end in edges:
            lane = stage if not shard else f"s{shard}:{stage}"
            self._span(
                _name(stage, label), "hw", "hw", lane, start, end,
                args=stage_args,
            )
        if data["ready_ns"] > self._max_ns:
            self._max_ns = data["ready_ns"]

    def _on_xshard(self, event) -> None:
        """One ``2pc`` child span on the coordinator thread's cpu lane,
        covering prepare-sent to decided (the per-shard prepares tile
        the hw lanes via their own ``validate`` events)."""
        data = event.data
        parent = self._open_txn.get(event.tid)
        self._span(
            "2pc", "validate", "cpu", event.tid,
            data["sent_ns"], data["decided_ns"],
            parent=parent[0] if parent else None,
            args={
                "involved": data["involved"],
                "remote": data["remote"],
                "committed": data["committed"],
                "reason": data["reason"],
                "n_read": data["n_read"],
                "n_write": data["n_write"],
            },
        )

    def _on_fault(self, event) -> None:
        self.markers.append(
            Marker(
                f"fault:{event.data['kind']}", "fault", "hw", "faults",
                event.time, {"count": event.data["count"]},
            )
        )

    def _on_failover(self, event) -> None:
        self._ladder_marker("failover", event)

    def _on_failback(self, event) -> None:
        self._ladder_marker("failback", event)

    def _ladder_marker(self, name: str, event) -> None:
        self.markers.append(
            Marker(name, "ladder", "hw", "ladder", event.time, dict(event.data or {}))
        )


def _txn_name(label: Optional[str]) -> str:
    return _name("txn", label)


def _name(prefix: str, label: Optional[str]) -> str:
    return f"{prefix}:{label}" if label else prefix
