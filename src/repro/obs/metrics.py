"""The metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints (docs/OBSERVABILITY.md):

* **Cheap when recording.** A histogram observation is one bisect
  plus four scalar updates; a counter bump is one dict update.  No
  labels, no locks — the simulator is single-threaded, and each
  experiment cell owns its own registry.
* **Deterministic snapshots.** ``snapshot()`` sorts every key and
  serializes histograms as plain lists, so two runs of the same spec
  produce byte-identical JSON, and snapshots computed in worker
  processes compare equal to serial ones.
* **Mergeable.** Fixed bucket bounds (never adaptive) are what make
  cross-shard merging exact: counters add, histogram buckets add
  element-wise, gauges combine by ``max`` (order-independent, so the
  merged result cannot depend on which shard finished first).

All recorded values are *simulated* nanoseconds or pure counts —
never wall-clock readings (the determinism contract, DESIGN.md).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Optional, Sequence

#: default latency buckets (simulated ns): 100 ns .. ~0.4 ms, doubling.
LATENCY_BOUNDS_NS = (
    100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0,
    12800.0, 25600.0, 51200.0, 102400.0, 204800.0, 409600.0,
)
#: attempt-count buckets (1 = first-try commit).
RETRY_BOUNDS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
#: sliding-window / queue occupancy buckets.
OCCUPANCY_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0)


class Histogram:
    """Fixed-bucket histogram: bucket *i* counts values in
    ``(bounds[i-1], bounds[i]]``; one overflow bucket past the end."""

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float]):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        for name in ("min", "max"):
            theirs = getattr(other, name)
            if theirs is None:
                continue
            ours = getattr(self, name)
            pick = min if name == "min" else max
            setattr(self, name, theirs if ours is None else pick(ours, theirs))

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        hist = cls(payload["bounds"])
        counts = list(payload["counts"])
        if len(counts) != len(hist.counts):
            raise ValueError("bucket count mismatch")
        hist.counts = counts
        hist.count = payload["count"]
        hist.total = payload["sum"]
        hist.min = payload["min"]
        hist.max = payload["max"]
        return hist


class MetricsRegistry:
    """Named counters, gauges and histograms for one run."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def histogram(
        self, name: str, bounds: Sequence[float] = LATENCY_BOUNDS_NS
    ) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bounds)
        return hist

    def observe(
        self, name: str, value: float, bounds: Sequence[float] = LATENCY_BOUNDS_NS
    ) -> None:
        self.histogram(name, bounds).observe(value)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-ready dict with deterministic key order."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_dict() for k in sorted(self.histograms)
            },
        }

    to_dict = snapshot


def merge_metric_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge per-cell snapshots into one aggregate snapshot.

    Counters and histogram buckets add; gauges combine by ``max``.
    Because runners return results in spec order, merging a pool
    sweep's snapshots is bit-identical to merging a serial sweep's.
    """
    merged = MetricsRegistry()
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            merged.count(name, value)
        for name, value in snap.get("gauges", {}).items():
            current = merged.gauges.get(name)
            merged.gauges[name] = value if current is None else max(current, value)
        for name, payload in snap.get("histograms", {}).items():
            hist = Histogram.from_dict(payload)
            if name in merged.histograms:
                merged.histograms[name].merge(hist)
            else:
                merged.histograms[name] = hist
    return merged.snapshot()


class MetricsCollector:
    """Bus subscriber populating a :class:`MetricsRegistry`.

    Subscribes only to the kinds it consumes — never ``read``/
    ``write``/``step`` — so enabling metrics does not switch the
    simulator's per-operation emissions on (``wants()`` stays False
    for the hot-path kinds).
    """

    KINDS = (
        "begin",
        "commit",
        "abort",
        "park",
        "wake",
        "backoff",
        "validate",
        "mask_cache",
        "route",
        "xshard",
        "shard_open",
        "fault",
        "failover",
        "failback",
        "sched",
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._attempt_start: Dict[int, float] = {}
        self._attempt_index: Dict[int, int] = {}
        self._park_start: Dict[int, float] = {}
        #: kind -> bound ``_on_<kind>`` handler, built by :meth:`install`.
        self._handlers: Dict[str, Callable] = {}
        self._bus = None

    # ------------------------------------------------------------------
    def install(self, bus) -> None:
        self._handlers = {kind: getattr(self, f"_on_{kind}") for kind in self.KINDS}
        bus.subscribe(self._on_event, kinds=self.KINDS)
        self._bus = bus

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(self._on_event)
            self._bus = None

    def instrument(self, simulator) -> None:
        """The :func:`repro.stamp.run_stamp` ``instrument`` hook."""
        self.install(simulator.bus)

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    # ------------------------------------------------------------------
    def _on_event(self, event) -> None:
        self._handlers[event.kind](event)

    def _on_begin(self, event) -> None:
        self._attempt_start[event.tid] = (
            event.start if event.start is not None else event.time
        )
        self._attempt_index[event.tid] = event.attempt_index
        self.registry.count("txn.begins")

    def _on_commit(self, event) -> None:
        reg = self.registry
        started = self._attempt_start.pop(event.tid, event.time)
        reg.count("txn.commits")
        reg.observe("txn.commit_latency_ns", event.time - started)
        attempts = self._attempt_index.pop(event.tid, 1)
        reg.observe("txn.attempts", attempts, RETRY_BOUNDS)
        if attempts > 1:
            reg.count("txn.retried_commits")

    def _on_abort(self, event) -> None:
        reg = self.registry
        self._attempt_start.pop(event.tid, None)
        reg.count("txn.aborts")
        reg.count(f"txn.aborts.{event.cause}")
        reg.observe("txn.wasted_ns", event.wasted)

    def _on_park(self, event) -> None:
        self._park_start[event.tid] = event.time
        self.registry.count("txn.parks")

    def _on_wake(self, event) -> None:
        started = self._park_start.pop(event.tid, None)
        if started is not None:
            self.registry.observe("txn.parked_ns", event.time - started)

    def _on_backoff(self, event) -> None:
        reg = self.registry
        reg.count("txn.backoffs")
        reg.observe("txn.backoff_ns", event.ns)

    def _on_validate(self, event) -> None:
        reg = self.registry
        data = event.data
        reg.count("hw.validations")
        reg.count(f"hw.mode.{data['mode']}")
        if not data["committed"]:
            reg.count("hw.validation_aborts")
        reg.observe("hw.validation_ns", data["ready_ns"] - data["sent_ns"])
        reg.observe("hw.queue_ns", data["started_ns"] - data["arrived_ns"])
        reg.observe("hw.window_occupancy", data["window_resident"], OCCUPANCY_BOUNDS)
        reg.observe("hw.occupancy_cycles", data["occupancy_cycles"], OCCUPANCY_BOUNDS)
        reg.gauge("hw.window_resident", data["window_resident"])

    def _on_mask_cache(self, event) -> None:
        # One per backend instance at end of run; counters add across
        # shards, the store-size gauge combines by max.
        reg = self.registry
        data = event.data
        reg.count("hw.mask_cache.hits", data["hits"])
        reg.count("hw.mask_cache.misses", data["misses"])
        reg.gauge("hw.mask_cache.entries", data["entries"])

    def _on_route(self, event) -> None:
        # Emitted only on *successful* cluster commits, keyed by the
        # owning (single-shard) or home (cross-shard) shard.
        reg = self.registry
        data = event.data
        if data["cross"]:
            reg.count("shard.cross_commits")
        else:
            reg.count("shard.single_commits")
        reg.count(f"shard.commits.{data['shard']}")

    def _on_xshard(self, event) -> None:
        reg = self.registry
        data = event.data
        if not data["committed"]:
            reg.count("shard.cross_aborts")
        reg.observe("shard.involved", data["involved"], OCCUPANCY_BOUNDS)
        reg.observe("shard.prepare_ns", data["decided_ns"] - data["sent_ns"])

    def _on_shard_open(self, event) -> None:
        if event.data["shard"] != event.data["home"]:
            self.registry.count("shard.remote_opens")

    def _on_fault(self, event) -> None:
        self.registry.count(f"fault.{event.data['kind']}", event.data["count"])

    def _on_failover(self, event) -> None:
        self.registry.count("ladder.failovers")

    def _on_failback(self, event) -> None:
        self.registry.count("ladder.failbacks")

    def _on_sched(self, event) -> None:
        reg = self.registry
        data = event.data
        reg.count("sched.picks", data["picks"])
        reg.count("sched.pushes", data["pushes"])
        reg.count("sched.stale_pops", data["stale_pops"])
        reg.count("sched.wakes", data["wakes"])
        reg.count("sched.wakes_coalesced", data["wakes_coalesced"])
        reg.gauge("sched.heap_high_water", data["heap_high_water"])
        reg.gauge("sched.lazy_invalidation_ratio", data["lazy_invalidation_ratio"])
