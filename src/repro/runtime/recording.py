"""History recording as an event-bus subscriber: any run, post-hoc verified.

:class:`HistoryRecorder` subscribes to a simulator's
:class:`~repro.runtime.events.EventBus` and rebuilds the complete
multi-version execution history — including the reads of *aborted*
attempts — as a :class:`repro.semantics.History`.  After the run, the
semantics layer can then check:

* **conflict serializability** of the committed transactions
  (acyclicity of ``->_rw`` — the §3.2 iff-condition), with a verified
  serial witness;
* **opacity** (§5.3 footnote 7): every attempt, aborted ones included,
  observed a consistent snapshot — aborted transactions must never
  see impossible states, or zombie executions could fault.

This turns the formalization of section 3 into a runtime oracle for
the systems of section 5: the same code that proves the write-skew
history non-serializable audits arbitrary simulated executions.

:class:`RecordingBackend` is the composition shim: wrapping a backend
keeps the established ``RecordingBackend(inner)`` construction (and
lets the recorder piggyback on ``attach``), but the wrapper's five
hooks are now pure delegation — all observation flows through the bus,
one instrumentation path shared with statistics and the sanitizer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..analysis.registry import HISTORY_KINDS
from ..semantics import History
from ..semantics.serializability import assert_serializable, explain_cycle
from .backend import TMBackend
from .events import EventBus, SimEvent


class HistoryRecorder:
    """Rebuilds a :class:`History` from the simulator's event stream.

    Attempt ids are minted here, on ``begin`` events, exactly as the
    old hook-intercepting recorder minted them in ``begin()`` — so the
    attempt vocabulary (1, 2, 3, ... in begin order, pseudo-attempts
    interleaved) is unchanged.  Version attribution matches observed
    values against committed writers' stored values; colliding values
    can only *under*-report anomalies, never invent them, so a failing
    oracle always means a real bug.
    """

    def __init__(self) -> None:
        self.history = History()
        self._attempt_id = 0
        self._current: Dict[int, int] = {}
        self._writes: Dict[int, Set[int]] = {}
        #: addr -> {attempt: stored value} (for version attribution).
        self.written_values: Dict[int, Dict[int, Any]] = {}
        #: addr -> last committed writer (for the write-back oracle).
        self.last_writer: Dict[int, int] = {}
        self._committed_set: Set[int] = set()
        self.aborted_attempts: List[int] = []
        self.committed_attempts: List[int] = []
        #: version observed by the most recent read event (the
        #: attempt's own id for read-own-write) — consumed by the
        #: sanitizer's log subscriber, which runs right after us.
        self.last_read_version: Optional[int] = None

    def install(self, bus: EventBus) -> None:
        bus.subscribe(self._on_event, kinds=HISTORY_KINDS)

    # ------------------------------------------------------------------
    def attempt_of(self, tid: int) -> Optional[int]:
        """The open attempt id of thread *tid* (None outside txns)."""
        return self._current.get(tid)

    def new_attempt_id(self) -> int:
        self._attempt_id += 1
        return self._attempt_id

    # ------------------------------------------------------------------
    def _on_event(self, event: SimEvent) -> None:
        kind = event.kind
        if kind == "begin":
            self._on_begin(event)
        elif kind == "read":
            self._on_read(event)
        elif kind == "write":
            self._on_write(event)
        elif kind == "commit":
            self._on_commit(event)
        else:  # abort
            self._on_abort(event)

    def _on_begin(self, event: SimEvent) -> None:
        attempt = event.attempt
        if attempt is None:
            attempt = self.new_attempt_id()
        else:  # explicit ids (trace replays): keep the counter ahead.
            self._attempt_id = max(self._attempt_id, attempt)
        self._current[event.tid] = attempt
        self._writes[attempt] = set()
        self.history.begin(attempt)

    def _on_read(self, event: SimEvent) -> None:
        attempt = self._current.get(event.tid)
        if attempt is None:  # read outside any attempt: not ours.
            return
        if event.addr in self._writes[attempt]:
            # Read-own-write, served from the write buffer: no
            # inter-transaction dependency.
            self.last_read_version = attempt
            return
        version = event.version
        if version is None:
            version = self._version_of(event.addr, event.value)
        self.history.read(attempt, event.addr, version=version)
        self.last_read_version = version

    def _on_write(self, event: SimEvent) -> None:
        attempt = self._current.get(event.tid)
        if attempt is None:
            return
        self._writes[attempt].add(event.addr)
        self.history.write(attempt, event.addr)
        self.written_values.setdefault(event.addr, {})[attempt] = event.value

    def _on_commit(self, event: SimEvent) -> None:
        attempt = self._current.pop(event.tid, None)
        if attempt is None:
            return
        self.history.commit(attempt)
        self.committed_attempts.append(attempt)
        self._committed_set.add(attempt)
        for addr in self._writes[attempt]:
            self.last_writer[addr] = attempt

    def _on_abort(self, event: SimEvent) -> None:
        if not event.began:
            # Aborts raised from begin() never opened an attempt.
            return
        self.close_attempt(event.tid)

    # ------------------------------------------------------------------
    def record_direct_commit(self, batch: Dict[int, Any]) -> int:
        """Fold a batch of direct (non-transactional) stores into the
        history as one committed pseudo-transaction; returns its
        attempt id.  See the sanitizer for why this is the correct
        semantics of a quiesced phase boundary."""
        attempt = self.new_attempt_id()
        self.history.begin(attempt)
        for addr, value in sorted(batch.items()):
            self.history.write(attempt, addr)
            self.written_values.setdefault(addr, {})[attempt] = value
        self.history.commit(attempt)
        self._committed_set.add(attempt)
        for addr in batch:
            self.last_writer[addr] = attempt
        return attempt

    def close_attempt(self, tid: int) -> None:
        """Abort whatever attempt *tid* has open (no-op otherwise)."""
        attempt = self._current.pop(tid, None)
        if attempt is not None:
            self.history.abort(attempt)
            self.aborted_attempts.append(attempt)

    def finish_stragglers(self) -> None:
        for tid in list(self._current):
            self.close_attempt(tid)

    # ------------------------------------------------------------------
    def _version_of(self, addr: int, value: Any) -> int:
        last = self.last_writer.get(addr)
        stored = self.written_values.get(addr, {})
        if last is not None and stored.get(last) == value:
            return last
        for attempt in sorted(stored, reverse=True):
            if attempt in self._committed_set and stored[attempt] == value:
                return attempt
        return -1  # the initial version

    # ------------------------------------------------------------------
    # Post-run oracles
    # ------------------------------------------------------------------
    def verify_serializable(self) -> List[int]:
        """Assert committed attempts are conflict-serializable; returns
        the verified serial witness (attempt ids)."""
        self.finish_stragglers()
        return assert_serializable(self.history)

    def check_serializable(self) -> Optional[List[int]]:
        """Like :meth:`verify_serializable` but returns None on failure
        instead of raising (for negative tests, e.g. against SI)."""
        self.finish_stragglers()
        rw = self.history.rw_dependencies()
        if explain_cycle(rw) is not None:
            return None
        return rw.topological_order()

    def verify_opacity(self) -> None:
        """Every attempt — aborted ones included — read a consistent
        snapshot: grafting the attempt into the committed history as a
        read-only observer must keep the dependencies acyclic.
        (Aborted writes never installed versions, so only the reads
        contribute edges.)"""
        self.finish_stragglers()
        committed = set(self.history.committed)
        for attempt in self.aborted_attempts:
            if not self.history.record(attempt).reads:
                continue
            rw = self.history.rw_dependencies(committed | {attempt})
            cycle = explain_cycle(rw)
            if cycle and attempt in cycle:
                raise AssertionError(
                    f"opacity violation: aborted attempt {attempt} observed "
                    f"an inconsistent snapshot (cycle {cycle})"
                )


class RecordingBackend(TMBackend):
    """Delegates everything to *inner*; recording rides the event bus.

    The wrapper exists for composition — ``RecordingBackend(inner)``
    is how call sites opt a run into history recording — but observes
    nothing itself: ``attach`` subscribes a :class:`HistoryRecorder`
    to the simulator's bus and the five hooks below are verbatim
    pass-throughs.
    """

    def __init__(self, inner: TMBackend):
        super().__init__()
        self.inner = inner
        self.name = f"recorded({inner.name})"
        self.metadata_footprint = inner.metadata_footprint
        self.backoff_scale = inner.backoff_scale
        self.recorder = HistoryRecorder()

    def attach(self, simulator) -> None:
        super().attach(simulator)
        self.inner.attach(simulator)
        self.recorder.install(simulator.bus)

    # -- pure delegation ------------------------------------------------
    def begin(self, tid: int, now: float) -> float:
        return self.inner.begin(tid, now)

    def read(self, tid: int, addr: int, now: float) -> Tuple[Any, float]:
        return self.inner.read(tid, addr, now)

    def write(self, tid: int, addr: int, value: Any, now: float) -> float:
        return self.inner.write(tid, addr, value, now)

    def commit(self, tid: int, now: float) -> float:
        return self.inner.commit(tid, now)

    def rollback(self, tid: int, now: float, cause: str) -> float:
        return self.inner.rollback(tid, now, cause)

    def abort_backoff_scale(self, cause: str) -> float:
        return self.inner.abort_backoff_scale(cause)

    def local_threads(self, tid: int) -> int:
        return self.inner.local_threads(tid)

    def run_finished(self) -> None:
        self.inner.run_finished()

    # -- recorder façade (the established oracle surface) ---------------
    @property
    def history(self) -> History:
        return self.recorder.history

    @property
    def aborted_attempts(self) -> List[int]:
        return self.recorder.aborted_attempts

    @property
    def committed_attempts(self) -> List[int]:
        return self.recorder.committed_attempts

    def verify_serializable(self) -> List[int]:
        return self.recorder.verify_serializable()

    def check_serializable(self) -> Optional[List[int]]:
        return self.recorder.check_serializable()

    def verify_opacity(self) -> None:
        self.recorder.verify_opacity()

    def _finish_stragglers(self) -> None:
        self.recorder.finish_stragglers()
