"""The dynamic TM sanitizer: subscribe, record, replay, judge.

:class:`SanitizerBackend` opts any runtime backend (rococotm,
tinystm, tinystm_etl, tsx, si_mvcc, coarse_lock, ...) into full
instrumentation.  Since the event-bus refactor it observes nothing in
the hook path itself: the simulator publishes every state transition
on its :class:`~repro.runtime.events.EventBus`, and the sanitizer is
a pair of bus subscribers bracketing the shared
:class:`~repro.runtime.recording.HistoryRecorder` — a *pre* handler
that folds pending direct stores into the history before the recorder
sees the next transactional operation, and a *log* handler that
appends the timed :class:`TxEvent` after the recorder has attributed
versions.  Direct (non-transactional) stores still arrive through
:meth:`Memory.subscribe`, discriminated from backend write-backs by
the bus's ``in_backend`` flag rather than a private wrapper flag.

After the run, :meth:`SanitizerBackend.report` replays the recorded
history through the semantics oracles:

1. **serializability** of the committed set — acyclic ``->_rw`` plus a
   serial-replay-verified witness (:func:`assert_serializable`);
2. **opacity** — every aborted attempt grafts into the committed
   history as a read-only observer without creating a cycle;
3. **doomed reads** — for each opacity violation, the minimal read
   prefix that already cycles names the first "zombie" read;
4. **lost updates** — a committed read-modify-write must have observed
   the version immediately preceding its own in version order;
5. **write-back races** — final memory must hold exactly the last
   committed writer's value for every transactionally-written cell.

The differential mode (:func:`diff_backends`) runs one STAMP workload
under two backends with identical seeds and diffs final committed
memory; divergence is reported as a note (racy-but-serializable
programs may diverge benignly) unless ``strict`` is set.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.registry import HISTORY_KINDS
from ..runtime import Memory, Simulator, TMBackend
from ..runtime.events import SimEvent
from ..runtime.recording import RecordingBackend
from ..semantics.serializability import explain_cycle, replay_serially, serialization_witness
from .events import EventLog, TxEvent
from .report import SanitizeReport, Violation


class SanitizerBackend(RecordingBackend):
    """Any backend, instrumented: event log + post-run oracle replay."""

    def __init__(self, inner: TMBackend):
        super().__init__(inner)
        self.name = f"sanitized({inner.name})"
        self.log = EventLog()
        self._tid_of: Dict[int, int] = {}
        self._memory_mismatches = []
        #: pending direct (non-transactional) stores, addr -> value.
        self._nt_pending: Dict[int, object] = {}
        #: pseudo-attempt ids minted for direct-store batches.
        self.nt_attempts = []
        #: attempt ids captured by the pre-handler before the recorder
        #: closes them (commit/abort pop the recorder's current map).
        self._stashed: Dict[int, Optional[int]] = {}
        self._bus = None

    def attach(self, simulator) -> None:
        # Subscription order is the instrumentation contract: the pre
        # handler flushes direct stores *before* the recorder processes
        # the next transactional op (so version attribution sees the
        # phase boundary), and the log handler runs *after* it (so the
        # observed read version is already computed).
        self._bus = simulator.bus
        simulator.bus.subscribe(self._pre_event, kinds=HISTORY_KINDS)
        super().attach(simulator)  # HistoryRecorder subscribes here.
        simulator.bus.subscribe(self._log_event, kinds=HISTORY_KINDS)
        self.memory.subscribe(self._on_direct_store)

    # ------------------------------------------------------------------
    # Non-transactional stores (workload phase code under a barrier).
    #
    # STAMP ports legally mutate memory directly between barriers —
    # e.g. kmeans' thread-0 reduce resets the accumulators.  Left
    # unmodeled, later transactional reads of the stored cells would be
    # attributed to stale versions and every oracle would report
    # phantom cycles (a false positive on even the global-lock
    # backend).  Each batch of consecutive direct stores is recorded as
    # one committed pseudo-transaction: the writes install new versions
    # at a single serial point, which is exactly the semantics of a
    # quiesced phase boundary.
    # ------------------------------------------------------------------
    def _on_direct_store(self, addr: int, value) -> None:
        if self._bus is None or not self._bus.in_backend:
            self._nt_pending[addr] = value

    def _flush_direct_stores(self, now: float = 0.0) -> None:
        if not self._nt_pending:
            return
        batch, self._nt_pending = self._nt_pending, {}
        attempt = self.recorder.record_direct_commit(batch)
        self.nt_attempts.append(attempt)
        self.log.append(TxEvent("begin", attempt, -1, now))
        for addr, value in sorted(batch.items()):
            self.log.append(TxEvent("write", attempt, -1, now, addr=addr, value=value))
        self.log.append(TxEvent("commit", attempt, -1, now))

    # ------------------------------------------------------------------
    # Bus subscribers
    # ------------------------------------------------------------------
    def _pre_event(self, event: SimEvent) -> None:
        kind = event.kind
        if kind != "abort":
            self._flush_direct_stores(event.time)
        if kind in ("commit", "abort"):
            self._stashed[event.tid] = self.recorder.attempt_of(event.tid)

    def _log_event(self, event: SimEvent) -> None:
        kind, tid = event.kind, event.tid
        if kind == "begin":
            attempt = self.recorder.attempt_of(tid)
            self._tid_of[attempt] = tid
            self.log.append(TxEvent("begin", attempt, tid, event.time))
            return
        if kind in ("read", "write"):
            attempt = self.recorder.attempt_of(tid)
            if attempt is None:
                return
            if kind == "read":
                self.log.append(
                    TxEvent(
                        "read",
                        attempt,
                        tid,
                        event.time,
                        addr=event.addr,
                        value=event.value,
                        version=self.recorder.last_read_version,
                    )
                )
            else:
                self.log.append(
                    TxEvent(
                        "write", attempt, tid, event.time, addr=event.addr, value=event.value
                    )
                )
            return
        # commit/abort closed the attempt inside the recorder; use the
        # id the pre-handler stashed.
        attempt = self._stashed.pop(tid, None)
        if attempt is None:
            return
        if kind == "commit":
            self.log.append(TxEvent("commit", attempt, tid, event.time))
        else:
            self.log.append(
                TxEvent("abort", attempt, tid, event.time, cause=event.cause)
            )

    def run_finished(self) -> None:
        super().run_finished()
        self._flush_direct_stores()
        self._check_final_memory()

    # ------------------------------------------------------------------
    # Post-run analysis
    # ------------------------------------------------------------------
    def _check_final_memory(self) -> None:
        """Write-back race check: every transactionally written cell
        must hold the last committed writer's value."""
        memory = self.memory
        if memory is None:
            return
        recorder = self.recorder
        for addr, writer in sorted(recorder.last_writer.items()):
            expected = recorder.written_values[addr][writer]
            actual = memory.load(addr)
            if actual != expected:
                self._memory_mismatches.append((addr, writer, expected, actual))

    def report(self, workload: str = "") -> SanitizeReport:
        """Replay the recorded history through every oracle."""
        self.recorder.finish_stragglers()
        history = self.history
        rep = SanitizeReport(
            backend=self.name,
            workload=workload,
            attempts=len(self.committed_attempts) + len(self.aborted_attempts),
            committed=len(self.committed_attempts),
            aborted=len(self.aborted_attempts),
        )

        # 1. serializability of the committed set, witness replayed.
        rw = history.rw_dependencies()
        cycle = explain_cycle(rw)
        if cycle is not None:
            rep.add(
                Violation(
                    "serializability",
                    f"committed set has dependency cycle {cycle}",
                    attempts=tuple(cycle),
                )
            )
        else:
            witness = serialization_witness(rw)
            if witness is not None and not replay_serially(history, witness):
                rep.add(
                    Violation(
                        "serializability",
                        "topological witness failed serial replay "
                        "(dependency extraction inconsistent)",
                    )
                )

        # 2+3. opacity of aborted attempts, localized to the doomed read.
        committed = set(history.committed)
        for attempt in self.aborted_attempts:
            if not history.record(attempt).reads:
                continue
            bad = explain_cycle(history.rw_dependencies(committed | {attempt}))
            if bad and attempt in bad:
                rep.add(
                    Violation(
                        "opacity",
                        f"aborted attempt {attempt} observed an inconsistent "
                        f"snapshot (cycle {bad})",
                        attempts=(attempt,),
                    )
                )
                doomed = self._first_doomed_read(attempt, committed)
                if doomed is not None:
                    obj, version = doomed
                    rep.add(
                        Violation(
                            "doomed-read",
                            f"attempt {attempt} was doomed by reading "
                            f"version {version} of object {obj} "
                            f"(zombie continued past an invalid snapshot)",
                            attempts=(attempt,),
                            addr=obj,
                        )
                    )

        # 4. lost updates among committed read-modify-writes.
        for txn in history.committed:
            rec = history.record(txn)
            for obj in sorted(rec.writes & rec.read_set):
                order = history.version_order(obj)
                observed = rec.reads[obj]
                if observed not in order:
                    continue  # observed an uncommitted value; see 5.
                mine = order.index(txn)
                if order.index(observed) < mine - 1:
                    lost = order[mine - 1]
                    rep.add(
                        Violation(
                            "lost-update",
                            f"txn {txn} overwrote object {obj} having read "
                            f"version {observed}, silently discarding "
                            f"committed version {lost}",
                            attempts=(txn, lost),
                            addr=obj,
                        )
                    )

        # 5. write-back races against final memory.
        for addr, writer, expected, actual in self._memory_mismatches:
            rep.add(
                Violation(
                    "writeback-race",
                    f"final memory[{addr}] = {actual!r} but last committed "
                    f"writer {writer} stored {expected!r}",
                    attempts=(writer,),
                    addr=addr,
                )
            )
        return rep

    def _first_doomed_read(self, attempt: int, committed: set):
        """The earliest read whose addition makes the graft cyclic."""
        rec = self.history.record(attempt)
        full = dict(rec.reads)
        items = list(full.items())
        try:
            for k in range(1, len(items) + 1):
                rec.reads = dict(items[:k])
                cycle = explain_cycle(
                    self.history.rw_dependencies(committed | {attempt})
                )
                if cycle and attempt in cycle:
                    return items[k - 1]
        finally:
            rec.reads = full
        return None


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def run_sanitized(
    workload_cls,
    backend: TMBackend,
    n_threads: int,
    scale: float = 1.0,
    seed: int = 0,
    verify: bool = True,
):
    """Run one STAMP workload instrumented; returns
    ``(report, sanitized_backend, memory)`` for callers that also want
    the event log or the final heap (the CLI's ``--dump-log``,
    :func:`diff_backends`)."""
    memory = Memory()
    workload = workload_cls(memory, n_threads, scale=scale, seed=seed)
    sanitized = SanitizerBackend(backend)
    simulator = Simulator(
        sanitized,
        n_threads,
        memory=memory,
        seed=seed,
        workload_name=workload.name,
    )
    simulator.run([workload.program] * n_threads)
    report = sanitized.report(workload=workload.name)
    if verify:
        try:
            workload.verify()
        except AssertionError as failure:
            report.add(
                Violation("verify-failed", f"workload invariant violated: {failure}")
            )
    report.notes.append(f"makespan {simulator.stats.makespan_ns:.0f} ns")
    return report, sanitized, memory


def sanitize_stamp(
    workload_cls,
    backend: TMBackend,
    n_threads: int,
    scale: float = 1.0,
    seed: int = 0,
    verify: bool = True,
) -> SanitizeReport:
    """Run one STAMP workload under a sanitized backend; full report."""
    report, _, _ = run_sanitized(
        workload_cls, backend, n_threads, scale=scale, seed=seed, verify=verify
    )
    return report


def diff_backends(
    workload_cls,
    backend_a: TMBackend,
    backend_b: TMBackend,
    n_threads: int,
    scale: float = 1.0,
    seed: int = 0,
    strict: bool = False,
) -> SanitizeReport:
    """Differential mode: same workload + seed under two backends.

    Each side runs fully sanitized; the combined report carries both
    sides' violations plus the committed-state diff.  Divergent cells
    are notes by default — thread interleavings legally differ across
    backends, so racy-but-serializable programs may produce different
    (individually correct) final states — and ``state-divergence``
    violations under ``strict``.
    """

    report_a, _, memory_a = run_sanitized(
        workload_cls, backend_a, n_threads, scale=scale, seed=seed
    )
    report_b, _, memory_b = run_sanitized(
        workload_cls, backend_b, n_threads, scale=scale, seed=seed
    )

    combined = SanitizeReport(
        backend=f"{backend_a.name} vs {backend_b.name}",
        workload=report_a.workload,
        attempts=report_a.attempts + report_b.attempts,
        committed=report_a.committed + report_b.committed,
        aborted=report_a.aborted + report_b.aborted,
    )
    for side in (report_a, report_b):
        combined.violations.extend(side.violations)

    span = max(memory_a.allocated, memory_b.allocated)
    diverged = [
        addr
        for addr in range(span)
        if (memory_a.load(addr) if addr < memory_a.allocated else None)
        != (memory_b.load(addr) if addr < memory_b.allocated else None)
    ]
    if diverged:
        detail = (
            f"{len(diverged)} of {span} cells differ "
            f"(first few: {diverged[:8]})"
        )
        if strict:
            combined.add(
                Violation("state-divergence", detail, addr=diverged[0])
            )
        else:
            combined.notes.append(
                f"committed state diverged: {detail} — both sides verified, "
                "so the divergence is schedule-dependent, not a violation"
            )
    else:
        combined.notes.append(f"committed state identical across {span} cells")
    return combined
