"""Sanitizer self-check: known-bad fixtures every oracle must catch.

A validator that never fires is indistinguishable from a validator
that works.  ``repro sanitize --self-check`` runs deliberately broken
TM implementations (and known-anomalous executions) through the full
instrumentation pipeline and asserts each oracle actually flags them:

* ``write-skew``      — the classic SI anomaly on the live SI-MVCC
  backend must produce a serializability violation;
* ``lost-update``     — an STM with validation disabled must commit
  lost updates (and a dependency cycle) on a contended counter;
* ``writeback-race``  — a backend with a torn write-back (drops one
  buffered write) must trip the final-memory oracle;
* ``opacity``         — a zombie read (inconsistent snapshot in an
  aborted attempt) must produce opacity + doomed-read violations;
* ``lint-rules``      — every TM001-TM004 analyzer rule must fire on
  its negative snippet, and the repo's own ``src/repro`` must pass them;
* ``clean-run``       — a correct backend must produce zero violations
  (guards against the sanitizer crying wolf).

Each fixture backend here is intentionally wrong; none is exported
through the package API.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..analysis.framework import analyze_paths, analyze_source, parse_rules
from ..runtime import (
    ManualDriver,
    Memory,
    Read,
    Simulator,
    SnapshotIsolationBackend,
    TinySTMBackend,
    TMBackend,
    Transaction,
    TransactionAborted,
    Work,
    Write,
)
from .dynamic import SanitizerBackend


class SelfCheckFailure(AssertionError):
    """One of the sanitizer's own fixtures went undetected."""


# ----------------------------------------------------------------------
# Broken backends (fixtures — deliberately wrong)
# ----------------------------------------------------------------------
class _NoValidationSTM(TMBackend):
    """Buffered writes, snapshot-free reads, commit never validates.

    The textbook recipe for lost updates: two increments read the same
    initial value and both commit.
    """

    name = "broken-no-validation"
    #: per-tid buffers are thread-private slots; the bug under test is
    #: the missing validation, not the bookkeeping.
    _sanitizer_locked = ("_buffers",)

    def __init__(self) -> None:
        super().__init__()
        self._buffers: Dict[int, Dict[int, Any]] = {}

    def begin(self, tid: int, now: float) -> float:
        self._buffers[tid] = {}
        return now + 5.0

    def read(self, tid: int, addr: int, now: float) -> Tuple[Any, float]:
        buffer = self._buffers[tid]
        if addr in buffer:
            return buffer[addr], now + 2.0
        return self.memory.load(addr), now + 2.0

    def write(self, tid: int, addr: int, value: Any, now: float) -> float:
        self._buffers[tid][addr] = value
        return now + 2.0

    def commit(self, tid: int, now: float) -> float:
        for addr, value in self._buffers.pop(tid).items():
            self.memory.store(addr, value)
        return now + 5.0

    def rollback(self, tid: int, now: float, cause: str) -> float:
        self._buffers.pop(tid, None)
        return now + 5.0


class _TornWritebackSTM(_NoValidationSTM):
    """Like :class:`_NoValidationSTM`, but commit drops the write to
    the highest buffered address — a torn write-back."""

    name = "broken-torn-writeback"

    def commit(self, tid: int, now: float) -> float:
        buffer = self._buffers.pop(tid)
        torn = max(buffer) if len(buffer) > 1 else None
        for addr, value in buffer.items():
            if addr != torn:
                self.memory.store(addr, value)
        return now + 5.0


class _PlainBackend(TMBackend):
    """In-place reads/writes, no concurrency control at all; used to
    hand-construct interleavings against the raw hook API."""

    name = "broken-plain"

    def begin(self, tid: int, now: float) -> float:
        return now

    def read(self, tid: int, addr: int, now: float) -> Tuple[Any, float]:
        return self.memory.load(addr), now

    def write(self, tid: int, addr: int, value: Any, now: float) -> float:
        self.memory.store(addr, value)
        return now

    def commit(self, tid: int, now: float) -> float:
        return now

    def rollback(self, tid: int, now: float, cause: str) -> float:
        return now


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _check_write_skew() -> None:
    memory = Memory()
    base = memory.alloc(2)
    memory.store(base, 1)
    memory.store(base + 1, 1)

    def make_body(offset):
        def body():
            x = yield Read(base)
            y = yield Read(base + 1)
            yield Work(800)
            if x + y >= 2:
                yield Write(base + offset, 0)

        return body

    def make_program(offset):
        def program(tid):
            yield Transaction(make_body(offset))

        return program

    backend = SanitizerBackend(SnapshotIsolationBackend())
    Simulator(backend, 2, memory=memory, seed=0).run(
        [make_program(0), make_program(1)]
    )
    report = backend.report(workload="write-skew")
    if not report.by_kind("serializability"):
        raise SelfCheckFailure(
            "SI write-skew went undetected:\n" + report.summary()
        )


def _counter_programs(base: int, increments: int):
    def body():
        value = yield Read(base)
        yield Work(300)
        yield Write(base, value + 1)

    def program(tid):
        for _ in range(increments):
            yield Transaction(body)
            yield Work(50)

    return program


def _check_lost_update() -> None:
    memory = Memory()
    base = memory.alloc(1)
    memory.store(base, 0)
    backend = SanitizerBackend(_NoValidationSTM())
    Simulator(backend, 4, memory=memory, seed=0).run(
        [_counter_programs(base, 6)] * 4
    )
    report = backend.report(workload="contended-counter")
    if not report.by_kind("lost-update") or not report.by_kind("serializability"):
        raise SelfCheckFailure(
            "no-validation STM's lost updates went undetected:\n" + report.summary()
        )


def _check_writeback_race() -> None:
    memory = Memory()
    base = memory.alloc(2)

    def body():
        a = yield Read(base)
        b = yield Read(base + 1)
        yield Write(base, a + 1)
        yield Write(base + 1, b + 1)

    def program(tid):
        for _ in range(3):
            yield Transaction(body)

    backend = SanitizerBackend(_TornWritebackSTM())
    Simulator(backend, 2, memory=memory, seed=0).run([program] * 2)
    report = backend.report(workload="torn-writeback")
    if not report.by_kind("writeback-race"):
        raise SelfCheckFailure(
            "torn write-back went undetected:\n" + report.summary()
        )


def _check_opacity() -> None:
    """Hand-emit a zombie interleaving on the event bus: T1 reads x,
    T2 commits x and y, T1 reads y — an inconsistent snapshot — then
    aborts.  (This also exercises the bus end-to-end: the sanitizer
    must reconstruct the anomaly purely from the event stream.)"""
    from ..runtime.events import SimEvent

    memory = Memory()
    x = memory.alloc(1)
    y = memory.alloc(1)
    memory.store(x, 10)
    memory.store(y, 10)

    backend = SanitizerBackend(_PlainBackend())
    driver = ManualDriver(memory, backend_name="selfcheck")
    backend.attach(driver)
    bus = driver.bus

    bus.emit(SimEvent("begin", 0, 0.0))                    # T1 (attempt 1)
    bus.emit(SimEvent("read", 0, 1.0, addr=x, value=10))   # T1 reads x@initial
    bus.emit(SimEvent("begin", 1, 2.0))                    # T2 (attempt 2)
    bus.emit(SimEvent("write", 1, 3.0, addr=x, value=77))
    bus.emit(SimEvent("write", 1, 4.0, addr=y, value=88))
    bus.emit(SimEvent("commit", 1, 5.0))                   # T2 commits x and y
    bus.emit(SimEvent("read", 0, 6.0, addr=y, value=88))   # zombie read
    # T1 aborts (the backend "noticed" too late).
    bus.emit(SimEvent("abort", 0, 6.0, cause="conflict"))

    report = backend.report(workload="zombie")
    if not report.by_kind("opacity") or not report.by_kind("doomed-read"):
        raise SelfCheckFailure(
            "zombie snapshot went undetected:\n" + report.summary()
        )


_LINT_NEGATIVES = {
    "TM001": (
        "src/repro/cc/bad_entropy.py",
        "import random\n\ndef draw():\n    return random.random()\n",
    ),
    "TM002": (
        "src/repro/runtime/bad_default.py",
        "def enqueue(item, queue=[]):\n    queue.append(item)\n    return queue\n",
    ),
    "TM003": (
        "src/repro/runtime/bad_backend.py",
        "class RacyBackend:\n"
        "    def __init__(self):\n"
        "        self.global_clock = 0\n"
        "    def read(self, tid, addr, now):\n"
        "        self.global_clock += 1\n"
        "        return 0, now\n",
    ),
    "TM004": (
        "src/repro/cc/bad_record.py",
        "from dataclasses import dataclass\n\n"
        "@dataclass\n"
        "class LeakyView:\n"
        "    txn: int\n",
    ),
}


def _check_lint_rules(src_root: str = "src/repro") -> None:
    rules = parse_rules("TM001-TM004")
    for code, (path, source) in _LINT_NEGATIVES.items():
        findings = analyze_source(source, path, rules)
        if not any(f.rule == code for f in findings):
            raise SelfCheckFailure(
                f"lint rule {code} did not fire on its negative fixture "
                f"({path}); got {findings!r}"
            )
    from pathlib import Path

    if Path(src_root).is_dir():
        findings, _ = analyze_paths([src_root], rules)
        if findings:
            listing = "\n".join(str(f) for f in findings)
            raise SelfCheckFailure(f"repo sources must lint clean:\n{listing}")


def _check_clean_run() -> None:
    memory = Memory()
    base = memory.alloc(1)
    memory.store(base, 0)
    backend = SanitizerBackend(TinySTMBackend())
    Simulator(backend, 4, memory=memory, seed=0).run(
        [_counter_programs(base, 6)] * 4
    )
    report = backend.report(workload="contended-counter")
    if not report.ok:
        raise SelfCheckFailure(
            "correct backend produced violations (sanitizer false "
            "positive):\n" + report.summary()
        )
    if memory.load(base) != 4 * 6:
        raise SelfCheckFailure("clean-run fixture lost increments")


CHECKS: List[Tuple[str, Callable[[], None]]] = [
    ("write-skew", _check_write_skew),
    ("lost-update", _check_lost_update),
    ("writeback-race", _check_writeback_race),
    ("opacity", _check_opacity),
    ("lint-rules", _check_lint_rules),
    ("clean-run", _check_clean_run),
]


def run_self_check(emit=print) -> bool:
    """Run every fixture; True iff all oracles caught their bugs."""
    ok = True
    for name, check in CHECKS:
        try:
            check()
        except SelfCheckFailure as failure:
            ok = False
            emit(f"FAIL {name}: {failure}")
        except TransactionAborted as unexpected:  # pragma: no cover
            ok = False
            emit(f"FAIL {name}: fixture leaked an abort: {unexpected}")
        else:
            emit(f"ok   {name}")
    return ok
