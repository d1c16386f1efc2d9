"""The deterministic discrete-event multicore simulator.

Substitution note (see DESIGN.md): this replaces the paper's 14-core
Haswell Xeon.  Each thread is a generator coroutine with its own
simulated clock; the scheduler always advances the thread with the
smallest clock (ties broken by thread id), so every shared-state
operation executes atomically at a well-defined simulated instant and
runs are bit-for-bit reproducible.  Speedups (Fig. 10) are ratios of
*makespans* — the largest thread clock at completion — against the
sequential baseline.

Thread programs yield :class:`Transaction` and :class:`Work`;
transaction bodies yield :class:`Read`/:class:`Write`/:class:`Work`/
:class:`Alloc` (see :mod:`repro.runtime.api`).  The driver implements
the retry loop: abort -> rollback -> exponential backoff -> fresh body.

The *pick the next thread* decision lives in
:class:`repro.runtime.sched.SchedulerKernel` — an indexed min-heap
keyed by ``(clock, tid)`` with lazy invalidation, O(log T) per step
where the original inner loop rebuilt the runnable list and scanned
all T threads per event.  A step that leaves its thread runnable hands
it back through ``SchedulerKernel.advance`` — the reschedule and the
next pick as one heap operation.  The tie-break key makes every run a
pure function of its programs and seed; tests/golden/golden.json pins
the resulting stamps byte for byte.

Backends program against the narrow :class:`repro.runtime.driver.
Driver` protocol — ``step_cost`` / ``park`` / ``wake_at`` / ``emit``
plus the run parameters — which this class implements; nothing outside
this module touches ``_Thread`` or the kernel.

Every state transition the driver makes — step, begin, read, write,
commit, abort, park/wake, backoff — is published on ``self.bus``
(:class:`repro.runtime.events.EventBus`), gated by a membership test on
the bus's live ``wanted`` set.  Statistics accumulation, history
recording and the sanitizer's event log are all bus subscribers;
nothing else observes the driver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, NoReturn, Optional, Sequence

from .api import (
    Alloc,
    AwaitBarrier,
    Read,
    Transaction,
    TransactionAborted,
    Work,
    Write,
)
from .backend import CostModel, ParkThread, TMBackend
from .events import EventBus, SimEvent, StatsCollector
from .memory import Memory
from .sched import SchedulerKernel
from .stats import RunStats

#: cost of the allocator fast path (a bump pointer), ns.
ALLOC_NS = 4.0


@dataclass
class _Thread:
    tid: int
    program: Generator
    clock: float = 0.0
    #: value to send into the program generator at the next step.
    program_value: Any = None
    #: active transaction state (None outside transactions).
    txn: Optional["_TxnState"] = None
    parked: bool = False
    #: why the thread parked (deadlock diagnostics); None when running.
    park_cause: Optional[str] = None
    done: bool = False
    rng: random.Random = field(default_factory=random.Random)


@dataclass
class _TxnState:
    make_body: Callable[[], Generator]
    label: Optional[str]
    body: Generator = None  # type: ignore[assignment]
    attempt: int = 0
    attempt_start: float = 0.0
    #: value to send into the body at the next step.
    body_value: Any = None
    #: operation to re-issue after a wake (parked mid-operation).
    pending_op: Any = None


class Simulator:
    """Runs thread programs against one backend; collects RunStats.

    Implements the :class:`repro.runtime.driver.Driver` protocol — the
    object handed to ``backend.attach`` *is* this simulator, but
    backends may only use the protocol surface.
    """

    def __init__(
        self,
        backend: TMBackend,
        n_threads: int,
        memory: Optional[Memory] = None,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        workload_name: str = "",
        max_steps: int = 200_000_000,
    ):
        if n_threads < 1:
            raise ValueError("need at least one thread")
        self.backend = backend
        self.n_threads = n_threads
        self.memory = memory if memory is not None else Memory()
        self.cost_model = cost_model or CostModel()
        self.seed = seed
        self.max_steps = max_steps
        self.stats = RunStats(
            backend=backend.name, workload=workload_name, n_threads=n_threads
        )
        #: the unified observation path: every driver transition is
        #: published here.  Must exist before ``backend.attach`` so
        #: recording wrappers can subscribe.
        self.bus = EventBus()
        StatsCollector(self.stats).install(self.bus)
        self._threads: List[_Thread] = []
        #: the scheduling kernel of the current run (None before the
        #: run starts).
        self._kernel: Optional[SchedulerKernel] = None
        backend.attach(self)
        #: Per-thread Work-op scale, cached off the per-step path
        #: (constant for a run: pure function of cost model and the
        #: backend's thread placement).  Single-node backends report
        #: every thread sharing all cores (``local_threads`` == T, one
        #: global SMT regime — the pre-cluster behaviour, bit-exact);
        #: a cluster backend pins threads to nodes, so each thread's
        #: scale reflects only its own node's occupancy.  Computed
        #: after ``attach`` because placement needs the driver.
        self._work_scale = [
            self.cost_model.compute_scale(backend.local_threads(tid))
            for tid in range(n_threads)
        ]
        #: transaction-op dispatch: one dict lookup on the op's exact
        #: type replaces an isinstance chain per operation.
        self._txn_ops = {
            Read: self._op_read,
            Write: self._op_write,
            Work: self._op_work,
            Alloc: self._op_alloc,
        }

    # ------------------------------------------------------------------
    # The Driver protocol (repro.runtime.driver): the only surface
    # backends and the hw/validation layers may program against.
    # ------------------------------------------------------------------
    def step_cost(self, ns: float, footprint: float = 1.0) -> float:
        """A nominal CPU cost scaled for the current SMT regime."""
        return ns * self.cost_model.compute_scale(self.n_threads, footprint)

    def park(self, tid: int) -> NoReturn:
        """Abandon the current operation; the thread blocks and the
        operation is re-issued after :meth:`wake_at`."""
        raise ParkThread()

    def wake_at(self, tid: int, at_ns: float) -> None:
        """Unpark a thread (backends call this on lock release)."""
        thread = self._threads[tid]
        if not thread.parked:
            raise RuntimeError(f"thread {tid} is not parked")
        thread.parked = False
        thread.park_cause = None
        coalesced = at_ns <= thread.clock
        thread.clock = max(thread.clock, at_ns)
        if "wake" in self.bus.wanted:
            self.bus.emit(SimEvent("wake", tid, thread.clock))
        self._kernel.wake(tid, thread.clock, coalesced)

    def wants(self, kind: str) -> bool:
        return self.bus.wants(kind)

    def emit(self, event: SimEvent) -> None:
        """``wanted``-gated publish — the backend-facing emission path."""
        if event.kind in self.bus.wanted:
            self.bus.emit(event)

    # ------------------------------------------------------------------
    def _hook(self, fn, *args):
        """Invoke a backend hook with ``bus.in_backend`` raised, so
        Memory observers can tell write-backs from direct stores."""
        bus = self.bus
        bus.in_backend = True
        try:
            return fn(*args)
        finally:
            bus.in_backend = False

    # ------------------------------------------------------------------
    def run(self, programs: Sequence[Callable[[int], Generator]]) -> RunStats:
        """Execute one program generator per thread to completion.

        ``programs[i]`` is called with the thread id to produce the
        thread's program; usually all entries are the same function.
        """
        if len(programs) != self.n_threads:
            raise ValueError("one program per thread required")
        self._threads = [
            _Thread(
                tid=tid,
                program=make(tid),
                rng=random.Random((self.seed << 20) ^ tid),
            )
            for tid, make in enumerate(programs)
        ]
        self._run_kernel()
        self.stats.makespan_ns = max(t.clock for t in self._threads)
        self._hook(self.backend.run_finished)
        if "sched" in self.bus.wanted:
            self.bus.emit(
                SimEvent(
                    "sched", -1, self.stats.makespan_ns, data=self._kernel.snapshot()
                )
            )
        return self.stats

    def _run_kernel(self) -> None:
        """The O(log T)-per-step inner loop over the heap kernel.

        A step that leaves its thread runnable hands it back through
        ``kernel.advance`` — reschedule and pick in one heap operation;
        only a retire or a park needs a separate ``pick``.  The ``step``
        gate is a membership test on the bus's live ``wanted`` set, so
        a handler subscribed mid-run is seen at the next step.
        """
        threads = self._threads
        kernel = SchedulerKernel(len(threads))
        self._kernel = kernel
        for thread in threads:
            kernel.add(thread.tid, thread.clock)
        bus = self.bus
        wanted = bus.wanted
        emit = bus.emit
        pick = kernel.pick
        advance = kernel.advance
        retire = kernel.retire
        step_program = self._step_program
        step_transaction = self._step_transaction
        max_steps = self.max_steps
        steps = 0
        tid = pick()
        while tid >= 0:
            if steps >= max_steps:
                raise RuntimeError(self._livelock_message(steps))
            thread = threads[tid]
            if "step" in wanted:
                emit(SimEvent("step", tid, thread.clock))
            if thread.txn is None:
                step_program(thread)
            else:
                step_transaction(thread)
            steps += 1
            if thread.done:
                retire(tid)
                tid = pick()
            elif thread.parked:
                # kernel.park already ran inside _park().
                tid = pick()
            else:
                tid = advance(tid, thread.clock)
        if kernel.n_live:
            raise RuntimeError(self._deadlock_message())

    # ------------------------------------------------------------------
    def _livelock_message(self, steps: int) -> str:
        return (
            f"simulation exceeded max_steps={self.max_steps} after "
            f"{steps} steps (livelock?); " + self._thread_snapshot()
        )

    def _deadlock_message(self) -> str:
        return (
            "deadlock: all live threads are parked; " + self._thread_snapshot()
        )

    def _thread_snapshot(self) -> str:
        """Per-thread state for hang diagnostics in CI logs."""
        states = []
        for t in self._threads:
            if t.done:
                state = "done"
            elif t.parked:
                state = f"parked({t.park_cause})"
            else:
                state = "runnable"
            states.append(f"t{t.tid} {state} clock={t.clock:.0f}ns")
        return "threads: " + ", ".join(states)

    def _park(self, thread: _Thread, reason: str) -> None:
        thread.parked = True
        thread.park_cause = reason
        if "park" in self.bus.wanted:
            self.bus.emit(
                SimEvent("park", thread.tid, thread.clock, cause=reason)
            )
        self._kernel.park(thread.tid)

    # ------------------------------------------------------------------
    def _step_program(self, thread: _Thread) -> None:
        try:
            op = thread.program.send(thread.program_value)
        except StopIteration:
            thread.done = True
            return
        thread.program_value = None
        if isinstance(op, Work):
            thread.clock += op.ns * self._work_scale[thread.tid]
        elif isinstance(op, Transaction):
            thread.txn = _TxnState(make_body=op.body, label=op.label)
            self._begin_attempt(thread)
        elif isinstance(op, AwaitBarrier):
            self._arrive_barrier(thread, op.barrier)
        else:
            raise TypeError(f"thread programs may not yield {op!r}")

    def _arrive_barrier(self, thread: _Thread, barrier) -> None:
        barrier.waiting.append((thread.tid, thread.clock))
        if len(barrier.waiting) < barrier.parties:
            self._park(thread, "barrier")
            return
        # Detach this batch before releasing anyone: the barrier object
        # is reusable, and a woken thread re-arriving must land in a
        # fresh waiting list, never the one being released.
        arrivals = barrier.waiting
        barrier.waiting = []
        release = max(clock for _, clock in arrivals) + barrier.cost_ns
        for tid, _ in arrivals:
            if tid == thread.tid:
                thread.clock = release
            else:
                self.wake_at(tid, release)

    def _begin_attempt(self, thread: _Thread) -> None:
        txn = thread.txn
        bus = self.bus
        while True:
            txn.body = txn.make_body()
            txn.body_value = None
            txn.pending_op = None
            txn.attempt += 1
            txn.attempt_start = thread.clock
            try:
                thread.clock = self._hook(
                    self.backend.begin, thread.tid, thread.clock
                )
                if "begin" in bus.wanted:
                    # Positional, in field order: label, attempt_index,
                    # start (a keyword call costs half as much again).
                    bus.emit(
                        SimEvent(
                            "begin", thread.tid, thread.clock, None, None, None,
                            txn.label, txn.attempt, 0.0, True, 0.0, None, None,
                            txn.attempt_start,
                        )
                    )
                return
            except ParkThread:
                # Re-begin entirely on wake (body not started yet).
                txn.body = None
                txn.pending_op = "begin"
                self._park(thread, "begin")
                return
            except TransactionAborted as aborted:
                # A begin can abort (e.g. HTM with the fallback lock
                # held); charge it like any other abort and retry.
                # ``began=False``: no attempt opened, recorders must
                # not close one.
                if aborted.at_ns is not None:
                    thread.clock = max(thread.clock, aborted.at_ns)
                bus.emit(
                    SimEvent(
                        "abort",
                        thread.tid,
                        thread.clock,
                        cause=aborted.cause,
                        began=False,
                    )
                )
                thread.clock = self._hook(
                    self.backend.rollback, thread.tid, thread.clock, aborted.cause
                )
                self._charge_backoff(thread, txn.attempt, aborted.cause)

    def _step_transaction(self, thread: _Thread) -> None:
        txn = thread.txn
        # Resume a parked operation first.
        if txn.pending_op == "begin":
            txn.pending_op = None
            txn.attempt -= 1  # _begin_attempt recounts
            self._begin_attempt(thread)
            return
        if txn.pending_op is not None:
            op = txn.pending_op
            txn.pending_op = None
        else:
            try:
                op = txn.body.send(txn.body_value)
            except StopIteration as stop:
                self._try_commit(thread, stop.value)
                return
            except TransactionAborted as aborted:  # pragma: no cover
                self._handle_abort(thread, aborted)
                return
        txn.body_value = None
        handler = self._txn_ops.get(type(op))
        if handler is None:
            raise TypeError(f"transaction bodies may not yield {op!r}")
        try:
            handler(thread, op)
        except ParkThread:
            txn.pending_op = op
            self._park(thread, "operation")
        except TransactionAborted as aborted:
            self._handle_abort(thread, aborted)

    # Transaction-op handlers (the ``_txn_ops`` table).  Read and write
    # raise ``bus.in_backend`` inline, as :meth:`_hook` does.
    def _op_read(self, thread: _Thread, op: Read) -> None:
        bus = self.bus
        bus.in_backend = True
        try:
            value, ready = self.backend.read(thread.tid, op.addr, thread.clock)
        finally:
            bus.in_backend = False
        thread.clock = ready
        thread.txn.body_value = value
        if "read" in bus.wanted:
            bus.emit(SimEvent("read", thread.tid, ready, op.addr, value))

    def _op_write(self, thread: _Thread, op: Write) -> None:
        bus = self.bus
        bus.in_backend = True
        try:
            thread.clock = self.backend.write(
                thread.tid, op.addr, op.value, thread.clock
            )
        finally:
            bus.in_backend = False
        if "write" in bus.wanted:
            bus.emit(SimEvent("write", thread.tid, thread.clock, op.addr, op.value))

    def _op_work(self, thread: _Thread, op: Work) -> None:
        thread.clock += op.ns * self._work_scale[thread.tid]

    def _op_alloc(self, thread: _Thread, op: Alloc) -> None:
        thread.txn.body_value = self.memory.alloc(op.cells)
        thread.clock += ALLOC_NS

    def _try_commit(self, thread: _Thread, result: Any) -> None:
        try:
            thread.clock = self._hook(self.backend.commit, thread.tid, thread.clock)
        except ParkThread:
            # Invariant: commits decide at a definite simulated time.
            # A parked commit would strand the driver with a finished
            # body and no operation to re-issue; backends must either
            # complete the commit (possibly charging queueing delay in
            # the returned timestamp) or abort the transaction.
            raise RuntimeError("commit must not park")
        except TransactionAborted as aborted:
            self._handle_abort(thread, aborted)
            return
        self.bus.emit(SimEvent("commit", thread.tid, thread.clock))
        thread.txn = None
        thread.program_value = result

    def _handle_abort(self, thread: _Thread, aborted: TransactionAborted) -> None:
        txn = thread.txn
        if aborted.at_ns is not None:
            thread.clock = max(thread.clock, aborted.at_ns)
        # Positional, in field order: cause, then wasted.
        self.bus.emit(
            SimEvent(
                "abort", thread.tid, thread.clock, None, None, aborted.cause,
                None, 0, thread.clock - txn.attempt_start,
            )
        )
        thread.clock = self._hook(
            self.backend.rollback, thread.tid, thread.clock, aborted.cause
        )
        self._charge_backoff(thread, txn.attempt, aborted.cause)
        self._begin_attempt(thread)

    def _charge_backoff(self, thread: _Thread, attempt: int, cause: str) -> None:
        pause = self._backoff_ns(thread, attempt, cause)
        thread.clock += pause
        if "backoff" in self.bus.wanted:
            self.bus.emit(SimEvent("backoff", thread.tid, thread.clock, ns=pause))

    def _backoff_ns(
        self, thread: _Thread, attempt: int, cause: Optional[str] = None
    ) -> float:
        model = self.cost_model
        base = model.backoff_base_ns * (2 ** min(attempt - 1, 6))
        jitter = 0.5 + thread.rng.random()
        scale = self.backend.backoff_scale
        if cause is not None:
            scale *= self.backend.abort_backoff_scale(cause)
        return min(base * jitter, model.backoff_cap_ns) * scale
