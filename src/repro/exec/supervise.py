"""Supervised sweep execution: worker slots, deadlines, retries,
quarantine, resume.

:class:`SupervisedRunner` is the one multi-process runner (``--jobs N``
and every supervision flag land here).  It shards cells over
``max_workers`` *slots*; each slot keeps one long-lived worker process
that reads ``(payload, fault)`` cells from its own pipe, answers each
with a report, and exits on the stop message.  A slot's worker is
replaced only after it was killed (deadline or heartbeat) or found
dead, so a healthy sweep forks once per slot, not once per cell.  The
runner trusts none of its workers, one mechanism per failure mode:

* **deadlines** — every cell has a per-cell wall-clock deadline; a
  cell that blows it has its worker killed and is retried
  (``runner.timeouts``).
* **heartbeats** — workers beat a shared timestamp array from a
  daemon thread; a worker that stops beating while it runs a cell
  (frozen, SIGSTOPped, or dead before its first beat) is detected long
  before the deadline and killed (failure kind ``hang``).
* **crash detection** — each worker holds the only copy of its pipe
  end, so a worker that dies (a SIGKILL, an ``os._exit``, an OOM kill)
  reads as EOF: a cell it was running is retried (failure kind
  ``crash``); an idle one is respawned at the slot's next launch.  A
  worker acknowledges each cell before running it, so one that died
  idle but was not yet reaped (it still reads as alive, and the cell
  was sent into its pipe) costs the cell no attempt: its EOF arrives
  before the acknowledgement, and the slot is respawned and the cell
  resent.  A worker spawned for the cell that dies unacknowledged is
  charged a ``crash``, so a slot whose workers cannot start still
  fails its cells.
* **bounded retries** — each failing cell is retried up to
  ``max_retries`` times with deterministically seeded exponential
  backoff (``random.Random(f"{seed}:{spec_hash}:{attempt}")`` — no
  ambient entropy, so a fault campaign replays exactly).  A cell that
  raises is reported as ``error`` and its worker stays alive.
* **quarantine** — a cell that fails every attempt is recorded with
  full diagnostics (journal + :attr:`SupervisedRunner.quarantined`)
  and *skipped*; one poison cell can no longer sink a sweep.
* **resume** — completed cells are journaled to an fsynced WAL
  (:mod:`repro.exec.journal`); a SIGKILLed sweep resumed from its
  journal serves those cells without re-execution and produces a
  bit-identical ``BENCH_stamp.json`` (simulated results are pure
  functions of their specs, so salvage cannot change a single byte).

At the end every idle slot gets the stop message and is joined; a busy
or unresponsive worker is killed.  A worker whose supervisor dies
exits on its own.

The wall clock appears in this module *only* as the supervisor's own
scheduling clock (deadlines, heartbeats, backoff pacing for host
processes) — it never reaches a result.  Cell outcomes remain
functions of (spec, seed) alone; the kill/resume bit-identity test in
``tests/exec/test_supervise.py`` is the proof.

Supervision telemetry flows through the observability layer: counts
on a :class:`~repro.obs.metrics.MetricsRegistry` (the ``runner.*``
names declared in :mod:`repro.analysis.registry`) and retry/
quarantine instant :class:`~repro.obs.spans.Marker` events on a
dedicated ``supervisor`` lane, timestamped by a deterministic
sequence number rather than the wall clock.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import random
import signal
import threading
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Dict, List, Optional

# The supervisor's scheduling clock (see the module docstring): every
# read below times *host* processes, never simulated results.
import time  # tm: ignore[TM101]

from ..obs.metrics import RETRY_BOUNDS, MetricsRegistry
from ..obs.spans import Marker
from ..runtime import RunStats
from .cache import ResultCache
from .journal import SweepJournal
from .runner import Runner, run_payload
from .spec import ExperimentSpec

#: how long a hang-faulted worker sleeps; any sane deadline fires first.
_HANG_SLEEP_S = 3600.0
_CRASH_EXIT_CODE = 86
#: how often an idle worker checks that its supervisor is still alive.
_ORPHAN_CHECK_S = 1.0
#: the supervisor's longest wait for a worker report before it checks
#: deadlines and heartbeats again.
_POLL_S = 0.02
#: how long a worker told to stop may take to exit before it is killed.
_STOP_GRACE_S = 1.0


def _now() -> float:
    return time.monotonic()  # tm: ignore[TM101]


def _sleep(seconds: float) -> None:
    time.sleep(seconds)  # tm: ignore[TM101]


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs for :class:`SupervisedRunner`; all timings wall-clock."""

    #: per-cell deadline in seconds; None disables deadline kills.
    timeout_s: Optional[float] = None
    #: worker heartbeat period; None disables heartbeat hang detection.
    heartbeat_s: Optional[float] = 0.5
    #: missed beats before a worker counts as hung.
    heartbeat_misses: int = 10
    #: retries per cell after its first failure, before quarantine.
    max_retries: int = 2
    #: exponential backoff between attempts (base * 2^attempt, jittered
    #: by a seeded RNG, capped).
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    seed: int = 0

    def __post_init__(self):
        # ``not x > 0`` also refuses NaN.
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(f"timeout must be > 0 seconds, got {self.timeout_s}")
        if self.heartbeat_s is not None and not self.heartbeat_s > 0:
            raise ValueError(f"heartbeat_s must be > 0 seconds, got {self.heartbeat_s}")
        if self.heartbeat_misses < 1:
            raise ValueError(f"heartbeat_misses must be >= 1, got {self.heartbeat_misses}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    @property
    def stale_after_s(self) -> Optional[float]:
        if self.heartbeat_s is None:
            return None
        return self.heartbeat_s * self.heartbeat_misses

    def backoff_s(self, spec_hash: str, attempt: int) -> float:
        """Deterministic jittered backoff: a retry campaign replays
        identically because the jitter RNG is seeded from the cell."""
        rng = random.Random(f"{self.seed}:{spec_hash}:{attempt}")
        raw = self.backoff_base_s * (2 ** attempt) * (0.5 + rng.random())
        return min(self.backoff_cap_s, raw)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _beat(heartbeats, slot: int, period_s: float, frozen) -> None:
    while not frozen.is_set():
        heartbeats[slot] = _now()
        frozen.wait(period_s)


def _slot_worker(conn, heartbeats, slot: int, heartbeat_s: Optional[float]) -> None:
    """One worker slot's long-lived process: runs the ``(payload,
    fault)`` cells sent down *conn*, acknowledges each with ``("ack",
    None)`` before running it and answers it with ``("ok",
    stats_dict)`` or ``("error", detail)``, until it reads the stop
    message (``None``) or its supervisor is gone.  Module-level and
    dict-in/dict-out so it pickles under ``spawn``.  *fault* applies a
    deterministic worker-fault model (:mod:`repro.faults.worker`)
    in-situ; ``garbage`` and ``partial-write`` leave the worker alive,
    as does a cell that raises."""
    frozen = threading.Event()
    if heartbeats is not None:
        threading.Thread(
            target=_beat, args=(heartbeats, slot, heartbeat_s, frozen), daemon=True
        ).start()
    supervisor = os.getppid()
    while True:
        try:
            while not conn.poll(_ORPHAN_CHECK_S):
                if os.getppid() != supervisor:
                    return  # the supervisor was killed: do not linger
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        payload, fault = message
        try:
            conn.send(("ack", None))
        except OSError:
            return
        if fault == "hang":
            # Stop beating and go silent: the supervisor sees heartbeat
            # staleness or a blown deadline.
            frozen.set()
            _sleep(_HANG_SLEEP_S)
            os._exit(_CRASH_EXIT_CODE)
        if fault == "crash":
            if hasattr(signal, "SIGKILL"):
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(_CRASH_EXIT_CODE)  # non-POSIX stand-in
        try:
            report = ("ok", run_payload(payload))
        except BaseException as failure:  # report, don't vanish
            report = ("error", f"{type(failure).__name__}: {failure}")
        if fault == "garbage" and report[0] == "ok":
            report = ("ok", {"oops": "not a RunStats payload"})
        try:
            conn.send(report)
        except OSError:
            return


def _pick_context():
    """The cheapest available start method (fork > spawn > None)."""
    methods = multiprocessing.get_all_start_methods()
    for method in ("fork", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    process: object
    conn: object


@dataclass
class _Running:
    slot: int
    index: int
    attempt: int
    started_s: float
    fault: Optional[str]
    #: the slot's worker was spawned for this cell (not reused idle).
    fresh: bool = False
    #: the worker acknowledged the cell, so it started running it.
    acked: bool = False


class SupervisedRunner(Runner):
    """A :class:`Runner` that survives crashed, hung and killed
    workers, quarantines poison cells, and resumes from a journal.

    ``run()`` returns one entry per spec in input order, as every
    runner does — but a quarantined cell's entry is ``None`` (with
    diagnostics in :attr:`quarantined`), so callers must be prepared
    for holes when they opt into supervision.
    """

    name = "supervised"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        policy: Optional[SupervisorPolicy] = None,
        journal: Optional[str] = None,
        resume: bool = True,
        worker_faults=None,
        in_process: bool = False,
    ):
        super().__init__(cache=cache)
        # --jobs semantics: None/1 -> one worker, 0 -> host-sized, N -> N.
        if max_workers is not None and max_workers < 0:
            raise ValueError(f"jobs must be >= 0, got {max_workers}")
        if max_workers is None:
            workers = 1
        elif max_workers == 0:
            workers = multiprocessing.cpu_count()
        else:
            workers = max_workers
        self.max_workers = workers
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.journal_path = journal
        self.resume = resume
        #: anything with ``fault_for(index, attempt) -> Optional[str]``
        #: (:class:`repro.faults.worker.WorkerFaultPlan`).
        self.worker_faults = worker_faults
        #: run cells in the calling process (no kill-based isolation;
        #: faults become raised failures) — deterministic and fast,
        #: used by tests and as the no-multiprocessing fallback.
        self.in_process = in_process
        self.metrics = MetricsRegistry()
        self.markers: List[Marker] = []
        #: input index -> quarantine diagnostics for this run.
        self.quarantined: Dict[int, Dict] = {}
        self.journal_hits = 0
        self.retries = 0
        self.fallback_reason: Optional[str] = None
        self._marker_seq = 0

    # ------------------------------------------------------------------
    def _execute(self, specs, misses, results, progress) -> None:
        self.quarantined = {}
        pending = misses
        journal = None
        if self.journal_path:
            journal = SweepJournal(self.journal_path)
            state = journal.start(
                [spec.content_hash() for spec in specs], resume=self.resume
            )
            if state.corrupt:
                self.metrics.count("runner.journal_corrupt", len(state.corrupt))
            pending = self._salvage(specs, pending, results, state, progress)
        try:
            if pending:
                self._supervise(specs, pending, results, journal, progress)
        finally:
            if journal is not None:
                journal.close()

    def _salvage(self, specs, pending, results, state, progress) -> List[int]:
        """Serve completed/poisoned cells from the loaded journal."""
        reg = self.metrics
        still: List[int] = []
        for index in pending:
            spec = specs[index]
            content = spec.content_hash()
            entry = state.results.get(content)
            if entry is not None:
                stats = self._decode(spec, entry)
                if isinstance(stats, RunStats):
                    results[index] = stats
                    self.journal_hits += 1
                    reg.count("runner.journal_hits")
                    if self.cache is not None:
                        self.cache.put(spec, stats)
                    if progress is not None:
                        progress(f"{spec.label()} [journal]")
                    continue
                reg.count("runner.journal_corrupt")
            diagnostics = state.quarantined.get(content)
            if diagnostics is not None:
                self.quarantined[index] = diagnostics
                reg.count("runner.quarantined")
                self._mark("quarantine", spec, {"loaded": True})
                if progress is not None:
                    progress(f"{spec.label()} [quarantined]")
                continue
            still.append(index)
        return still

    # ------------------------------------------------------------------
    def _supervise(self, specs, pending, results, journal, progress) -> None:
        context = None if self.in_process else _pick_context()
        if context is None:
            if not self.in_process:
                self.fallback_reason = "no multiprocessing start method"
            self._supervise_in_process(specs, pending, results, journal, progress)
        else:
            self._supervise_processes(
                context, specs, pending, results, journal, progress
            )

    # -- shared bookkeeping --------------------------------------------
    def _mark(self, kind: str, spec: ExperimentSpec, args: Dict) -> None:
        # Instant markers on a dedicated supervisor lane; the timestamp
        # is a deterministic sequence number, never the wall clock.
        self._marker_seq += 1
        self.markers.append(
            Marker(
                name=f"{kind}:{spec.label()}",
                cat="runner",
                pid="runner",
                lane="supervisor",
                ts_ns=float(self._marker_seq),
                args=args,
            )
        )

    def _decode(self, spec: ExperimentSpec, payload):
        """A validated :class:`RunStats` for *spec*, or an error string.

        Every :class:`RunStats` field defaults, so ``from_dict`` alone
        would happily launder garbage into an empty stats object; the
        workload check is what makes ``garbage-output`` detectable.
        """
        if not isinstance(payload, dict):
            return f"worker payload is {type(payload).__name__}, not a dict"
        if payload.get("workload") != spec.workload or "makespan_ns" not in payload:
            return "worker payload does not describe this cell (garbage output?)"
        try:
            return RunStats.from_dict(payload)
        except Exception as failure:
            return f"undecodable worker payload: {type(failure).__name__}: {failure}"

    def _accept(self, spec, index, attempt, stats, results, journal, progress):
        results[index] = stats
        reg = self.metrics
        reg.count("runner.cells")
        reg.observe("runner.attempts", attempt + 1, RETRY_BOUNDS)
        if journal is not None:
            journal.record_result(spec.content_hash(), stats.to_dict())
        self._finish(spec, stats, progress)

    def _after_failure(
        self, spec, index, attempt, kind, detail, failures, journal, progress
    ) -> Optional[float]:
        """Record one failed attempt.  Returns the backoff (seconds)
        before the retry, or None when the cell is quarantined."""
        reg = self.metrics
        failures.setdefault(index, []).append(
            {"attempt": attempt, "kind": kind, "detail": detail}
        )
        reg.count(f"runner.failures.{kind}")
        if kind == "timeout":
            reg.count("runner.timeouts")
        if attempt < self.policy.max_retries:
            self.retries += 1
            reg.count("runner.retries")
            self._mark("retry", spec, {"kind": kind, "attempt": attempt})
            if progress is not None:
                progress(f"{spec.label()} retry #{attempt + 1} after {kind}")
            return self.policy.backoff_s(spec.content_hash(), attempt)
        diagnostics = {
            "spec": spec.canonical(),
            "attempts": attempt + 1,
            "failures": failures[index],
        }
        self.quarantined[index] = diagnostics
        reg.count("runner.quarantined")
        self._mark("quarantine", spec, {"kind": kind, "attempts": attempt + 1})
        if journal is not None:
            journal.record_quarantine(spec.content_hash(), diagnostics)
        if progress is not None:
            progress(
                f"{spec.label()} QUARANTINED after {attempt + 1} attempts ({kind})"
            )
        return None

    def _fault_for(self, index: int, attempt: int) -> Optional[str]:
        if self.worker_faults is None:
            return None
        return self.worker_faults.fault_for(index, attempt)

    # -- in-process mode -----------------------------------------------
    def _supervise_in_process(self, specs, pending, results, journal, progress):
        """No process isolation: crash/hang faults become immediate
        failures (retry/quarantine still exercised deterministically);
        real hangs cannot be preempted here — that needs processes."""
        failures: Dict[int, List] = {}
        for index in pending:
            spec = specs[index]
            attempt = 0
            while True:
                fault = self._fault_for(index, attempt)
                kind = detail = None
                payload = None
                if fault == "crash":
                    kind, detail = "crash", "simulated worker crash (in-process)"
                elif fault == "hang":
                    kind, detail = "hang", "simulated worker hang (in-process)"
                else:
                    try:
                        payload = run_payload(spec.canonical())
                    except Exception as failure:
                        kind = "error"
                        detail = f"{type(failure).__name__}: {failure}"
                if payload is not None and fault == "garbage":
                    payload = {"oops": "not a RunStats payload"}
                if payload is not None and fault == "partial-write":
                    if journal is not None:
                        journal.record_torn_result(spec.content_hash(), payload)
                    kind, detail = "partial-write", "journal entry torn mid-write"
                elif payload is not None:
                    decoded = self._decode(spec, payload)
                    if isinstance(decoded, RunStats):
                        self._accept(
                            spec, index, attempt, decoded, results, journal, progress
                        )
                        break
                    kind, detail = "garbage-output", decoded
                backoff = self._after_failure(
                    spec, index, attempt, kind, detail, failures, journal, progress
                )
                if backoff is None:
                    break
                if backoff > 0:
                    _sleep(backoff)
                attempt += 1

    # -- process mode --------------------------------------------------
    def _kill(self, process) -> None:
        process.terminate()
        process.join(0.5)
        if process.is_alive():
            getattr(process, "kill", process.terminate)()
            process.join(1.0)

    def _supervise_processes(
        self, context, specs, pending, results, journal, progress
    ) -> None:
        slots = min(self.max_workers, len(pending))
        heartbeat_s = self.policy.heartbeat_s
        heartbeats = None
        if heartbeat_s is not None:
            heartbeats = context.Array("d", slots, lock=False)
        workers: List[Optional[_Worker]] = [None] * slots
        running: Dict[int, _Running] = {}  # slot -> the cell it runs
        free = list(range(slots - 1, -1, -1))
        todo = deque(pending)
        delayed: List = []  # (ready_s, index) heap
        attempts: Dict[int, int] = {index: 0 for index in pending}
        failures: Dict[int, List] = {}

        def spawn(slot: int) -> None:
            ours, theirs = context.Pipe()
            if heartbeats is not None:
                heartbeats[slot] = 0.0
            process = context.Process(
                target=_slot_worker,
                args=(theirs, heartbeats, slot, heartbeat_s),
                daemon=True,
            )
            process.start()
            # The worker now holds the only copy of its end, so its
            # death reads as EOF here.
            theirs.close()
            workers[slot] = _Worker(process, ours)

        def retire(slot: int) -> Optional[int]:
            """Kill *slot*'s worker if it still runs and forget it; the
            next launch on the slot spawns a fresh one."""
            worker = workers[slot]
            workers[slot] = None
            self._kill(worker.process)
            worker.conn.close()
            return worker.process.exitcode

        def fail(entry: _Running, kind: str, detail: str) -> None:
            del running[entry.slot]
            free.append(entry.slot)
            backoff = self._after_failure(
                specs[entry.index],
                entry.index,
                entry.attempt,
                kind,
                detail,
                failures,
                journal,
                progress,
            )
            attempts[entry.index] = entry.attempt + 1
            if backoff is not None:
                heapq.heappush(delayed, (_now() + backoff, entry.index))

        def launch(index: int) -> None:
            slot = free.pop()
            attempt = attempts[index]
            fault = self._fault_for(index, attempt)
            entry = running[slot] = _Running(slot, index, attempt, _now(), fault)
            dispatch(entry)

        def dispatch(entry: _Running) -> None:
            """Send *entry*'s cell to its slot's worker, spawning one
            first if the slot has none or its worker is dead."""
            slot = entry.slot
            worker = workers[slot]
            entry.fresh = worker is None or not worker.process.is_alive()
            if entry.fresh:
                if worker is not None:
                    retire(slot)  # died while idle
                spawn(slot)
            entry.started_s = _now()
            try:
                workers[slot].conn.send((specs[entry.index].canonical(), entry.fault))
            except OSError as failure:
                retire(slot)
                lost(entry, f"worker gone before the cell reached it: {failure}")

        def lost(entry: _Running, detail: str) -> None:
            """*entry*'s worker died before acknowledging the cell: a
            reused worker died idle, so the cell is resent to a fresh
            one at no attempt; a fresh one is charged a crash."""
            if entry.fresh:
                fail(entry, "crash", detail)
            else:
                dispatch(entry)

        def receive(slot: int) -> None:
            entry = running.get(slot)
            try:
                kind, payload = workers[slot].conn.recv()
            except (EOFError, OSError):
                code = retire(slot)
                if entry is None:
                    return
                detail = f"worker exited with code {code} before reporting"
                if entry.acked:
                    fail(entry, "crash", detail)
                else:
                    lost(entry, detail)
                return
            if kind == "ack":
                entry.acked = True
                return
            index = entry.index
            if kind == "error":
                fail(entry, "error", payload)
                return
            if entry.fault == "partial-write":
                if journal is not None:
                    journal.record_torn_result(specs[index].content_hash(), payload)
                fail(entry, "partial-write", "journal entry torn mid-write")
                return
            decoded = self._decode(specs[index], payload)
            if not isinstance(decoded, RunStats):
                fail(entry, "garbage-output", decoded)
                return
            del running[slot]
            free.append(slot)
            self._accept(
                specs[index], index, entry.attempt, decoded, results, journal, progress
            )

        try:
            while todo or delayed or running:
                now = _now()
                while free and delayed and delayed[0][0] <= now:
                    launch(heapq.heappop(delayed)[1])
                while free and todo:
                    launch(todo.popleft())
                conns = {
                    worker.conn: slot
                    for slot, worker in enumerate(workers)
                    if worker is not None
                }
                for conn in wait(list(conns), timeout=_POLL_S):
                    receive(conns[conn])
                now = _now()
                for slot, entry in list(running.items()):
                    deadline = self.policy.timeout_s
                    if deadline is not None and now - entry.started_s > deadline:
                        retire(slot)
                        fail(entry, "timeout", f"deadline {deadline:g}s exceeded")
                        continue
                    stale = self.policy.stale_after_s
                    if stale is not None:
                        last = max(heartbeats[slot], entry.started_s)
                        if now - last > stale:
                            retire(slot)
                            fail(entry, "hang", f"no heartbeat for {now - last:.2f}s")
        finally:
            self._stop(workers, running)

    def _stop(self, workers, running) -> None:
        """Send every idle worker the stop message, then join each; a
        busy or unresponsive one is killed."""
        live = [
            (slot, worker) for slot, worker in enumerate(workers) if worker is not None
        ]
        for slot, worker in live:
            if slot not in running:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
        for slot, worker in live:
            if slot not in running:
                worker.process.join(_STOP_GRACE_S)
            self._kill(worker.process)
            worker.conn.close()

    # ------------------------------------------------------------------
    def summary(self) -> str:
        reg = self.metrics
        executed = int(reg.counters.get("runner.cells", 0))
        parts = [f"{executed} executed"]
        if self.journal_hits:
            parts.append(f"{self.journal_hits} from journal")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        return "supervised: " + ", ".join(parts)
