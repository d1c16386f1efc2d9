"""The deterministic scheduling kernel.

Before this module existed, :meth:`Simulator.run` rebuilt the runnable
list and took a ``min()`` over all threads on **every step** — an O(T)
scan per event that dominated wall-clock at the paper's 14/28-thread
points.  The paper's own contribution is a pipelined validator that
removes exactly this kind of per-event serialization (§4.2); the
host-side scheduler gets the same treatment here: a narrow, specialized
engine for the one decision the hot path makes — *which thread runs
next* — in O(log T) instead of O(T).

Mechanism: an **indexed min-heap with lazy invalidation**.

* The heap holds ``(clock, tid, version)`` entries.  Every runnable
  thread has exactly one *valid* entry — the one whose ``version``
  matches the kernel's per-thread version counter.
* Any state change (reschedule after a step, park, wake, retire) bumps
  the thread's version, so entries left behind in the heap become
  *stale*.  Stale entries are discarded when they surface at the top
  (``pick``), never eagerly removed — deletion from the middle of a
  binary heap would cost O(T) again.
* ``pick`` pops until it finds a valid entry, so a pick is O(log T)
  amortized: every stale pop is paid for by the push that created it.

Determinism contract (see DESIGN.md "Scheduler determinism"): the heap
orders entries by the tuple ``(clock, tid)`` — exactly the key of the
old linear scan's ``min()`` — and thread ids are unique, so the valid
entry that surfaces first is *the* unique minimum over runnable
threads.  Lazy invalidation cannot perturb the order: stale entries are
skipped regardless of where they sort, and every runnable thread's
valid entry carries its current clock by construction.  The kernel is
therefore schedule-preserving by construction; the committed golden
digests and stamps (``tests/golden/golden.json``) pin the schedules it
produced on the day the linear scan was retired.

The common step is fused: :meth:`SchedulerKernel.advance` is
``reschedule`` followed by ``pick`` as one ``heapq.heappushpop``.
``heappushpop`` orders by the same ``(clock, tid, version)`` tuples, so
what it returns is the minimum of the heap *plus* the pushed entry —
exactly what a push then a pop would surface.  When the just-stepped
thread is still the unique minimum its entry comes straight back
without touching the heap (run-ahead needs no special case); otherwise
``advance`` pops past stale entries as ``pick`` does.  The counters
stay logical: ``advance`` counts one push, one pick and the
``heap_high_water`` the push would have reached (``len(heap) + 1``), so
:meth:`snapshot` is identical to the unfused sequence.  ``reschedule``
stays as the oracle the property test holds ``advance`` to.

The kernel also keeps the deadlock check O(1): ``n_live`` and
``n_parked`` counters replace the old per-wakeup sweep over all
threads (``any(t.parked ...)``).

Counters (``sched.*`` metric family, declared in
:mod:`repro.analysis.registry`) are exported via :meth:`snapshot` and
published by the driver as one wants()-gated ``sched`` event at the
end of a run — they never enter :class:`RunStats`, so enabling the
kernel cannot move a single benchmark byte.
"""

from __future__ import annotations

from heapq import heappop, heappush, heappushpop
from typing import List


class SchedulerKernel:
    """Indexed min-heap over runnable threads, keyed by ``(clock, tid)``.

    The owning driver calls:

    * :meth:`add` once per thread before the run;
    * :meth:`pick` to obtain the next thread to step (``-1``: none
      runnable);
    * :meth:`advance` after a step that leaves the thread runnable (a
      fused :meth:`reschedule` plus :meth:`pick`);
    * :meth:`park` / :meth:`wake` around blocking operations;
    * :meth:`retire` when a thread's program completes.
    """

    __slots__ = (
        "_heap",
        "_version",
        "_runnable",
        "n_live",
        "n_parked",
        "picks",
        "pushes",
        "stale_pops",
        "wakes",
        "wakes_coalesced",
        "heap_high_water",
    )

    def __init__(self, n_threads: int) -> None:
        if n_threads < 1:
            raise ValueError("need at least one thread")
        self._heap: List = []
        #: per-thread entry version; a heap entry is valid iff its
        #: version equals this counter for its tid.
        self._version = [0] * n_threads
        self._runnable = [False] * n_threads
        self.n_live = n_threads
        self.n_parked = 0
        self.picks = 0
        self.pushes = 0
        self.stale_pops = 0
        self.wakes = 0
        self.wakes_coalesced = 0
        self.heap_high_water = 0

    # ------------------------------------------------------------------
    def _push(self, tid: int, clock: float) -> None:
        version = self._version[tid] + 1
        self._version[tid] = version
        heap = self._heap
        heappush(heap, (clock, tid, version))
        self.pushes += 1
        if len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)

    def add(self, tid: int, clock: float) -> None:
        """Register thread *tid* as runnable at *clock* (run start)."""
        if self._runnable[tid]:
            raise RuntimeError(f"thread {tid} is already scheduled")
        self._runnable[tid] = True
        self._push(tid, clock)

    def pick(self) -> int:
        """The runnable thread with the smallest ``(clock, tid)``, or
        ``-1`` if no thread is runnable.  Pops (and counts) stale
        entries until a valid one surfaces."""
        heap = self._heap
        version = self._version
        while heap:
            clock, tid, entry_version = heappop(heap)
            if entry_version == version[tid]:
                # A valid entry implies runnable: park/retire bump the
                # version without pushing, so their entries are stale.
                self._runnable[tid] = False  # popped: owner must re-add
                self.picks += 1
                return tid
            self.stale_pops += 1
        return -1

    def reschedule(self, tid: int, clock: float) -> None:
        """Re-enter *tid* (just stepped, still live) at its new clock."""
        self._runnable[tid] = True
        self._push(tid, clock)

    def advance(self, tid: int, clock: float) -> int:
        """:meth:`reschedule` *tid* at *clock*, then :meth:`pick` — in
        one ``heappushpop``.  Returns the next thread to step, with
        every counter as the unfused pair leaves it.  Never ``-1``:
        *tid*'s own fresh entry is valid, so the stale-pop loop ends at
        it at the latest."""
        version = self._version
        entry_version = version[tid] + 1
        version[tid] = entry_version
        heap = self._heap
        self.pushes += 1
        if len(heap) >= self.heap_high_water:
            self.heap_high_water = len(heap) + 1
        self.picks += 1
        _, picked, entry_version = heappushpop(heap, (clock, tid, entry_version))
        while entry_version != version[picked]:
            self.stale_pops += 1
            _, picked, entry_version = heappop(heap)
        self._runnable[tid] = True
        self._runnable[picked] = False
        return picked

    def park(self, tid: int) -> None:
        """Mark *tid* blocked: it leaves the runnable set until
        :meth:`wake`.  O(1) — its heap entry (if any) goes stale."""
        self._version[tid] += 1
        self._runnable[tid] = False
        self.n_parked += 1

    def wake(self, tid: int, clock: float, coalesced: bool = False) -> None:
        """Unblock *tid*, runnable again at *clock*.

        ``coalesced``: the wake's target time was at or before the
        thread's own clock, so it merged into the thread's existing
        timeline instead of moving it (the ``max()`` in the driver's
        ``wake_at`` was a no-op) — tracked for the ``sched.*`` metrics.
        """
        self.n_parked -= 1
        self._runnable[tid] = True
        self.wakes += 1
        if coalesced:
            self.wakes_coalesced += 1
        self._push(tid, clock)

    def retire(self, tid: int) -> None:
        """Thread *tid*'s program finished; it never runs again."""
        self._version[tid] += 1
        self._runnable[tid] = False
        self.n_live -= 1

    # ------------------------------------------------------------------
    @property
    def lazy_invalidation_ratio(self) -> float:
        """Stale pops per total pop — how much heap traffic the lazy
        strategy traded for O(1) invalidation."""
        pops = self.picks + self.stale_pops
        return self.stale_pops / pops if pops else 0.0

    def snapshot(self) -> dict:
        """The ``sched`` event payload (see repro.analysis.registry)."""
        return {
            "picks": self.picks,
            "pushes": self.pushes,
            "stale_pops": self.stale_pops,
            "lazy_invalidation_ratio": self.lazy_invalidation_ratio,
            "wakes": self.wakes,
            "wakes_coalesced": self.wakes_coalesced,
            "heap_high_water": self.heap_high_water,
        }
