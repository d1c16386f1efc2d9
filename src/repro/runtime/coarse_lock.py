"""A single global lock around every atomic block.

This is both a sanity baseline (perfectly serialized, zero aborts) and
the fallback path of the TSX model: best-effort HTM must eventually
fall back to a mutual-exclusion path, and the paper's implementation
uses exactly a global lock after four failed retries (§6.2).

Lock waiters park in FIFO order and are woken by the releasing
committer — the classic convoy, which is why this baseline stops
scaling immediately.

The same lock backs ROCoCoTM's irrevocable escape hatch (§4.2), whose
policy lives here once as :class:`IrrevocableHatch`: each ROCoCoTM
node and each multi-shard ClusterTM holds one.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from .api import TransactionAborted
from .backend import TMBackend
from .sequential import LOAD_NS, STORE_NS

ACQUIRE_NS = 18.0        # CAS + fence with the line already local
LOCK_TRANSFER_NS = 160.0  # cross-core cacheline migration of the lock
RELEASE_NS = 25.0


class GlobalLock:
    """A simulated FIFO mutex shared by backends."""

    def __init__(self) -> None:
        self.holder: Optional[int] = None
        self.last_holder: Optional[int] = None
        self.waiters: Deque[int] = deque()

    @property
    def held(self) -> bool:
        return self.holder is not None

    def acquire(self, tid: int, now: float, driver) -> float:
        """Returns the acquisition time, or parks the caller."""
        if self.holder is None:
            cost = ACQUIRE_NS
            if self.last_holder is not None and self.last_holder != tid:
                cost += LOCK_TRANSFER_NS
            self.holder = tid
            self.last_holder = tid
            return now + cost
        if tid not in self.waiters:
            self.waiters.append(tid)
        driver.park(tid)

    def release(self, tid: int, now: float, driver) -> float:
        if self.holder != tid:
            raise RuntimeError(f"thread {tid} releasing a lock it does not hold")
        self.holder = None
        if self.waiters:
            driver.wake_at(self.waiters.popleft(), now + RELEASE_NS)
        return now + RELEASE_NS


class IrrevocableHatch:
    """The irrevocable escape hatch of §4.2, one per ROCoCoTM node and
    one cluster-wide for ClusterTM at N > 1.

    A transaction goes irrevocable when its validation ladder bottomed
    out (``forced``) or after ``after`` consecutive aborts; it then runs
    exclusively under one :class:`GlobalLock`.  New transactions park
    at begin until it releases, and optimistic writers already running
    abort at the commit fence.
    """

    def __init__(self, after: Optional[int] = None) -> None:
        #: consecutive aborts before going irrevocable; None disables
        #: it (the paper's evaluated configuration).
        self.after = after
        self.lock = GlobalLock()
        self.failures: Dict[int, int] = {}
        self.forced: Set[int] = set()
        self.active: Set[int] = set()
        #: threads parked at begin behind the irrevocable transaction.
        self.watchers: List[int] = []
        self.commits = 0

    def enter(self, tid: int, now: float, driver) -> float:
        """Begin fence: park behind a running irrevocable transaction,
        then take the lock if *tid* must go irrevocable (joins
        ``active``).  Returns the time the transaction may begin."""
        if self.lock.held:
            # Optimistic readers could not keep a consistent snapshot
            # against its in-place writes, so everyone waits.
            self.watchers.append(tid)
            driver.park(tid)
        if tid in self.forced or (
            self.after is not None and self.failures.get(tid, 0) >= self.after
        ):
            now = self.lock.acquire(tid, now, driver)
            self.active.add(tid)
            self.forced.discard(tid)
        return now

    def fence(self) -> None:
        """Commit fence: a writer committing under a running irrevocable
        transaction would invalidate its reads."""
        if self.lock.held:
            raise TransactionAborted("cpu-irrevocable-fence")

    def succeeded(self, tid: int) -> None:
        self.failures[tid] = 0

    def failed(self, tid: int) -> None:
        self.failures[tid] = self.failures.get(tid, 0) + 1
        self.active.discard(tid)

    def release(self, tid: int, now: float, driver) -> float:
        """End *tid*'s irrevocable commit at *now*: release the lock and
        wake every parked watcher at the release instant."""
        self.active.discard(tid)
        self.failures[tid] = 0
        self.commits += 1
        ready = self.lock.release(tid, now, driver)
        for watcher in self.watchers:
            driver.wake_at(watcher, ready)
        self.watchers.clear()
        return ready


class CoarseLockBackend(TMBackend):
    """Every transaction runs under one global mutex; in-place writes."""

    name = "global-lock"
    metadata_footprint = 0.1

    def __init__(self) -> None:
        super().__init__()
        self.lock = GlobalLock()

    def begin(self, tid: int, now: float) -> float:
        return self.lock.acquire(tid, now, self.driver)

    def read(self, tid: int, addr: int, now: float) -> Tuple[Any, float]:
        return self.memory.load(addr), now + self.scaled(LOAD_NS)

    def write(self, tid: int, addr: int, value: Any, now: float) -> float:
        self.memory.store(addr, value)
        return now + self.scaled(STORE_NS)

    def commit(self, tid: int, now: float) -> float:
        return self.lock.release(tid, now, self.driver)

    def rollback(self, tid: int, now: float, cause: str) -> float:  # pragma: no cover
        raise AssertionError("lock-based execution cannot abort")
