"""The TM backend interface and shared machinery.

A backend implements the five operations the thread driver calls —
begin / read / write / commit / rollback — each returning the
simulated time at which the calling thread may proceed.  Conflicts
surface in two ways:

* raising :class:`TransactionAborted` — the driver rolls back,
  backs off and retries the body from scratch;
* raising :class:`ParkThread` — the thread blocks with no wake time
  of its own; the backend must later call ``driver.wake_at(tid, at)``
  (used for lock queues).  The parked operation is re-issued on wake.

Backends program against the narrow :class:`repro.runtime.driver.
Driver` protocol — ``attach`` receives the driver (the Simulator
implements it) and a backend may only use the protocol surface:
``n_threads`` / ``memory`` / ``stats`` / ``cost_model`` / ``bus``
plus ``step_cost`` / ``park`` / ``wake_at`` / ``wants`` / ``emit``.

``CostModel`` centralizes the machine parameters shared by all
backends; per-backend per-operation costs live in each backend, next
to the logic they price.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from .api import TransactionAborted
from .memory import Memory
from .stats import RunStats


class ParkThread(Exception):
    """The operation cannot complete yet; re-issue when woken."""


@dataclass(frozen=True)
class CostModel:
    """Machine-level timing parameters (HARP2's Xeon, §6.2).

    ``smt_penalty`` models the hyper-threading cache-thrash regime the
    paper observes between 14 and 28 threads: once ``n_threads``
    exceeds ``physical_cores``, every thread's compute and TM-metadata
    operations slow down by ``1 + (smt_penalty - 1) * footprint``,
    where ``footprint`` is the backend's relative metadata pressure
    (ROCoCoTM's compact signatures < TinySTM's ownership table).
    """

    physical_cores: int = 14
    smt_penalty: float = 1.45
    #: backoff base after an abort (ns); exponential with attempts.
    backoff_base_ns: float = 60.0
    backoff_cap_ns: float = 4000.0

    def compute_scale(self, n_threads: int, footprint: float = 1.0) -> float:
        if n_threads <= self.physical_cores:
            return 1.0
        return 1.0 + (self.smt_penalty - 1.0) * footprint


class TMBackend:
    """Abstract backend; concrete systems override the five hooks.

    ``metadata_footprint`` scales the SMT penalty (see CostModel).
    """

    name = "abstract"
    metadata_footprint = 1.0
    #: multiplier on the driver's exponential backoff after aborts.
    #: STM backends keep 1.0; the TSX model uses a near-zero value
    #: because the paper's HTM retries on a constant policy — which is
    #: precisely what lets fallback convoys (the lemming effect) form.
    backoff_scale = 1.0

    def __init__(self) -> None:
        self.memory: Optional[Memory] = None
        self.stats: Optional[RunStats] = None
        self.driver = None
        self._scale = 1.0

    # ------------------------------------------------------------------
    def attach(self, driver) -> None:
        """Wire the backend to a :class:`repro.runtime.driver.Driver`
        before a run (the Simulator implements the protocol)."""
        self.driver = driver
        self.memory = driver.memory
        self.stats = driver.stats
        self._scale = driver.step_cost(1.0, self.metadata_footprint)

    def scaled(self, ns: float) -> float:
        """A CPU-side cost under the current SMT regime."""
        return ns * self._scale

    # ------------------------------------------------------------------
    def local_threads(self, tid: int) -> int:
        """How many threads contend for the cores *tid* runs on.

        Single-node backends share one socket: every thread sees all
        ``n_threads`` and the CostModel's SMT regime is global (the
        pre-cluster behaviour).  A multi-node backend
        (:class:`repro.cluster.ClusterTMBackend`) pins each thread to
        its home node and reports only that node's occupancy, so SMT
        pressure is per node.  Called by the Simulator after
        ``attach`` (the driver is available)."""
        return self.driver.n_threads

    # ------------------------------------------------------------------
    # The five hooks.  All times are absolute simulated ns.
    # ------------------------------------------------------------------
    def begin(self, tid: int, now: float) -> float:
        """Start an attempt; returns the time execution may proceed."""
        raise NotImplementedError

    def read(self, tid: int, addr: int, now: float) -> Tuple[Any, float]:
        """Transactional load: (value, ready_time)."""
        raise NotImplementedError

    def write(self, tid: int, addr: int, value: Any, now: float) -> float:
        """Transactional store; returns ready time."""
        raise NotImplementedError

    def commit(self, tid: int, now: float) -> float:
        """Attempt to commit; returns ready time or raises."""
        raise NotImplementedError

    def rollback(self, tid: int, now: float, cause: str) -> float:
        """Clean up after an abort; returns ready time."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def abort_backoff_scale(self, cause: str) -> float:
        """Extra driver-backoff multiplier for aborts of *cause*.

        Backends override this to park threads harder after aborts
        that signal an environmental condition rather than contention
        — e.g. ROCoCoTM's validation-path outages, where hammering the
        dead engine only burns timeouts.
        """
        return 1.0

    # ------------------------------------------------------------------
    def run_finished(self) -> None:
        """Hook for end-of-run bookkeeping (optional)."""
