"""ClusterTMBackend: N ROCoCoTM shards behind one backend protocol.

The flat heap is partitioned across N shards, cacheline-aligned
(:mod:`repro.cluster.partition`); each shard is a full single-node
ROCoCoTM — its own :class:`FpgaValidationEngine`, sliding window,
commit queue, update set and CPU–FPGA link.  Threads are pinned round
robin to *nodes* (thread ``tid`` lives on node ``tid % shards``), and
a node's CPU-side costs scale with only its own occupancy — the SMT
regime is per node, which is the whole point of scaling out.

The hook protocol maps onto the cluster as:

* ``begin``   — open the home shard (one snapshot per touched shard;
  remote shards open lazily at first touch, paying the hop there);
* ``read``    — route to the owning shard; remote reads pay an
  inter-shard round trip (the CCI-class constants of
  :func:`repro.hw.link.harp2_cci_link`); writes are redo-buffered on
  the owning shard with no hop (they travel with the commit);
* ``commit``  — the :class:`Router` classifies the transaction:
  single-shard commits delegate verbatim to that shard's own commit
  protocol (the fast path — local validation, no coordination), and
  cross-shard commits run the deterministic two-phase
  :class:`Coordinator`;
* ``rollback``— drop per-shard state everywhere, charge once.

With ``shards=1`` every hook delegates directly to the single shard:
by construction the run is bit-identical to a plain
:class:`RococoTMBackend` — the regression gate of docs/CLUSTER.md.

The irrevocable escape hatch (forced by validation-path outages, or by
``irrevocable_after``) is *cluster-wide* at N > 1: the same
:class:`~repro.runtime.coarse_lock.IrrevocableHatch` a single node
holds, one level up.  Its lock fences all nodes, reads bypass the
shards (direct loads behind each shard's write-back barrier), and the
commit publishes each touched shard's slice through that shard's own
commit path as an external commit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..runtime.api import TransactionAborted
from ..runtime.backend import TMBackend
from ..runtime.coarse_lock import IrrevocableHatch
from ..runtime.events import SimEvent
from ..runtime.rococotm import (
    BEGIN_NS,
    COMMIT_RO_NS,
    READ_BASE_NS,
    ROLLBACK_NS,
    WRITE_NS,
    WRITEBACK_PER_WORD_NS,
    RococoTMBackend,
)
from ..signatures import SignatureConfig
from .coordinator import Coordinator
from .partition import Partitioner, make_partitioner
from .router import Router


class ClusterTMBackend(TMBackend):
    """Sharded scale-out ROCoCoTM (docs/CLUSTER.md)."""

    name = "ClusterTM"
    #: same compact signature metadata as a single ROCoCoTM node.
    metadata_footprint = 0.55

    def __init__(
        self,
        shards: int = 1,
        window: int = 64,
        signature_config: Optional[SignatureConfig] = None,
        partition: str = "hash",
        faults: Optional[str] = None,
        fault_seed: int = 0,
        irrevocable_after: Optional[int] = None,
    ):
        """``faults`` wires every shard's engine through the chaos
        layer with a *per-shard* seed (``fault_seed + shard id``), so
        each node draws an independent deterministic fault schedule.
        ``irrevocable_after`` is handled by the single shard at
        ``shards=1`` (bit-identity with the plain backend) and by the
        cluster-wide escape hatch at N > 1."""
        super().__init__()
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards_n = shards
        self.partitioner: Partitioner = make_partitioner(partition, shards)
        shard_irrevocable = irrevocable_after if shards == 1 else None
        self.shards: List[RococoTMBackend] = []
        for sid in range(shards):
            if faults is not None:
                from ..faults import build_chaos_backend

                shard = build_chaos_backend(
                    faults,
                    fault_seed + sid,
                    window=window,
                    irrevocable_after=shard_irrevocable,
                )
            else:
                shard = RococoTMBackend(
                    window=window,
                    signature_config=signature_config,
                    irrevocable_after=shard_irrevocable,
                )
            shard.shard_id = sid
            self.shards.append(shard)
        self.router = Router(self.shards)
        self.coordinator = Coordinator(self)
        self.interlink = self.coordinator.interlink
        #: tid -> shard ids opened this attempt, in open order.
        self._open: Dict[int, List[int]] = {}
        self.hatch = IrrevocableHatch(irrevocable_after)
        #: tid -> shard id -> redo slice of a cluster-level irrevocable
        #: transaction.  Shards are bypassed, so the cluster keeps the
        #: redo log; reads go unrecorded, as on a single node under the
        #: global fence.
        self._irrev: Dict[int, Dict[int, Dict[int, Any]]] = {}

    # ------------------------------------------------------------------
    def attach(self, driver) -> None:
        super().attach(driver)
        self.partitioner.bind(driver.memory.allocated)
        for shard in self.shards:
            shard.attach(driver)
        if self.shards_n > 1:
            # Per-node SMT regime: CPU-side costs scale with one
            # node's occupancy, not the cluster-wide thread count.
            # (At shards=1 the global regime is the node regime and
            # nothing is overridden — bit-identity.)
            node_threads = self._node_threads(0)  # node 0 is the fullest
            scale = driver.cost_model.compute_scale(
                node_threads, self.metadata_footprint
            )
            self._scale = scale
            for shard in self.shards:
                shard._scale = scale

    @property
    def stats_irrevocable_commits(self) -> int:
        return self.hatch.commits

    def _node_threads(self, node: int) -> int:
        """How many threads node *node* hosts under round-robin
        pinning."""
        n = self.driver.n_threads
        return (n - node + self.shards_n - 1) // self.shards_n

    def local_threads(self, tid: int) -> int:
        if self.shards_n == 1:
            return self.driver.n_threads
        return self._node_threads(tid % self.shards_n)

    def _home(self, tid: int) -> int:
        return tid % self.shards_n

    # ------------------------------------------------------------------
    def begin(self, tid: int, now: float) -> float:
        if self.shards_n == 1:
            return self.shards[0].begin(tid, now)
        at = self.hatch.enter(tid, now, self.driver)
        if tid in self.hatch.active:
            self._irrev[tid] = {}
            return at + self.scaled(BEGIN_NS)
        home = self._home(tid)
        self._open[tid] = [home]
        return self.shards[home].begin(tid, now)

    # ------------------------------------------------------------------
    def read(self, tid: int, addr: int, now: float) -> Tuple[Any, float]:
        if self.shards_n == 1:
            return self.shards[0].read(tid, addr, now)
        if tid in self.hatch.active:
            return self._read_irrevocable(tid, addr, now)
        sid = self.partitioner.shard_of(addr)
        shard = self.shards[sid]
        remote = sid != self._home(tid)
        at = now
        if remote:
            at += self.interlink.request_ns(1)
        at = self._open_shard(tid, sid, at)
        value, at = shard.read(tid, addr, at)
        if remote:
            at += self.interlink.response_ns()
        return value, at

    def _open_shard(self, tid: int, sid: int, now: float) -> float:
        """Lazily open shard *sid* for *tid* at first touch: a fresh
        per-shard snapshot, charged one begin.  The open rides the
        first access's hop (no extra round trip)."""
        opened = self._open[tid]
        if sid in opened:
            return now
        opened.append(sid)
        at = self.shards[sid].begin(tid, now)
        driver = self.driver
        if driver.wants("shard_open"):
            driver.emit(
                SimEvent(
                    "shard_open",
                    tid,
                    at,
                    data={"shard": sid, "home": self._home(tid)},
                )
            )
        return at

    def _read_irrevocable(self, tid: int, addr: int, now: float) -> Tuple[Any, float]:
        sid = self.partitioner.shard_of(addr)
        redo = self._irrev[tid].get(sid, {})
        if addr in redo:
            return redo[addr], now + self.scaled(READ_BASE_NS)
        remote = sid != self._home(tid)
        at = now
        if remote:
            at += self.interlink.request_ns(1)
        # The global fence stops new commits, but write-backs already
        # in flight on the owning shard must drain first.
        at, _ = self.shards[sid].update_set_barrier(addr, at)
        value = self.memory.load(addr)
        at += self.scaled(READ_BASE_NS)
        if remote:
            at += self.interlink.response_ns()
        return value, at

    # ------------------------------------------------------------------
    def write(self, tid: int, addr: int, value: Any, now: float) -> float:
        if self.shards_n == 1:
            return self.shards[0].write(tid, addr, value, now)
        sid = self.partitioner.shard_of(addr)
        if tid in self.hatch.active:
            # Per-thread state, like _open[tid]: only tid touches it.
            slices = self._irrev[tid]
            slices.setdefault(sid, {})[addr] = value
            return now + self.scaled(WRITE_NS)
        # Writes are redo-buffered on the owning shard's bookkeeping
        # with no hop: the data travels with the commit (prepare for
        # cross-shard, the validation request for single-shard).
        at = self._open_shard(tid, sid, now)
        return self.shards[sid].write(tid, addr, value, at)

    # ------------------------------------------------------------------
    def commit(self, tid: int, now: float) -> float:
        if self.shards_n == 1:
            return self.shards[0].commit(tid, now)
        if tid in self.hatch.active:
            return self._commit_irrevocable(tid, now)
        self.hatch.fence()

        home = self._home(tid)
        involved, idle = self.router.classify(tid, self._open.get(tid, []))
        for sid in idle:
            self.shards[sid].drop_txn(tid)

        if not involved:
            # The body touched nothing at all: trivially read-only.
            self._open.pop(tid, None)
            self.hatch.succeeded(tid)
            self.stats.read_only_commits += 1
            return now + self.scaled(COMMIT_RO_NS)

        if len(involved) == 1:
            at = self._commit_single(tid, involved[0], home, now)
        else:
            at = self._commit_cross(tid, involved, home, now)
        self._open.pop(tid, None)
        self.hatch.succeeded(tid)
        return at

    def _commit_single(self, tid: int, sid: int, home: int, now: float) -> float:
        """The fast path: the whole transaction lives on one shard, so
        its own commit protocol applies verbatim — read-only CPU
        commit, local FPGA validation, update-set publication.  Only a
        routing hop is added when that shard is not the home node."""
        shard = self.shards[sid]
        n_write = shard.txn_writes(tid)
        remote = sid != home
        at = now
        if remote and n_write:
            lines = self.interlink.lines_for_addresses(
                max(1, shard.txn_reads(tid) + n_write)
            )
            at += self.interlink.request_ns(lines)
        try:
            at = shard.commit(tid, at)
        except TransactionAborted:
            if tid in shard.hatch.forced:
                # The shard's validation ladder bottomed out; escalate
                # to the cluster-wide irrevocable escape hatch.
                shard.hatch.forced.discard(tid)
                self.hatch.forced.add(tid)
            raise
        if remote and n_write:
            at += self.interlink.response_ns()
        driver = self.driver
        if driver.wants("route"):
            driver.emit(
                SimEvent(
                    "route",
                    tid,
                    at,
                    data={"shard": sid, "cross": False, "n_write": n_write},
                )
            )
        return at

    def _commit_cross(
        self, tid: int, involved: List[int], home: int, now: float
    ) -> float:
        total_writes = sum(self.shards[sid].txn_writes(tid) for sid in involved)
        at = self.coordinator.commit(tid, home, involved, now)
        if total_writes == 0:
            self.stats.read_only_commits += 1
        driver = self.driver
        if driver.wants("route"):
            driver.emit(
                SimEvent(
                    "route",
                    tid,
                    at,
                    data={"shard": home, "cross": True, "n_write": total_writes},
                )
            )
        return at

    def _commit_irrevocable(self, tid: int, now: float) -> float:
        slices = self._irrev.pop(tid)
        total_writes = sum(len(redo) for redo in slices.values())
        writeback_end = now + self.scaled(WRITEBACK_PER_WORD_NS * total_writes)
        for sid in sorted(slices):
            self.shards[sid].external_irrevocable_commit(slices[sid], writeback_end)
        return self.hatch.release(tid, writeback_end, self.driver)

    # ------------------------------------------------------------------
    def rollback(self, tid: int, now: float, cause: str) -> float:
        if self.shards_n == 1:
            return self.shards[0].rollback(tid, now, cause)
        for sid in sorted(self._open.pop(tid, [])):
            self.shards[sid].drop_txn(tid)
        self._irrev.pop(tid, None)
        self.hatch.failed(tid)
        return now + self.scaled(ROLLBACK_NS)

    # ------------------------------------------------------------------
    def abort_backoff_scale(self, cause: str) -> float:
        return self.shards[0].abort_backoff_scale(cause)

    def run_finished(self) -> None:
        for shard in self.shards:
            shard.run_finished()
