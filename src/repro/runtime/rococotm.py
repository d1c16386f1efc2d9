"""ROCoCoTM: the paper's hybrid TM (section 5).

The CPU side implements Algorithm 1 verbatim over thread-local
bloom-filter signatures — no per-location metadata, no atomics on the
fast path:

* ``GlobalTS`` counts committed writing transactions; the
  ``CommitQueue`` holds each one's write-set signature.
* Every read advances ``LocalTS`` over the commit queue, uniting the
  missed write signatures into a ``TempSet``.  While the read-set
  signature stays disjoint from the updates, the snapshot *extends*
  (``ValidTS = LocalTS``, Fig. 8(b)); once it overlaps, the snapshot
  freezes and the accumulated ``MissSet`` must never be read again
  (Fig. 8(c)/(d)), or the transaction aborts on the CPU — the fast
  fail path that never pays out-of-core latency.
* The read-set signature is summarized per 8-address sub-signature:
  a whole-set overlap triggers per-subset re-intersection, keeping
  conflict resolution O(1) typical / O(r/8) worst case (§5.3).
* The ``UpdateSet`` holds the signatures of transactions currently
  writing back — commit-time locking: a reader hitting it backs off
  until the write-back completes (or aborts if its snapshot already
  froze).

Writing transactions ship their read/write *addresses* and ``ValidTS``
to the FPGA engine (:mod:`repro.hw`) and wait for the verdict; the
engine's sliding-window ROCoCo decides.  Read-only transactions and
empty-write-set transactions commit directly on the CPU (§5.3).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..faults.degradation import (
    DegradationManager,
    DegradationPolicy,
    ValidationUnavailable,
)
from ..hw import FpgaValidationEngine, SoftwareValidationEngine, ValidationRequest
from ..signatures import SignatureConfig
from .api import TransactionAborted
from .backend import TMBackend
from .coarse_lock import IrrevocableHatch
from .events import SimEvent

BEGIN_NS = 10.0
READ_BASE_NS = 6.0          # raw load + signature insert
WRITE_NS = 6.0              # redo-log append + signature insert
TEMPSET_PER_ENTRY_NS = 3.0  # one 512-bit OR from the commit queue
INTERSECT_NS = 4.0          # one signature intersection (AVX2)
SUBSET_SIZE = 8             # addresses per read-set sub-signature
COMMIT_RO_NS = 5.0
WRITEBACK_PER_WORD_NS = 7.0
ROLLBACK_NS = 14.0


class _TxnState:
    """One transaction's CPU-side state.  The signatures are raw m-bit
    ints (§5.3's one-cacheline signatures): insert is ``|=`` of an
    address's interned mask, union is ``|``, intersection is
    :meth:`SignatureConfig.overlaps`."""

    __slots__ = (
        "local_ts", "valid_ts", "frozen", "read_addrs", "read_raw", "sub_raws",
        "write_addrs", "write_raw", "redo", "miss_raw",
    )

    def __init__(self, ts: int):
        self.local_ts = ts
        self.valid_ts = ts
        self.frozen = False                 # MissSet != empty
        self.read_addrs: List[int] = []
        self.read_raw = 0
        #: one signature per SUBSET_SIZE consecutive reads (§5.3)
        self.sub_raws: List[int] = []
        self.write_addrs: List[int] = []
        self.write_raw = 0
        self.redo: Dict[int, Any] = {}
        self.miss_raw = 0


class _UpdateEntry:
    """A committing transaction's write signature, live during write-back."""

    __slots__ = ("raw", "end_ns")

    def __init__(self, raw: int, end_ns: float):
        self.raw = raw
        self.end_ns = end_ns


class RococoTMBackend(TMBackend):
    """The hybrid CPU+FPGA TM of section 5."""

    name = "ROCoCoTM"
    #: compact global metadata (signatures only) — the smallest
    #: footprint of the contenders (§6.3's 28-thread argument).
    metadata_footprint = 0.55
    #: ``_updates`` is the UpdateSet (§5.3): entries are appended only
    #: inside the commit protocol; the read path merely prunes entries
    #: whose write-back interval has elapsed, which is idempotent and
    #: happens at a single simulated instant (TM003).
    _sanitizer_locked = ("_updates",)

    def __init__(
        self,
        window: int = 64,
        signature_config: Optional[SignatureConfig] = None,
        engine: Optional[FpgaValidationEngine] = None,
        irrevocable_after: Optional[int] = None,
        degradation: Optional[DegradationPolicy] = None,
    ):
        """``irrevocable_after``: consecutive aborts after which a
        transaction re-executes *irrevocably* under a global lock —
        the forward-progress escape hatch §4.2 prescribes for long
        transactions starved by sliding-window overflow.  None (the
        paper's evaluated configuration) disables it.

        ``degradation``: the validation-path fault-tolerance ladder
        (see docs/FAULTS.md).  Commit submissions go through a
        :class:`DegradationManager`: timeout -> bounded resubmission ->
        failover to a :class:`SoftwareValidationEngine` sharing the
        primary's ValidationManager -> (everything exhausted) abort +
        irrevocable re-execution.  With a pristine engine the ladder
        never engages and behaviour is bit-identical to the direct
        ``engine.submit`` call.
        """
        super().__init__()
        if signature_config is not None:
            self.config = signature_config
        elif engine is not None:
            # Adopt the injected engine's configuration: the CPU-side
            # signatures ride to the engine as raw bits (ValidationRequest
            # read_raw/write_raw), so both sides must hash identically.
            self.config = engine.manager.detector.config
        else:
            self.config = SignatureConfig()
        self.engine = engine or FpgaValidationEngine(window=window, config=self.config)
        policy = degradation or DegradationPolicy()
        if getattr(self.engine, "plan", None) is not None and getattr(
            self.engine, "timeout_ns", 1
        ) is None:
            # A chaos engine with no CPU-side patience configured
            # inherits the ladder's; otherwise faults could block a
            # commit forever and the ladder would never engage.
            self.engine.timeout_ns = policy.timeout_ns
        software = None
        if policy.software_failover:
            software = SoftwareValidationEngine(
                window=self.engine.manager.detector.window,
                config=self.engine.manager.detector.config,
            )
            # Decision-identical failover (§5.1): the software engine
            # drives the *same* ValidationManager, so the signature
            # window and reachability matrix carry over seamlessly.
            software.manager = self.engine.manager
        self.degradation = DegradationManager(self.engine, software, policy)
        self.global_ts = 0
        #: write signatures of committed writers, indexed by GlobalTS.
        self.commit_queue: List[int] = []
        self._updates: List[_UpdateEntry] = []
        self._txns: Dict[int, _TxnState] = {}
        self._label = 0
        self.hatch = IrrevocableHatch(irrevocable_after)
        #: which cluster shard this instance is (0 on a single node);
        #: set by ClusterTMBackend so validate events land on the
        #: right per-shard hw lanes in the trace.
        self.shard_id = 0

    # ------------------------------------------------------------------
    def attach(self, driver) -> None:
        super().attach(driver)
        # Observability wiring: the degradation ladder and (when
        # present) the chaos engine publish their transitions on the
        # run's bus.  Emissions are wants()-gated, so with no tracer
        # or metrics collector attached this costs nothing.
        self.degradation.bus = driver.bus
        self.engine.bus = driver.bus

    @property
    def stats_irrevocable_commits(self) -> int:
        return self.hatch.commits

    # ------------------------------------------------------------------
    def begin(self, tid: int, now: float) -> float:
        at = self.hatch.enter(tid, now, self.driver)
        self._txns[tid] = _TxnState(self.global_ts)
        return at + self.scaled(BEGIN_NS)

    # ------------------------------------------------------------------
    # TM_READ — Algorithm 1 lines 1-20.
    # ------------------------------------------------------------------
    def read(self, tid: int, addr: int, now: float) -> Tuple[Any, float]:
        txn = self._txns[tid]
        redo = txn.redo
        if addr in redo:  # lines 1-3
            return redo[addr], now + self.scaled(READ_BASE_NS)

        if tid in self.hatch.active:
            # Exclusive mode: no concurrent commits can happen (the
            # optimistic commit path fences on the lock), so direct
            # loads are consistent once lingering write-backs drain.
            now, _ = self.update_set_barrier(addr, now)
            return self.memory.load(addr), now + self.scaled(READ_BASE_NS)

        # Lines 9-13: fold missed commits into a TempSet.  Nothing
        # commits during one read, so folding ahead of the update-set
        # barrier sees the same queue.
        config = self.config
        cost = READ_BASE_NS
        temp = 0
        local_ts, global_ts = txn.local_ts, self.global_ts
        if local_ts < global_ts:
            for raw in self.commit_queue[local_ts:global_ts]:
                temp |= raw
            cost += TEMPSET_PER_ENTRY_NS * (global_ts - local_ts)
        overlap = False
        if temp:
            cost += INTERSECT_NS
            if config.overlaps(txn.read_raw, temp):
                # Whole-set hit: re-check per 8-address subset for
                # accuracy (§5.3).
                cost += INTERSECT_NS * max(1, len(txn.sub_raws))
                overlap = any(config.overlaps(s, temp) for s in txn.sub_raws)
        freeze = txn.frozen or overlap

        # Lines 5-7: commit-time locking via the update set.  A read
        # that does not freeze cannot abort, so the barrier's lookup
        # also counts its two inserts: one mask fetch per read.
        mask = 0
        if self._updates:
            now, mask = self.update_set_barrier(addr, now, txn.frozen, 0 if freeze else 2)

        value = self.memory.load(addr)  # line 8

        # Lines 14-19 + the Fig. 8(b) extension.
        txn.local_ts = global_ts
        if freeze:
            txn.miss_raw |= temp
            txn.frozen = True
            mask = config.mask(addr)
            if txn.miss_raw & mask == mask:
                raise TransactionAborted("cpu-miss")
            config.mask(addr, 2)  # the inserts, counted once the test passed
        else:
            if local_ts < global_ts:
                txn.valid_ts = global_ts  # snapshot extension
            if not mask:
                mask = config.mask(addr, 2)

        # Line 20: insert into the read set and its current subset.
        if len(txn.read_addrs) % SUBSET_SIZE:
            txn.sub_raws[-1] |= mask
        else:
            txn.sub_raws.append(mask)
        txn.read_raw |= mask
        txn.read_addrs.append(addr)
        return value, now + self.scaled(cost)

    def update_set_barrier(
        self, addr: int, now: float, frozen: bool = False, uses: int = 0
    ) -> Tuple[float, int]:
        """Lines 5-7: wait out in-flight write-backs covering *addr*, or
        abort if the reader's snapshot already froze.  ClusterTM's
        irrevocable reads call it too, with nothing to freeze.

        Returns the time and *addr*'s mask, or 0 if no live entry
        needed it; the mask lookup counts one use per entry tested plus
        *uses* further ones of the caller's."""
        mask = 0
        while True:
            live = [u for u in self._updates if u.end_ns > now]
            self._updates = live
            if not live:
                return now, mask
            mask = self.config.mask(addr, len(live) + uses)
            uses = 0
            blocking = [u.end_ns for u in live if u.raw & mask == mask]
            if not blocking:
                return now, mask
            if frozen:
                raise TransactionAborted("cpu-update-conflict")
            now = max(blocking)  # back_off()

    # ------------------------------------------------------------------
    def write(self, tid: int, addr: int, value: Any, now: float) -> float:
        txn = self._txns[tid]
        redo = txn.redo
        if addr not in redo:
            txn.write_addrs.append(addr)
            txn.write_raw |= self.config.mask(addr)
        redo[addr] = value  # lines 21-22
        return now + self.scaled(WRITE_NS)

    # ------------------------------------------------------------------
    def commit(self, tid: int, now: float) -> float:
        txn = self._txns[tid]
        hatch = self.hatch
        if tid in hatch.active:
            # Exclusive commit: no validation needed, and the lock fences
            # readers until the write-back ends, so no UpdateSet entry.
            # A read-only irrevocable commit pays no write-back time.
            end = self._writeback_end(txn, now)
            self._publish(txn, end, label=self._label + 1, fenced=True)
            self._txns.pop(tid, None)
            return hatch.release(tid, end, self.driver)
        if not txn.write_addrs:
            # Read-only fast path: commits directly on the CPU (§5.3).
            self.stats.read_only_commits += 1
            hatch.succeeded(tid)
            self._txns.pop(tid, None)
            return now + self.scaled(COMMIT_RO_NS)

        hatch.fence()
        # Ship addresses + ValidTS to the FPGA and wait for the verdict.
        request = self.prepare_request(tid)
        try:
            response = self.degradation.submit(request, now, self.stats)
        except ValidationUnavailable as outage:
            # Every validation rung failed: abort, and re-execute this
            # transaction irrevocably — the global-lock rung needs no
            # validation at all (docs/FAULTS.md).
            self._mirror_phantom_slots(txn)
            hatch.forced.add(tid)
            self.stats.irrevocable_fallbacks += 1
            raise TransactionAborted("fpga-unavailable", at_ns=outage.at_ns) from None
        self.stats.validation_ns += response.ready_ns - now
        self.stats.validations += 1
        if self.driver.bus.wants("validate"):
            self.publish_validation(
                tid, request, response, response.ready_ns, self.degradation.mode
            )
        if not response.verdict.committed:
            self._mirror_phantom_slots(txn)
            cause = "fpga-" + (response.verdict.reason or "cycle")
            raise TransactionAborted(cause)

        # The executing thread resumes at `ready`: the write-back is the
        # Committer stage of the meta-pipeline (§5.1) and overlaps the
        # thread's next work; readers of the written addresses stay
        # blocked on the update set until it completes.
        ready = response.ready_ns
        self._publish(txn, self._writeback_end(txn, ready))
        hatch.succeeded(tid)
        self._txns.pop(tid, None)
        return ready

    def _writeback_end(self, txn: _TxnState, start: float) -> float:
        return start + self.scaled(WRITEBACK_PER_WORD_NS * len(txn.write_addrs))

    def _publish(
        self,
        txn: _TxnState,
        writeback_end: float,
        label: Optional[int] = None,
        fenced: bool = False,
    ) -> None:
        """Algorithm 1's commit of a write set (§5.3): publish the write
        signature to the UpdateSet until *writeback_end* (skipped when
        *fenced*: a global lock already holds readers off), write back,
        append to the CommitQueue and bump GlobalTS.

        *label* names a commit the engine never decided (irrevocable or
        cross-shard): it still takes a window slot, so the engine's
        commit indices stay aligned with GlobalTS.  It is either freshly
        minted (``self._label + 1``, irrevocable) or the one the prepare
        minted (cross-shard).  A read-only transaction publishes nothing
        and mints no label.
        """
        if not txn.write_addrs:
            return
        if not fenced:
            self._updates.append(_UpdateEntry(txn.write_raw, writeback_end))
        for addr, value in txn.redo.items():
            self.memory.store(addr, value)
        self.commit_queue.append(txn.write_raw)
        self.global_ts += 1
        if label is not None:
            self._label = label
            self.engine.manager.record_external_commit(
                label,
                tuple(txn.read_addrs),
                tuple(txn.write_addrs),
                read_raw=txn.read_raw,
                write_raw=txn.write_raw,
            )

    def publish_validation(
        self, tid: int, request, response, ready_ns: float, mode: str
    ) -> None:
        """Publish one ``validate`` event with the full hw timing
        breakdown — the raw material for the Perfetto pipeline lanes
        and the validation-latency histograms (:mod:`repro.obs`).  The
        cluster coordinator publishes each prepare through it too, with
        its vote-arrival time and mode ``xshard``.

        ``detect_done_ns`` splits detector occupancy from the manager
        cycles: it is derived from the pipeline's initiation interval
        and clamped to ``finished_ns`` so software-failover responses
        (whose service time is one serial block) stay well-formed.
        """
        occupancy = self.engine.occupancy_cycles(request)
        detect_done = min(
            response.finished_ns,
            response.started_ns + self.engine.clock.cycles_to_ns(occupancy),
        )
        self.driver.bus.emit(
            SimEvent(
                "validate",
                tid,
                ready_ns,
                start=response.sent_ns,
                data={
                    "label": request.label,
                    "sent_ns": response.sent_ns,
                    "arrived_ns": response.arrived_ns,
                    "started_ns": response.started_ns,
                    "detect_done_ns": detect_done,
                    "finished_ns": response.finished_ns,
                    "ready_ns": ready_ns,
                    "n_read": len(request.read_addrs),
                    "n_write": len(request.write_addrs),
                    "occupancy_cycles": occupancy,
                    "committed": response.verdict.committed,
                    "reason": response.verdict.reason,
                    "window_resident": self.engine.manager.detector.resident,
                    "mode": mode,
                    "shard": self.shard_id,
                },
            )
        )

    def _mirror_phantom_slots(self, txn: _TxnState) -> None:
        """Realign GlobalTS with the engine after a failed validation.

        Under faults the engine may *apply* a commit whose verdict the
        CPU never receives (a timeout, or a reset wiping the decided
        verdict before a resubmission could fetch it).  That window
        slot is real: if the CPU aborts the transaction without
        accounting for it, every later snapshot trails the engine's
        head forever — the ghost conflicts with everything and nothing
        can commit (livelock), and after a reset the floor becomes
        unreachable.  Any excess of the engine's commit count over
        GlobalTS at an abort belongs to this transaction's submission
        ladder, so mirror it with this transaction's write signature.
        No memory write happens — the slot is conservative ordering
        metadata only.  With a pristine engine the counters are always
        equal and this is a no-op.
        """
        manager = self.engine.manager
        while self.global_ts < manager.total_commits:
            self.commit_queue.append(txn.write_raw)
            self.global_ts += 1
            self.stats.phantom_commits += 1

    def rollback(self, tid: int, now: float, cause: str) -> float:
        self.hatch.failed(tid)
        self._txns.pop(tid, None)
        return now + self.scaled(ROLLBACK_NS)

    # ------------------------------------------------------------------
    # The cluster surface (repro.cluster): one ROCoCoTM instance is one
    # shard's node, and ClusterTMBackend drives it through these
    # methods — never through the hook protocol's commit path — when a
    # transaction spans shards.  All of them execute at a single
    # simulated instant inside the coordinator's commit step.
    # ------------------------------------------------------------------
    def txn_touched(self, tid: int) -> bool:
        """Whether *tid* actually read or wrote on this shard (an
        opened-but-idle shard is dropped from the commit, free)."""
        txn = self._txns.get(tid)
        return txn is not None and bool(txn.read_addrs or txn.write_addrs)

    def txn_writes(self, tid: int) -> int:
        txn = self._txns.get(tid)
        return len(txn.write_addrs) if txn is not None else 0

    def txn_reads(self, tid: int) -> int:
        txn = self._txns.get(tid)
        return len(txn.read_addrs) if txn is not None else 0

    def drop_txn(self, tid: int) -> None:
        """Forget *tid*'s per-shard state without commit/abort
        bookkeeping (cluster rollback, and idle-shard pruning)."""
        self._txns.pop(tid, None)

    def prepare_request(self, tid: int) -> ValidationRequest:
        """*tid*'s read/write sets and ValidTS as a validation request
        (mints a fresh engine label).  The signatures accumulated during
        execution ride along so the engine's commit bookkeeping never
        re-hashes the address sets."""
        txn = self._txns[tid]
        self._label += 1
        return ValidationRequest(
            label=self._label,
            read_addrs=tuple(txn.read_addrs),
            write_addrs=tuple(txn.write_addrs),
            snapshot=txn.valid_ts,
            read_raw=txn.read_raw,
            write_raw=txn.write_raw,
        )

    def certify(self, request: ValidationRequest, now: float):
        """Run the non-mutating prepare on this shard's engine.  A
        chaos engine delegates ``certify`` to its wrapped primary, so
        prepares bypass fault injection (see docs/CLUSTER.md)."""
        return self.engine.certify(request, now)

    def apply_cross_shard_commit(self, tid: int, decided_ns: float) -> None:
        """Decide-phase application for one involved shard: publish the
        slice from *decided_ns* as an external commit under the label
        its prepare minted."""
        txn = self._txns.pop(tid)
        self._publish(txn, self._writeback_end(txn, decided_ns), label=self._label)

    def external_irrevocable_commit(
        self, redo: Dict[int, Any], writeback_end: float
    ) -> None:
        """Publish this shard's slice of a cluster-level irrevocable
        commit; the cluster lock fences readers until *writeback_end*."""
        txn = _TxnState(0)
        txn.write_addrs = list(redo)
        txn.write_raw = self.config.raw_of(txn.write_addrs)
        txn.redo = redo
        self._publish(txn, writeback_end, label=self._label + 1, fenced=True)

    # ------------------------------------------------------------------
    def abort_backoff_scale(self, cause: str) -> float:
        # Hammering a dead validation path only burns timeouts: park
        # fault-caused aborts much harder than contention aborts.
        if cause == "fpga-unavailable":
            return self.degradation.policy.fault_backoff_scale
        return 1.0

    def run_finished(self) -> None:
        counts = getattr(self.engine, "fault_counts", None)
        if counts:
            self.stats.faults_injected.update(counts)
        self.stats.link_retries += getattr(self.engine, "link_retries", 0)
        bus = self.driver.bus
        if bus.wants("mask_cache"):
            # End-of-run mask-cache effectiveness, mirrored from the
            # shared SignatureConfig (one event per shard).  Reaches
            # RunStats only through an observed run's metrics
            # snapshot, so unobserved stamps never depend on it.
            config = self.config
            bus.emit(
                SimEvent(
                    "mask_cache",
                    -1,
                    self.stats.makespan_ns,
                    data={
                        "hits": config.mask_cache_hits,
                        "misses": config.mask_cache_misses,
                        "entries": config.mask_cache_entries,
                        "shard": self.shard_id,
                    },
                )
            )
