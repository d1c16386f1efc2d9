"""The validation Manager (right half of Fig. 5).

The manager owns the W x W reachability matrix (2D registers) and the
decision logic: window-overflow check, the O(1) cycle test over the
detector's forward/backward vectors, and the single-cycle matrix
update + bookkeeping shift on commit.  It composes an edge source with
:class:`repro.core.window.WindowMatrix` (reachability), keeping the
two shift registers in lock-step exactly as the commit broadcast in
Fig. 5 does.  The edge source is a :class:`ConflictDetector`
(signatures, the hardware) or an :class:`ExactDetector` (exact sets,
the reference): one decision path, two interchangeable detectors.

The manager sits *below* the Driver boundary (see
:mod:`repro.runtime.driver`): it is purely functional over its own
state and never touches the simulator, the event bus, or simulated
time — timing and emission live in the engine above it
(:mod:`repro.hw.engine`), which holds the Emitter surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Tuple, Union

from ..core.footprint import Decision
from ..core.window import WindowMatrix
from .detector import ConflictDetector, ExactDetector


@dataclass(frozen=True)
class ValidationRequest:
    """What the CPU ships for one transaction (§5.3): the read and
    write sets *as addresses*, plus the snapshot (ValidTS).

    ``read_raw``/``write_raw`` are the transaction's *incremental*
    bloom signatures — ROCoCoTM accumulates both while the transaction
    executes (Algorithm 1), so shipping them costs nothing and lets
    the detector's commit bookkeeping union two ints instead of
    re-hashing every address.  They are strictly an optimization: a
    request without them produces bit-identical verdicts (the detector
    re-derives the same raws through the mask cache)."""

    label: Hashable
    read_addrs: Tuple[int, ...]
    write_addrs: Tuple[int, ...]
    snapshot: int
    read_raw: Optional[int] = None
    write_raw: Optional[int] = None

    @property
    def n_addresses(self) -> int:
        return len(self.read_addrs) + len(self.write_addrs)


class ValidationManager:
    """Decision logic over detector + matrix (order = arrival order)."""

    def __init__(self, detector: Union[ConflictDetector, ExactDetector]):
        #: the edge source; :meth:`reset` replaces it with an empty one
        #: of the same kind.
        self.detector = detector
        self.matrix = WindowMatrix(detector.window)
        self.total_commits = 0
        #: commit index below which history has been *wiped* (engine
        #: reset): snapshots older than this must abort like any other
        #: window overflow, because their forward edges are gone.
        self.reset_floor = 0
        self.stats_commits = 0
        self.stats_cycle_aborts = 0
        self.stats_overflow_aborts = 0
        self.stats_taint_aborts = 0
        self.stats_resets = 0
        self.stats_external_commits = 0
        self.stats_certifies = 0
        self.stats_certify_refusals = 0

    @property
    def stats_aborts(self) -> int:
        return (
            self.stats_cycle_aborts
            + self.stats_overflow_aborts
            + self.stats_taint_aborts
        )

    def validate(self, request: ValidationRequest) -> Decision:
        """Decide one transaction; commits update matrix + bookkeeping."""
        if not request.write_addrs:
            # Read-only transactions never reach the FPGA in ROCoCoTM
            # (§5.3), but accept them gracefully if they do.
            return Decision(committed=True)

        horizon = max(self.reset_floor, self.detector.oldest_commit_index)
        if request.snapshot < horizon:
            self.stats_overflow_aborts += 1
            return Decision(False, "window-overflow")

        forward, backward = self.detector.edges(
            request.read_addrs, request.write_addrs, request.snapshot
        )
        ok, proceeding, succeeding = self.matrix.probe(forward, backward)
        if not ok:
            if proceeding & succeeding:
                self.stats_cycle_aborts += 1
            else:
                self.stats_taint_aborts += 1
            return Decision(False, "cycle", forward=forward, backward=backward)

        self.matrix.commit(proceeding, succeeding)
        self.detector.record_commit(
            request.label,
            self.total_commits,
            request.read_addrs,
            request.write_addrs,
            read_raw=request.read_raw,
            write_raw=request.write_raw,
        )
        self.total_commits += 1
        self.stats_commits += 1
        return Decision(
            True,
            commit_index=self.total_commits - 1,
            forward=forward,
            backward=backward,
        )

    # ------------------------------------------------------------------
    def certify(self, request: ValidationRequest) -> Decision:
        """Freshness check for cross-shard two-phase validation.

        Unlike :meth:`validate`, this *never mutates* the window: no
        matrix update, no signature recording, no commit-index bump.
        A certified transaction will be serialized at its coordinator's
        decide instant — after every transaction resident in this
        window — so the only local hazard is a stale read: a forward
        edge (a read overlapping a commit the snapshot missed).  With
        zero forward edges the transaction orders after the entire
        resident history and the probe cannot fail; the decide step
        enters it via :meth:`record_external_commit`.  Because nothing
        is recorded here, a coordinator holding one committed vote
        needs no undo when a later shard refuses.
        """
        self.stats_certifies += 1
        horizon = max(self.reset_floor, self.detector.oldest_commit_index)
        if request.snapshot < horizon:
            self.stats_certify_refusals += 1
            return Decision(False, "window-overflow")
        forward, backward = self.detector.edges(
            request.read_addrs, request.write_addrs, request.snapshot
        )
        if forward:
            self.stats_certify_refusals += 1
            return Decision(False, "stale", forward=forward, backward=backward)
        return Decision(True, forward=forward, backward=backward)

    # ------------------------------------------------------------------
    def record_external_commit(
        self,
        label: Hashable,
        read_addrs: Tuple[int, ...],
        write_addrs: Tuple[int, ...],
        read_raw: Optional[int] = None,
        write_raw: Optional[int] = None,
    ) -> None:
        """Enter a commit decided *off-engine* into the bookkeeping.

        The irrevocable global-lock path commits without validation,
        but its commit still bumps the runtime's GlobalTS; recording it
        here keeps the manager's commit indices aligned with snapshot
        numbering and makes later conflicts against it visible.  An
        irrevocable transaction runs under a global fence, so it
        serializes after every resident transaction: all its edges are
        backward, the probe cannot fail, and the entry slots in like
        any other commit.
        """
        forward, backward = self.detector.edges(
            read_addrs, write_addrs, self.total_commits
        )
        _, proceeding, succeeding = self.matrix.probe(forward, backward)
        self.matrix.commit(proceeding, succeeding)
        self.detector.record_commit(
            label,
            self.total_commits,
            read_addrs,
            write_addrs,
            read_raw=read_raw,
            write_raw=write_raw,
        )
        self.total_commits += 1
        self.stats_external_commits += 1

    def reset(self) -> None:
        """Model an engine reset: signature history + matrix wiped.

        Correctness is preserved conservatively: ``reset_floor`` pins
        the overflow horizon at the wipe point, so any transaction
        whose snapshot predates the reset aborts (its forward edges
        can no longer be tracked), while transactions that observed
        everything up to the reset validate soundly against the
        post-reset window alone — exactly the window-overflow argument
        of §4.2, applied to the whole history at once.
        """
        self.reset_floor = self.total_commits
        self.detector = self.detector.empty()
        self.matrix = WindowMatrix(self.detector.window)
        self.stats_resets += 1
