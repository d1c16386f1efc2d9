"""The ROCoCo reachability matrix (section 4, Figs. 4 and 5).

ROCoCo validates acyclicity of the R/W-dependency relation without
timestamps by maintaining the *reachability matrix* R of the committed
transaction DAG and extending it one transaction at a time (section
4.1):

* **Warshall's fact** (forward): ``t`` reaches ``t_i`` iff
  ``t -> t_i`` directly, or ``t -> t_j`` and ``t_j`` reaches ``t_i``.
  Vectorized: ``p = f | R^T f`` (the *proceeding* vector).
* **Dual fact** (backward): ``t`` is reachable from ``t_i`` iff
  ``t_i -> t`` directly, or ``t_i`` reaches some ``t_j`` with
  ``t_j -> t``.  Vectorized: ``s = b | R b`` (the *succeeding* vector).
* **Cycle test**: committing ``t`` would close a cycle iff some
  committed ``t_i`` both precedes and succeeds ``t``:
  ``p & s != 0`` — an O(1)-depth wide AND/OR in hardware.
* **Closure update** on commit: ``p`` and ``s`` become the new row and
  column, and every old entry picks up the new paths *through* t:
  ``r[i][j] |= s[i] & p[j]`` (an outer product, one cycle in the 2D
  registers).

Note on the paper's notation: the inline formulas in section 4.1 index
``r[i][j]`` with the opposite convention from their own matrix forms
``p = f + R^T f`` / ``s = b + R b``; we follow the matrix forms, which
are the self-consistent ones (and the ones Fig. 4 depicts).

Hardware cannot hold an unbounded reachability matrix, so the FPGA
keeps bookkeeping for only the W most recent committed (writing)
transactions (section 4.2, Fig. 5).  Two consequences, both modelled
here:

* **Window overflow** — when ``t_{k+1}`` commits, the bookkeeping for
  ``t_{k-W}`` is discarded; any transaction that *neglects the updates*
  of an evicted transaction (its snapshot predates the window) must
  abort, because its forward edges to the evicted region can no longer
  be tracked.
* **Settled history** — the closure may record that a still-resident
  transaction ``w`` *reaches* the transaction being evicted (``w``
  committed later but serializes earlier).  After eviction that path is
  unrepresentable, so ``w`` carries a sticky *taint* bit meaning
  "reaches settled history".  A candidate whose proceeding vector hits
  a tainted slot is conservatively aborted: settled history is pinned
  before all future transactions in the serialization witness, so
  reaching it would close a potential cycle we can no longer check.
  (With W = 64 and 28 threads such chains are rare; the paper's
  evaluation never observed related livelock.)

The window variant therefore commits a subset of what the unbounded
validator of :mod:`repro.core.rococo` commits on the same stream — a
property the test-suite checks.

:class:`WindowMatrix` is the bare matrix datapath.  Bounded to W slots
it is what the FPGA's 2D registers + taint register implement; with
``window=None`` it never evicts and is the unbounded closure that the
algorithmic experiments (Fig. 9) validate against.
:class:`SlidingWindowValidator` layers exact-footprint edge extraction
on top for algorithm-level use.  The hardware model in :mod:`repro.hw`
layers *signature-based* edge extraction on the same matrix instead.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import FrozenSet, Hashable, List, Optional, Tuple

from .footprint import Address, Decision, Footprint

DEFAULT_WINDOW = 64


class WindowMatrix:
    """Reachability matrix with shift-out eviction and taint.

    Slots are numbered oldest-first; ``rows[i]`` bit ``j`` means slot
    *i* reaches slot *j*.  The diagonal is 1 — "a vertex can always
    reach itself" (section 4.1) — which also makes the cycle test catch
    direct 2-cycles through the diagonal-free f/b vectors uniformly.
    The taint mask marks slots that reach settled (evicted) history.
    ``window=None`` keeps every slot: slot *i* is then the *i*-th
    commit and the taint stays 0.
    """

    def __init__(self, window: Optional[int] = None):
        if window is not None and window < 1:
            raise ValueError("window must hold at least one transaction")
        #: ``commit`` evicts once more than this many slots are resident.
        self._capacity = sys.maxsize if window is None else window
        self._rows: List[int] = []
        #: exact transpose of ``_rows`` (``cols[j]`` bit *i* means slot
        #: *i* reaches slot *j*), maintained so the backward
        #: matrix-vector product and the eviction-time "who reaches
        #: slot 0" scan iterate only *set* bits instead of all W slots.
        self._cols: List[int] = []
        self._taint: int = 0

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def taint(self) -> int:
        return self._taint

    @property
    def rows(self) -> List[int]:
        """The rows, oldest slot first (read-only by convention)."""
        return self._rows

    def reaches(self, i: int, j: int) -> bool:
        return bool(self._rows[i] >> j & 1)

    # ------------------------------------------------------------------
    def probe(self, forward: int, backward: int) -> Tuple[bool, int, int]:
        """(ok, proceeding, succeeding) for candidate edge vectors.

        ``forward`` has bit *i* set iff the candidate has an edge *to*
        slot *i* (``t ->_rw t_i``, e.g. t anti-depends on a read of
        t_i); ``backward`` has bit *i* set iff slot *i* has an edge to
        the candidate.  ``ok`` is False when a cycle closes (``p & s``)
        or when the candidate reaches tainted (settled) history.
        """
        proceeding = forward | self._mv_transposed(forward)
        succeeding = backward | self._mv(backward)
        ok = (proceeding & succeeding) == 0 and (proceeding & self._taint) == 0
        return ok, proceeding, succeeding

    def commit(self, proceeding: int, succeeding: int) -> bool:
        """Insert a validated candidate as the newest slot.

        Callers commit only the (p, s) of a passing probe; a cyclic
        pair is not refused here.  Returns True if an eviction happened
        (the window was full).  Rows are updated by iterating only the
        *set* bits of the succeeding vector (usually sparse under low
        contention).
        """
        k = len(self._rows)
        new_row = proceeding | (1 << k)
        bits = succeeding
        while bits:
            low = bits & -bits
            self._rows[low.bit_length() - 1] |= new_row
            bits ^= low
        self._rows.append(new_row)
        self._cols.append(0)
        incoming = succeeding | (1 << k)
        bits = new_row
        while bits:
            low = bits & -bits
            self._cols[low.bit_length() - 1] |= incoming
            bits ^= low
        if len(self._rows) > self._capacity:
            self._evict_oldest()
            return True
        return False

    def _evict_oldest(self) -> None:
        """Discard slot 0 (``h_{W-1}`` in Fig. 5) and renumber.

        Residents that reach the evicted transaction become tainted —
        exactly the set bits of the evicted slot's *column* — and
        existing taint shifts down with the renumbering.
        """
        evicted_reachers = self._cols[0] >> 1
        self._rows = [row >> 1 for row in self._rows[1:]]
        self._cols = [col >> 1 for col in self._cols[1:]]
        self._taint = (self._taint >> 1) | evicted_reachers

    # ------------------------------------------------------------------
    def _mv(self, vec: int) -> int:
        """Slots with an edge *into* ``vec``: an OR over the columns
        of the set bits of ``vec`` (sparse under low contention)."""
        out = 0
        cols = self._cols
        while vec:
            low = vec & -vec
            out |= cols[low.bit_length() - 1]
            vec ^= low
        return out

    def _mv_transposed(self, vec: int) -> int:
        out = 0
        i = 0
        while vec:
            if vec & 1:
                out |= self._rows[i]
            vec >>= 1
            i += 1
        return out


@dataclass
class _Slot:
    """Bookkeeping for one resident committed transaction (an ``h_i``)."""

    label: Hashable
    read_set: FrozenSet[Address]
    write_set: FrozenSet[Address]
    commit_index: int


class SlidingWindowValidator:
    """ROCoCo over the W most recent committed writing transactions."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        self.matrix = WindowMatrix(window)
        self.window = window
        self._slots: List[_Slot] = []  # oldest first
        self.total_commits = 0  # writing commits ever accepted
        self.stats_commits = 0
        self.stats_read_only = 0
        self.stats_cycle_aborts = 0
        self.stats_overflow_aborts = 0
        self.stats_taint_aborts = 0

    # ------------------------------------------------------------------
    @property
    def resident(self) -> int:
        return len(self._slots)

    @property
    def oldest_commit_index(self) -> int:
        """Commit index of the oldest resident transaction.

        Snapshots older than this "neglect updates" of an evicted
        transaction and must abort.
        """
        return self._slots[0].commit_index if self._slots else 0

    def labels(self) -> List[Hashable]:
        return [s.label for s in self._slots]

    # ------------------------------------------------------------------
    def submit(self, fp: Footprint) -> Decision:
        """Validate one transaction.

        ``fp.snapshot`` counts *writing commits* observed, in this
        validator's commit order.
        """
        if fp.is_read_only:
            self.stats_read_only += 1
            return Decision(committed=True)

        if fp.snapshot < self.oldest_commit_index:
            self.stats_overflow_aborts += 1
            return Decision(False, "window-overflow")

        forward, backward = self._edges(fp)
        ok, proceeding, succeeding = self.matrix.probe(forward, backward)
        if not ok:
            if proceeding & succeeding:
                self.stats_cycle_aborts += 1
            else:
                self.stats_taint_aborts += 1
            return Decision(False, "cycle", forward=forward, backward=backward)

        self.matrix.commit(proceeding, succeeding)
        self._slots.append(
            _Slot(fp.label, fp.read_set, fp.write_set, self.total_commits)
        )
        if len(self._slots) > self.window:
            del self._slots[0]
        self.total_commits += 1
        self.stats_commits += 1
        return Decision(
            True,
            commit_index=self.total_commits - 1,
            forward=forward,
            backward=backward,
        )

    # ------------------------------------------------------------------
    def _edges(self, fp: Footprint) -> Tuple[int, int]:
        forward = 0
        backward = 0
        for i, slot in enumerate(self._slots):
            bit = 1 << i
            if fp.read_set & slot.write_set:
                if slot.commit_index < fp.snapshot:
                    backward |= bit
                else:
                    forward |= bit
            if fp.write_set & slot.write_set or fp.write_set & slot.read_set:
                backward |= bit
        return forward, backward

    # ------------------------------------------------------------------
    def reaches(self, i: int, j: int) -> bool:
        """Does resident slot *i* reach resident slot *j*?"""
        return self.matrix.reaches(i, j)

    @property
    def stats_aborts(self) -> int:
        return self.stats_cycle_aborts + self.stats_overflow_aborts + self.stats_taint_aborts
