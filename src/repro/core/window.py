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
algorithmic experiments (Fig. 9) validate against.  The bounded
decision path is :class:`repro.hw.manager.ValidationManager`, which
takes its edges from bloom signatures (:class:`repro.hw.ConflictDetector`)
or from exact sets (:class:`repro.hw.ExactDetector`).
"""

from __future__ import annotations

import sys
from typing import List, Optional, Tuple


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
