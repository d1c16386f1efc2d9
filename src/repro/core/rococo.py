"""The ROCoCo validator over transaction footprints.

This module layers the dependency-edge extraction of an OCC validation
phase on top of an unbounded :class:`~repro.core.window.WindowMatrix`.
A candidate transaction arrives with its read set, write set and
*snapshot index* — the number of committed transactions whose updates
it observed (the CPU side's ``ValidTS``; eager detection guarantees
reads form a consistent snapshot at that point).  Edges to each committed transaction ``t_i``
follow section 3.1's rules:

* ``t_i`` committed **within** the snapshot and wrote something ``t``
  read — RAW, so ``t_i -> t`` (backward);
* ``t_i`` committed **after** the snapshot and wrote something ``t``
  read — ``t`` read the previous version, WAR, so ``t -> t_i``
  (forward).  This is the edge that makes TOCC abort (``t`` would have
  to serialize *before* an already-committed transaction); ROCoCo
  commits it whenever no cycle closes.
* ``t`` writes something ``t_i`` read or wrote — WAR / WAW, so
  ``t_i -> t`` (backward; ``t_i`` is already committed and read/wrote
  the pre-``t`` version).

A read-only transaction can never acquire an incoming edge from beyond
its snapshot nor any outgoing obligation, so it commits without
validation — the CPU-side fast path of section 5.3.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, List, Tuple

from .footprint import Address, Decision, Footprint
from .window import WindowMatrix


class RococoValidator:
    """Unbounded centralized ROCoCo validation (sections 4.1 and 5.3).

    The validator is *greedy*: it commits any transaction that does not
    close a cycle with the already-committed set, which the paper notes
    may occasionally sacrifice future transactions (section 4.1).
    """

    def __init__(self) -> None:
        self.matrix = WindowMatrix()
        self._labels: List[Hashable] = []
        self._reads: List[FrozenSet[Address]] = []
        self._writes: List[FrozenSet[Address]] = []
        self.stats_commits = 0
        self.stats_aborts = 0
        self.stats_read_only = 0

    @property
    def committed_count(self) -> int:
        return len(self._reads)

    def edges(self, fp: Footprint) -> Tuple[int, int]:
        """Forward/backward edge bitmasks of *fp* vs the committed set."""
        forward = 0
        backward = 0
        for i in range(len(self._reads)):
            bit = 1 << i
            if fp.read_set & self._writes[i]:
                if i < fp.snapshot:
                    backward |= bit
                else:
                    forward |= bit
            if fp.write_set and (
                fp.write_set & self._writes[i] or fp.write_set & self._reads[i]
            ):
                backward |= bit
        return forward, backward

    def submit(self, fp: Footprint) -> Decision:
        """Validate *fp*; commit it into the matrix when acyclic."""
        if fp.is_read_only:
            self.stats_read_only += 1
            return Decision(committed=True)

        forward, backward = self.edges(fp)
        ok, proceeding, succeeding = self.matrix.probe(forward, backward)
        if not ok:
            self.stats_aborts += 1
            return Decision(False, "cycle", forward=forward, backward=backward)

        index = len(self._reads)
        self.matrix.commit(proceeding, succeeding)
        self._labels.append(index if fp.label is None else fp.label)
        self._reads.append(fp.read_set)
        self._writes.append(fp.write_set)
        self.stats_commits += 1
        return Decision(True, commit_index=index, forward=forward, backward=backward)

    def serialization_order(self) -> List[Hashable]:
        """A serial-equivalent order of the committed transactions.

        Unlike TOCC, commit order is *not* the serial order here; the
        witness is any topological order of the committed DAG, which we
        reconstruct from the matrix's rows (a DAG's closure is itself
        acyclic off the diagonal).
        """
        rows = self.matrix.rows
        # Sort by the number of transactions each one reaches,
        # descending: in a closure of a DAG, u reaches a strict
        # superset of what its successors reach, so this is a valid
        # topological order (ties are unrelated transactions).
        order = sorted(range(len(rows)), key=lambda i: -bin(rows[i]).count("1"))
        return [self._labels[i] for i in order]


def tocc_would_abort(fp: Footprint, validator: RococoValidator) -> bool:
    """Would a commit-time-timestamp TOCC (LSA-like) abort this txn?

    TOCC assigns the candidate the largest timestamp, so any *forward*
    edge — an already-committed transaction that must serialize after
    the candidate — violates the timestamp order.  Used by the Fig. 9
    harness to count ROCoCo's saved aborts without re-running traces.
    """
    forward, _ = validator.edges(fp)
    return forward != 0
