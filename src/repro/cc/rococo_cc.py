"""ROCoCo driven by the trace model (the Fig. 9 contender).

Unlike TOCC, the validator serializes a transaction anywhere the
dependency DAG allows, so it needs exact dependency *edges* rather
than a timestamp comparison.  Edges between the candidate and the
committed set are derived from the timed reads/writes:

* **forward** (candidate must precede): every committed writer that
  overwrote a version the candidate read (WAR where the candidate is
  the stale reader);
* **backward** (candidate must follow): the writer of each version the
  candidate observed (RAW), the previous writer of everything the
  candidate writes (WAW), and every committed reader of the *current*
  version of everything the candidate writes (WAR).

Bookkeeping keeps only the edges whose transitive closure equals the
closure of the full dependency relation: WAW edges chain through the
per-location version list, earlier readers already point at the
intermediate writers, so per location we only track readers since the
last write.  The property tests check this equivalence against a
ground-truth graph.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..core.window import WindowMatrix
from .engine import INITIAL, CommittedTxn, TraceCC, TxnView


class RococoCC(TraceCC):
    name = "ROCoCo"

    def __init__(self, concurrency: int, window: int = 0, read_placement: str = "start"):
        """``window`` aborts a candidate with a forward edge older than
        the last ``window`` commits, as the FPGA's window overflow
        does; 0 means unbounded (the pure-algorithm setting of
        Fig. 9)."""
        super().__init__(concurrency, read_placement)
        self.window = window
        self._reset()

    def _reset(self) -> None:
        self.matrix = WindowMatrix()
        #: per address: [(commit_time, matrix_index)], append-only.
        self._writers: Dict[int, List[Tuple[float, int]]] = {}
        #: per address: matrix indices reading the current version.
        self._readers: Dict[int, Set[int]] = {}
        #: per committed view, its matrix index (by txn id).
        self._index: Dict[int, int] = {}
        #: per validated view, its (proceeding, succeeding) vectors.
        self._pending: Dict[int, Tuple[int, int]] = {}

    def run(self, trace, observer=None, bus=None):  # type: ignore[override]
        self._reset()
        return super().run(trace, observer=observer, bus=bus)

    # ------------------------------------------------------------------
    def validate(self, view: TxnView, committed: Sequence[CommittedTxn]) -> bool:
        forward = 0
        backward = 0
        for read in view.reads:
            writers = self._writers.get(read.addr, ())
            for commit_time, index in reversed(writers):
                if commit_time > read.version_time:
                    forward |= 1 << index
                else:
                    break
            if read.version != INITIAL:
                idx = self._index.get(read.version)
                if idx is not None:
                    backward |= 1 << idx
        for write in view.writes:
            writers = self._writers.get(write.addr, ())
            if writers:
                backward |= 1 << writers[-1][1]
            for reader in self._readers.get(write.addr, ()):
                backward |= 1 << reader

        if self.window and len(self.matrix) >= self.window:
            # Bounded mode: edges to evicted prefix cannot be tracked;
            # conservatively abort stale snapshots (window overflow).
            boundary = len(self.matrix) - self.window
            if forward & ((1 << boundary) - 1):
                return False

        ok, proceeding, succeeding = self.matrix.probe(forward, backward)
        if not ok:
            return False
        self._pending[view.txn] = (proceeding, succeeding)
        return True

    def on_commit(self, view: TxnView) -> None:
        index = len(self.matrix)
        self.matrix.commit(*self._pending.pop(view.txn))
        self._index[view.txn] = index

        for read in view.reads:
            writers = self._writers.get(read.addr)
            current_time = writers[-1][0] if writers else 0.0
            if read.version_time >= current_time:
                # Still the current version: future writers of this
                # address owe us a WAR edge.
                self._readers.setdefault(read.addr, set()).add(index)
        for write in view.writes:
            self._writers.setdefault(write.addr, []).append((view.commit_time, index))
            self._readers[write.addr] = set()
