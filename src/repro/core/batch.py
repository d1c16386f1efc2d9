"""Non-greedy batch validation (§4.1's deficiency, §7's future work).

The pipelined validator is *greedy*: "it greedily commits a
transaction if it does not cause cycles with regard to previous
transactions, without considering future transactions.  There exists
cases in which committing a transaction may cause more future
transactions to abort.  Optimizations on ROCoCo are possible if the
validation phase has a global view."

This module implements that optimization for a *batch* of concurrently
validated transactions (e.g. everything queued in one validation
window).  Within a batch nobody has observed anybody else's writes,
so the only intra-batch constraints are reader-precedes-writer edges;
combined with the usual forward/backward edges against the committed
prefix, the batch's dependency digraph is explicit, and choosing which
transactions to commit is choosing a maximum induced acyclic subgraph
— NP-hard in general, so we use a cycle-breaking heuristic (repeatedly
drop the most cycle-implicated vertex) and never do worse than the
greedy arrival order (the result is the better of the two selections).

The canonical win: a "hub" transaction that mutually conflicts with
several otherwise-independent peers.  Greedy commits the hub first and
aborts every peer; the global view sacrifices the hub and commits all
the peers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from .rococo import Footprint, RococoValidator


class BatchOutcome:
    """Result of validating one batch."""

    def __init__(self, committed: List[Footprint], aborted: List[Footprint]):
        self.committed = committed
        self.aborted = aborted

    @property
    def commit_count(self) -> int:
        return len(self.committed)


class BatchRococoValidator:
    """ROCoCo with a global view over each validation batch.

    Maintains the same unbounded reachability matrix as
    :class:`RococoValidator`; ``submit_batch`` decides a whole batch at
    once and folds the chosen subset into the matrix in a cycle-free
    order.
    """

    def __init__(self) -> None:
        self._inner = RococoValidator()
        self.stats_commits = 0
        self.stats_aborts = 0

    @property
    def committed_count(self) -> int:
        return self._inner.committed_count

    # ------------------------------------------------------------------
    def submit_batch(self, batch: Sequence[Footprint]) -> BatchOutcome:
        writers = [fp for fp in batch if not fp.is_read_only]
        readers = [fp for fp in batch if fp.is_read_only]

        keep_greedy = self._greedy_selection(writers)
        keep_global = self._global_selection(writers)
        keep = keep_global if len(keep_global) > len(keep_greedy) else keep_greedy

        committed: List[Footprint] = list(readers)  # read-only: free
        aborted: List[Footprint] = []
        for index in self._topological(writers, keep):
            decision = self._inner.submit(writers[index])
            if decision.committed:
                committed.append(writers[index])
            else:
                # The heuristic checks candidates against history one
                # at a time; a *joint* cycle threaded through old
                # committed transactions can still surface here.  The
                # inner validator is the safety authority: drop the
                # transaction.
                keep.discard(index)
                aborted.append(writers[index])
        for i, fp in enumerate(writers):
            if i not in keep:
                aborted.append(fp)
        self.stats_commits += len(committed)
        self.stats_aborts += len(aborted)
        return BatchOutcome(committed, aborted)

    # ------------------------------------------------------------------
    def _edges(self, writers: Sequence[Footprint]) -> Set[Tuple[int, int]]:
        """Intra-batch reader-precedes-writer edges (i -> j)."""
        edges = set()
        for i, a in enumerate(writers):
            for j, b in enumerate(writers):
                if i != j and a.read_set & b.write_set:
                    edges.add((i, j))
        return edges

    def _conflicts_with_history(self, fp: Footprint) -> bool:
        """Would *fp* alone close a cycle with the committed prefix?"""
        forward, backward = self._inner.edges(fp)
        ok, _, _ = self._inner.matrix.probe(forward, backward)
        return not ok

    def _greedy_selection(self, writers: Sequence[Footprint]) -> Set[int]:
        """Arrival-order selection: what the pipelined validator does."""
        edges = self._edges(writers)
        keep: Set[int] = set()
        for i in range(len(writers)):
            if self._conflicts_with_history(writers[i]):
                continue
            candidate = keep | {i}
            if self._acyclic(candidate, edges):
                keep.add(i)
        return keep

    def _global_selection(self, writers: Sequence[Footprint]) -> Set[int]:
        """Cycle-breaking: drop the most cycle-implicated vertices."""
        keep = {
            i
            for i in range(len(writers))
            if not self._conflicts_with_history(writers[i])
        }
        edges = self._edges(writers)
        while True:
            cycle_nodes = self._nodes_on_cycles(keep, edges)
            if not cycle_nodes:
                return keep
            # Drop the vertex with the most cycle-internal edges.
            def weight(v):
                return sum(
                    1
                    for (a, b) in edges
                    if (a == v and b in cycle_nodes) or (b == v and a in cycle_nodes)
                )

            keep.discard(max(cycle_nodes, key=lambda v: (weight(v), v)))

    # ------------------------------------------------------------------
    @staticmethod
    def _acyclic(nodes: Set[int], edges: Set[Tuple[int, int]]) -> bool:
        return not BatchRococoValidator._nodes_on_cycles(nodes, edges)

    @staticmethod
    def _nodes_on_cycles(nodes: Set[int], edges: Set[Tuple[int, int]]) -> Set[int]:
        """Nodes inside non-trivial strongly connected components."""
        adjacency: Dict[int, List[int]] = {n: [] for n in nodes}
        for a, b in edges:
            if a in nodes and b in nodes:
                adjacency[a].append(b)
        # Tarjan's SCC, iterative.
        index: Dict[int, int] = {}
        low: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []
        counter = [0]
        result: Set[int] = set()

        for root in nodes:
            if root in index:
                continue
            work = [(root, iter(adjacency[root]))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(adjacency[nxt])))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        result.update(component)
        return result

    @staticmethod
    def _topological(
        writers: Sequence[Footprint], keep: Set[int]
    ) -> List[int]:
        """Kept indices in a cycle-free commit order."""
        edges = set()
        for i in keep:
            for j in keep:
                if i != j and writers[i].read_set & writers[j].write_set:
                    edges.add((i, j))
        indegree = {i: 0 for i in keep}
        for _, b in edges:
            indegree[b] += 1
        ready = sorted(i for i in keep if indegree[i] == 0)
        order: List[int] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            changed = False
            for a, b in edges:
                if a == node:
                    indegree[b] -= 1
                    if indegree[b] == 0:
                        ready.append(b)
                        changed = True
            if changed:
                ready.sort()
        if len(order) != len(keep):
            raise AssertionError("selection was not acyclic")
        return order
