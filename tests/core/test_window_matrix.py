"""Direct tests of the WindowMatrix datapath (eviction + taint)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import WindowMatrix


class TestProbeCommit:
    def test_empty_matrix_accepts_anything(self):
        m = WindowMatrix(4)
        ok, p, s = m.probe(0, 0)
        assert ok and p == 0 and s == 0

    def test_self_reaches_self(self):
        m = WindowMatrix(4)
        m.commit(0, 0)
        assert m.reaches(0, 0)

    def test_two_cycle_rejected(self):
        m = WindowMatrix(4)
        m.commit(0, 0)
        ok, p, s = m.probe(0b1, 0b1)
        assert not ok
        assert p & s

    def test_transitive_paths_via_newcomer(self):
        m = WindowMatrix(4)
        m.commit(0, 0)              # slot 0 = A
        ok, p, s = m.probe(0b1, 0)  # B precedes A (forward edge)
        m.commit(p, s)              # slot 1 = B; B reaches A
        assert m.reaches(1, 0)
        # C follows B (backward edge): B -> C, so B keeps its reach to
        # A, and C gains none of it (edges into C grant C nothing).
        ok, p, s = m.probe(0, 0b10)
        m.commit(p, s)              # slot 2 = C
        assert m.reaches(1, 2)
        assert not m.reaches(2, 0)
        assert not m.reaches(0, 2)
        # And B -> C composed with C's future successors is covered by
        # the closure update: a D following C is reachable from B too.
        ok, p, s = m.probe(0, 0b100)
        m.commit(p, s)              # slot 3 = D
        assert m.reaches(1, 3)

    def test_eviction_shifts_and_taints(self):
        m = WindowMatrix(2)
        m.commit(0, 0)              # A (slot 0)
        ok, p, s = m.probe(0b1, 0)  # B precedes A
        m.commit(p, s)              # B (slot 1), reaches A
        assert m.reaches(1, 0)
        evicted = m.commit(0, 0b10)  # C follows B; window overflows, A leaves
        assert evicted
        assert len(m) == 2
        # B renumbered to slot 0 and tainted (it reached evicted A).
        assert m.taint & 0b1
        # C (slot 1) untainted.
        assert not (m.taint & 0b10)

    def test_taint_blocks_probes(self):
        m = WindowMatrix(2)
        m.commit(0, 0)
        ok, p, s = m.probe(0b1, 0)
        m.commit(p, s)
        m.commit(0, 0b10)  # evict; slot 0 (old B) tainted
        ok, p, s = m.probe(0b1, 0)  # candidate would reach tainted slot
        assert not ok

    def test_window_size_validated(self):
        with pytest.raises(ValueError):
            WindowMatrix(0)

    def test_taint_shifts_out_eventually(self):
        m = WindowMatrix(2)
        m.commit(0, 0)              # A
        ok, p, s = m.probe(0b1, 0)
        m.commit(p, s)              # B reaches A
        m.commit(0, 0b10)           # C follows B; A evicted, B tainted
        assert m.taint == 0b1
        m.commit(0, 0b10)           # D follows C; B (the tainted slot)
        assert m.taint == 0         # ... evicted: taint drains with it


class TestAgainstNetworkx:
    """The bounded matrix against ground truth over the *full* graph.

    Every candidate's edges are drawn over the resident slots; the
    graph keeps every committed vertex, evicted ones included.
    """

    @given(
        st.integers(1, 6),
        st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_bounded_window_matches_full_graph(self, window, stream):
        m = WindowMatrix(window)
        graph = nx.DiGraph()
        resident = []  # slot -> vertex, oldest first
        evicted = set()
        for vertex, (raw_fwd, raw_bwd) in enumerate(stream):
            slots = (1 << len(resident)) - 1
            fwd, bwd = raw_fwd & slots, raw_bwd & slots
            ok, p, s = m.probe(fwd, bwd)

            trial = graph.copy()
            trial.add_node(vertex)
            trial.add_edges_from(
                (vertex, v) for i, v in enumerate(resident) if fwd >> i & 1
            )
            trial.add_edges_from(
                (v, vertex) for i, v in enumerate(resident) if bwd >> i & 1
            )
            acyclic = nx.is_directed_acyclic_graph(trial)
            settled = acyclic and bool(nx.descendants(trial, vertex) & evicted)
            assert ok == (acyclic and not settled), (window, stream, vertex)
            if not ok:
                continue

            assert m.commit(p, s) == (len(resident) == window)
            graph = trial
            resident.append(vertex)
            if len(resident) > window:
                evicted.add(resident.pop(0))

            assert len(m) == len(resident)
            reach = {v: nx.descendants(graph, v) | {v} for v in resident}
            for i, u in enumerate(resident):
                for j, v in enumerate(resident):
                    assert m.reaches(i, j) == (v in reach[u]), (window, stream, i, j)
                assert bool(m.taint >> i & 1) == bool(reach[u] & evicted), (
                    window, stream, i,
                )
