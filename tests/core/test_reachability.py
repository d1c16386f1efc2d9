"""The unbounded reachability matrix against ground truth (networkx)."""

import networkx as nx
import pytest

from repro.core import WindowMatrix


def mask(indices):
    return sum(1 << i for i in indices)


def build(edges_per_txn):
    """Commit a sequence of txns; edges_per_txn[i] = (forward, backward)
    as index lists against previously-committed txns."""
    matrix = WindowMatrix(window=None)
    for label, (fwd, bwd) in enumerate(edges_per_txn):
        ok, p, s = matrix.probe(mask(fwd), mask(bwd))
        assert ok, f"unexpected cycle at txn {label}"
        matrix.commit(p, s)
    return matrix


class TestBasics:
    def test_first_commit_reaches_itself(self):
        m = WindowMatrix(window=None)
        ok, p, s = m.probe(0, 0)
        assert ok
        m.commit(p, s)
        assert m.reaches(0, 0)
        assert len(m) == 1

    def test_direct_two_cycle_detected(self):
        m = build([((), ())])
        ok, p, s = m.probe(0b1, 0b1)  # both forward and backward to txn 0
        assert not ok
        assert p & s != 0

    def test_chain_reachability(self):
        # a <- b <- c (each new txn succeeds the previous one).
        c = build([((), ()), ((), (0,)), ((), (1,))])
        assert c.reaches(0, 1)
        assert c.reaches(0, 2)
        assert c.reaches(1, 2)
        assert not c.reaches(2, 0)

    def test_forward_edge_reverses_commit_order(self):
        # New txn t1 serializes *before* committed t0.
        c = build([((), ()), ((0,), ())])
        assert c.reaches(1, 0)
        assert not c.reaches(0, 1)

    def test_transitive_cycle_detected(self):
        # t0; t1 before t0 (forward); candidate after t0 and before t1:
        # t0 -> t, t -> t1, t1 -> t0 closes the cycle.
        c = build([((), ()), ((0,), ())])
        ok, _, _ = c.probe(forward=mask([1]), backward=mask([0]))
        assert not ok

    def test_indirect_paths_recorded_on_commit(self):
        # t0; t1 after t0; t2 before t0 => t2 reaches t1 via t0.
        c = build([((), ()), ((), (0,)), ((0,), ())])
        assert c.reaches(2, 1)

    def test_unbounded_never_evicts(self):
        # A chain far longer than the FPGA's 64 slots keeps every slot.
        m = WindowMatrix(window=None)
        for k in range(100):
            ok, p, s = m.probe(0, 1 << (k - 1) if k else 0)
            assert ok
            assert not m.commit(p, s)
        assert len(m) == 100
        assert m.reaches(0, 99)
        assert m.taint == 0


class TestAgainstNetworkx:
    def _random_dag_trial(self, seed):
        import random

        rng = random.Random(seed)
        matrix = WindowMatrix(window=None)
        graph = nx.DiGraph()
        committed = 0
        for label in range(30):
            k = committed
            fwd = [i for i in range(k) if rng.random() < 0.15]
            bwd = [i for i in range(k) if rng.random() < 0.15 and i not in fwd]
            ok, p, s = matrix.probe(mask(fwd), mask(bwd))

            # Ground truth: would adding these edges create a cycle?
            trial = graph.copy()
            trial.add_node(committed)
            trial.add_edges_from((committed, i) for i in fwd)
            trial.add_edges_from((i, committed) for i in bwd)
            truth_ok = nx.is_directed_acyclic_graph(trial)
            assert ok == truth_ok, (seed, label, fwd, bwd)

            if ok:
                assert not matrix.commit(p, s)
                graph = trial
                committed += 1

        # Full reachability check.
        tc = nx.transitive_closure(graph, reflexive=True)
        for i in range(committed):
            for j in range(committed):
                assert matrix.reaches(i, j) == tc.has_edge(i, j), (seed, i, j)
        assert matrix.taint == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_closure(self, seed):
        self._random_dag_trial(seed)
