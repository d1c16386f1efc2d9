"""Sliding-window ROCoCo over exact sets: overflow aborts, taint,
acyclicity (the manager built on an ``ExactDetector``)."""

import random

import pytest

from repro.core import Footprint
from repro.hw import ExactDetector, ValidationManager, ValidationRequest


def req(reads=(), writes=(), snapshot=0, label=None):
    return ValidationRequest(label, tuple(reads), tuple(writes), snapshot)


def exact(window):
    return ValidationManager(ExactDetector(window))


class TestBasics:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            exact(0)

    def test_read_only_fast_path(self):
        v = exact(4)
        assert v.validate(req(reads=[1, 2])).committed
        assert v.detector.resident == 0

    def test_commits_mirror_unbounded_when_under_capacity(self):
        v = exact(8)
        v.validate(req(writes=[10]))
        d = v.validate(req(reads=[10], writes=[20], snapshot=0))
        assert d.committed  # the TOCC-restriction case still commits

    def test_cycle_still_detected(self):
        v = exact(8)
        v.validate(req(reads=[5], writes=[10]))
        d = v.validate(req(reads=[10], writes=[5], snapshot=0))
        assert not d.committed
        assert v.stats_cycle_aborts == 1


class TestEviction:
    def test_resident_bounded_by_window(self):
        v = exact(4)
        for i in range(10):
            assert v.validate(req(writes=[1000 + i], snapshot=i)).committed
        assert v.detector.resident == 4
        assert v.total_commits == 10

    def test_stale_snapshot_overflows(self):
        v = exact(2)
        for i in range(5):
            v.validate(req(writes=[1000 + i], snapshot=i))
        # Oldest resident committed at index 3; snapshot 1 neglects
        # evicted updates.
        d = v.validate(req(reads=[7], writes=[8], snapshot=1))
        assert not d.committed
        assert d.reason == "window-overflow"

    def test_fresh_snapshot_fine_after_eviction(self):
        v = exact(2)
        for i in range(5):
            v.validate(req(writes=[1000 + i], snapshot=i))
        d = v.validate(req(reads=[7], writes=[8], snapshot=5))
        assert d.committed

    def test_reachability_renumbered_after_eviction(self):
        v = exact(2)
        # Three independent commits; after eviction slots renumber.
        v.validate(req(writes=[1], snapshot=0, label="a"))
        v.validate(req(writes=[2], snapshot=1, label="b"))
        v.validate(req(writes=[3], snapshot=2, label="c"))
        assert [e.label for e in v.detector.entries()] == ["b", "c"]
        assert v.matrix.reaches(0, 0) and v.matrix.reaches(1, 1)
        assert not v.matrix.reaches(0, 1) and not v.matrix.reaches(1, 0)

    def test_taint_blocks_reaching_settled_history(self):
        v = exact(2)
        # t0 commits; t1 serializes before t0 (forward edge).
        v.validate(req(writes=[10], snapshot=0, label="t0"))
        v.validate(req(reads=[10], writes=[20], snapshot=0, label="t1"))
        # Force two evictions: t0 then t1 leave the window.  When t0 is
        # evicted, t1 (which reaches t0) becomes tainted.
        v.validate(req(writes=[30], snapshot=2, label="t2"))
        assert [e.label for e in v.detector.entries()] == ["t1", "t2"]
        # A candidate that *reaches* t1 (forward edge: it missed t1's
        # update of 20) is conservatively aborted, because t1 reaches
        # settled history we can no longer inspect.
        d = v.validate(req(reads=[20], writes=[40], snapshot=1))
        assert not d.committed
        assert v.stats_taint_aborts == 1
        # Whereas merely *succeeding* t1 (observed read) is fine.
        d2 = v.validate(req(reads=[20], writes=[41], snapshot=3))
        assert d2.committed


class TestWindowedSafety:
    """Safety of the bounded validator, checked against ground truth:
    the dependency graph over *all* windowed commits (rebuilt exactly,
    with no window) must stay acyclic after every accepted commit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_windowed_commits_are_acyclic(self, seed):
        import networkx as nx

        rng = random.Random(seed)
        v = exact(8)
        committed = []  # (footprint, commit_index) in acceptance order
        graph = nx.DiGraph()
        for i in range(120):
            n_addr = rng.randint(1, 4)
            addrs = rng.sample(range(32), n_addr * 2)
            snapshot = max(0, v.total_commits - rng.randint(0, 6))
            candidate = Footprint.of(addrs[:n_addr], addrs[n_addr:], snapshot, label=i)
            decision = v.validate(req(addrs[:n_addr], addrs[n_addr:], snapshot, label=i))
            if not (decision.committed and candidate.write_set):
                continue
            me = len(committed)
            graph.add_node(me)
            for j, (prior, prior_index) in enumerate(committed):
                if candidate.read_set & prior.write_set:
                    if prior_index < candidate.snapshot:
                        graph.add_edge(j, me)
                    else:
                        graph.add_edge(me, j)
                if candidate.write_set & (prior.write_set | prior.read_set):
                    graph.add_edge(j, me)
            committed.append((candidate, decision.commit_index))
            assert nx.is_directed_acyclic_graph(graph), (seed, i)
