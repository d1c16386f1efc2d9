"""Property-based tests for the ROCoCo core (hypothesis)."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Footprint,
    RococoValidator,
    WindowMatrix,
    tocc_would_abort,
)
from repro.hw import ExactDetector, ValidationManager, ValidationRequest

# ----------------------------------------------------------------------
# Edge streams: each item is (forward_bits, backward_bits) drawn against
# however many transactions have committed so far.
# ----------------------------------------------------------------------

edge_streams = st.lists(
    st.tuples(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1)),
    max_size=25,
)


class TestClosureProperties:
    @given(edge_streams)
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx_everywhere(self, stream):
        matrix = WindowMatrix(window=None)
        graph = nx.DiGraph()
        for raw_fwd, raw_bwd in stream:
            k = len(matrix)
            mask = (1 << k) - 1
            fwd, bwd = raw_fwd & mask, raw_bwd & mask
            ok, p, s = matrix.probe(fwd, bwd)

            trial = graph.copy()
            trial.add_node(k)
            trial.add_edges_from((k, i) for i in range(k) if fwd >> i & 1)
            trial.add_edges_from((i, k) for i in range(k) if bwd >> i & 1)
            assert ok == nx.is_directed_acyclic_graph(trial)
            if ok:
                matrix.commit(p, s)
                graph = trial

        truth = nx.transitive_closure(graph, reflexive=True)
        for i in range(len(matrix)):
            for j in range(len(matrix)):
                assert matrix.reaches(i, j) == truth.has_edge(i, j)

    @given(edge_streams)
    @settings(max_examples=40, deadline=None)
    def test_committed_set_stays_acyclic(self, stream):
        matrix = WindowMatrix(window=None)
        for raw_fwd, raw_bwd in stream:
            mask = (1 << len(matrix)) - 1
            ok, p, s = matrix.probe(raw_fwd & mask, raw_bwd & mask)
            if ok:
                matrix.commit(p, s)
        # Off-diagonal reachability must be asymmetric in a DAG closure.
        for i in range(len(matrix)):
            for j in range(i + 1, len(matrix)):
                assert not (matrix.reaches(i, j) and matrix.reaches(j, i))


# ----------------------------------------------------------------------
# Footprint streams for the validators.
# ----------------------------------------------------------------------

footprints = st.lists(
    st.tuples(
        st.sets(st.integers(0, 15), max_size=3),   # reads
        st.sets(st.integers(0, 15), max_size=3),   # writes
        st.integers(0, 3),                          # snapshot lag
    ),
    max_size=30,
)


def _request(fp):
    return ValidationRequest(fp.label, tuple(fp.read_set), tuple(fp.write_set), fp.snapshot)


class TestValidatorProperties:
    @given(footprints)
    @settings(max_examples=60, deadline=None)
    def test_rococo_never_aborts_where_tocc_commits(self, stream):
        validator = RococoValidator()
        for i, (reads, writes, lag) in enumerate(stream):
            snapshot = max(0, validator.committed_count - lag)
            fp = Footprint.of(reads, writes, snapshot, label=i)
            tocc_aborts = tocc_would_abort(fp, validator)
            decision = validator.submit(fp)
            if not decision.committed:
                assert tocc_aborts  # ROCoCo aborts are a subset

    @given(footprints)
    @settings(max_examples=60, deadline=None)
    def test_committed_dependencies_acyclic(self, stream):
        validator = RococoValidator()
        committed = []  # (footprint, commit_index)
        graph = nx.DiGraph()
        for i, (reads, writes, lag) in enumerate(stream):
            snapshot = max(0, validator.committed_count - lag)
            fp = Footprint.of(reads, writes, snapshot, label=i)
            decision = validator.submit(fp)
            if not (decision.committed and fp.write_set):
                continue
            me = len(committed)
            graph.add_node(me)
            for j, (prior, prior_index) in enumerate(committed):
                if fp.read_set & prior.write_set:
                    if prior_index < fp.snapshot:
                        graph.add_edge(j, me)
                    else:
                        graph.add_edge(me, j)
                if fp.write_set & (prior.write_set | prior.read_set):
                    graph.add_edge(j, me)
            committed.append((fp, decision.commit_index))
            assert nx.is_directed_acyclic_graph(graph)

    @given(footprints, st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_window_commits_subset_of_labels_stay_acyclic(self, stream, window):
        validator = ValidationManager(ExactDetector(window))
        committed = []
        graph = nx.DiGraph()
        for i, (reads, writes, lag) in enumerate(stream):
            snapshot = max(0, validator.total_commits - lag)
            fp = Footprint.of(reads, writes, snapshot, label=i)
            decision = validator.validate(_request(fp))
            if not (decision.committed and fp.write_set):
                continue
            me = len(committed)
            graph.add_node(me)
            for j, (prior, prior_index) in enumerate(committed):
                if fp.read_set & prior.write_set:
                    if prior_index < fp.snapshot:
                        graph.add_edge(j, me)
                    else:
                        graph.add_edge(me, j)
                if fp.write_set & (prior.write_set | prior.read_set):
                    graph.add_edge(j, me)
            committed.append((fp, decision.commit_index))
            assert nx.is_directed_acyclic_graph(graph)

    @given(footprints)
    @settings(max_examples=40, deadline=None)
    def test_read_only_always_commits(self, stream):
        validator = RococoValidator()
        for i, (reads, _writes, lag) in enumerate(stream):
            snapshot = max(0, validator.committed_count - lag)
            fp = Footprint.of(reads, (), snapshot, label=i)
            assert validator.submit(fp).committed

    @given(footprints)
    @settings(max_examples=40, deadline=None)
    def test_big_window_equals_unbounded(self, stream):
        unbounded = RococoValidator()
        windowed = ValidationManager(ExactDetector(1024))
        for i, (reads, writes, lag) in enumerate(stream):
            snapshot = max(0, unbounded.committed_count - lag)
            fp = Footprint.of(reads, writes, snapshot, label=i)
            a = unbounded.submit(fp).committed
            b = windowed.validate(_request(fp)).committed
            assert a == b
