"""The two edge sources behind one manager (hypothesis).

``ConflictDetector`` answers from bloom signatures, ``ExactDetector``
from exact sets.  Bloom queries have no false negatives, so on one
commit stream the bloom masks contain the exact ones bit for bit.  On
a stream whose addresses share no signature bit the two are equal, so
managers built on them agree on every verdict, including ``certify``,
``record_external_commit`` and the overflow floor a ``reset`` leaves.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw import ConflictDetector, ExactDetector, ValidationManager, ValidationRequest
from repro.signatures import SignatureConfig

addresses = st.lists(st.integers(0, 63), max_size=4)

commit_streams = st.lists(
    st.tuples(addresses, addresses, addresses, addresses, st.integers(0, 12)),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize(
    "geometry", [{}, {"bits": 32, "partitions": 2, "seed": 3}], ids=["default", "32-bit"]
)
@given(window=st.integers(1, 10), stream=commit_streams)
@settings(max_examples=80, deadline=None)
def test_bloom_edges_contain_exact_edges(geometry, window, stream):
    bloom = ConflictDetector(SignatureConfig(**geometry), window)
    exact = ExactDetector(window)
    for index, (reads, writes, probe_reads, probe_writes, lag) in enumerate(stream):
        snapshot = max(0, index - lag)
        bloom_fwd, bloom_bwd = bloom.edges(probe_reads, probe_writes, snapshot)
        exact_fwd, exact_bwd = exact.edges(probe_reads, probe_writes, snapshot)
        assert exact_fwd & ~bloom_fwd == 0
        assert exact_bwd & ~bloom_bwd == 0
        assert bloom.record_commit(index, index, reads, writes) == exact.record_commit(
            index, index, reads, writes
        )
        assert bloom.oldest_commit_index == exact.oldest_commit_index
        assert bloom.resident == exact.resident


def _disjoint_pool(config, size):
    """The first *size* addresses whose query masks share no bit: a
    query then hits a signature only when its address is in the set."""
    pool, used, address = [], 0, 0
    while len(pool) < size:
        mask = config.mask(address)
        if not mask & used:
            pool.append(address)
            used |= mask
        address += 1
    return pool


POOL = _disjoint_pool(SignatureConfig(), 16)

slots = st.lists(st.integers(0, len(POOL) - 1), max_size=3)
operations = st.lists(
    st.tuples(
        st.sampled_from(["validate", "certify", "external", "reset"]),
        slots,
        slots,
        st.integers(0, 6),
    ),
    max_size=50,
)


@given(window=st.integers(1, 6), ops=operations)
@example(
    window=2,
    ops=[
        ("validate", [], [0], 0),
        ("certify", [0], [1], 1),  # a missed write: "stale"
        ("reset", [], [], 0),
        ("certify", [2], [3], 1),  # predates the reset: "window-overflow"
        ("validate", [2], [3], 1),
        ("external", [4], [5], 0),
        ("certify", [5], [6], 0),
    ],
)
@settings(max_examples=150, deadline=None)
def test_managers_agree_without_collisions(window, ops):
    bloom = ValidationManager(ConflictDetector(SignatureConfig(), window))
    exact = ValidationManager(ExactDetector(window))
    for label, (op, reads, writes, lag) in enumerate(ops):
        reads = tuple(POOL[i] for i in reads)
        writes = tuple(POOL[i] for i in writes)
        for manager in (bloom, exact):
            if op == "reset":
                manager.reset()
            elif op == "external":
                manager.record_external_commit(label, reads, writes)
        if op in ("validate", "certify"):
            snapshot = max(0, bloom.total_commits - lag)
            request = ValidationRequest(label, reads, writes, snapshot)
            assert getattr(bloom, op)(request) == getattr(exact, op)(request)
        for name, value in vars(bloom).items():
            if name.startswith("stats_") or name in ("total_commits", "reset_floor"):
                assert vars(exact)[name] == value, name
        assert bloom.matrix.rows == exact.matrix.rows
        assert bloom.matrix.taint == exact.matrix.taint
