"""Detector + manager: signature-based edges and windowed decisions.

The key cross-check: on conflict patterns without hash collisions, the
hardware path must make the *same decisions* as the exact-set
manager built on an ExactDetector.
"""

import random

import pytest

from repro.hw import ConflictDetector, ExactDetector, ValidationManager, ValidationRequest
from repro.signatures import SignatureConfig


@pytest.fixture()
def config():
    return SignatureConfig(bits=512, partitions=4)


def req(reads=(), writes=(), snapshot=0, label=None):
    return ValidationRequest(label, tuple(reads), tuple(writes), snapshot)


class TestDetector:
    def test_empty_detector_no_edges(self, config):
        det = ConflictDetector(config, window=8)
        assert det.edges([1, 2], [3], snapshot=0) == (0, 0)

    def test_read_write_conflict_direction(self, config):
        det = ConflictDetector(config, window=8)
        det.record_commit("w", commit_index=0, read_addrs=[], write_addrs=[10])
        # Observed -> backward.
        fwd, bwd = det.edges([10], [99], snapshot=1)
        assert (fwd, bwd) == (0, 1)
        # Unobserved -> forward.
        fwd, bwd = det.edges([10], [99], snapshot=0)
        assert (fwd, bwd) == (1, 0)

    def test_write_conflicts_always_backward(self, config):
        det = ConflictDetector(config, window=8)
        det.record_commit("t", commit_index=0, read_addrs=[5], write_addrs=[10])
        fwd, bwd = det.edges([], [10], snapshot=0)  # WAW
        assert (fwd, bwd) == (0, 1)
        fwd, bwd = det.edges([], [5], snapshot=0)  # WAR vs their read
        assert (fwd, bwd) == (0, 1)

    def test_no_conflict_no_edges(self, config):
        det = ConflictDetector(config, window=8)
        det.record_commit("t", commit_index=0, read_addrs=[5], write_addrs=[10])
        assert det.edges([77], [88], snapshot=1) == (0, 0)

    def test_eviction_shifts_slots(self, config):
        det = ConflictDetector(config, window=2)
        det.record_commit("a", 0, [], [1])
        det.record_commit("b", 1, [], [2])
        evicted = det.record_commit("c", 2, [], [3])
        assert evicted
        assert [e.label for e in det.entries()] == ["b", "c"]
        assert det.oldest_commit_index == 1
        # Conflict with "c" now maps to slot 1.
        fwd, bwd = det.edges([], [3], snapshot=3)
        assert bwd == 0b10

    def test_window_must_be_positive(self, config):
        with pytest.raises(ValueError):
            ConflictDetector(config, window=0)


class TestManager:
    def test_read_only_commits_without_bookkeeping(self, config):
        mgr = ValidationManager(ConflictDetector(config, 8))
        verdict = mgr.validate(req(reads=[1, 2]))
        assert verdict.committed
        assert mgr.total_commits == 0

    def test_tocc_restriction_removed(self, config):
        mgr = ValidationManager(ConflictDetector(config, 8))
        assert mgr.validate(req(writes=[10], snapshot=0, label="t0")).committed
        # Stale read of t0's update, no cycle: commits under ROCoCo.
        verdict = mgr.validate(req(reads=[10], writes=[20], snapshot=0, label="t1"))
        assert verdict.committed

    def test_two_cycle_aborts(self, config):
        mgr = ValidationManager(ConflictDetector(config, 8))
        mgr.validate(req(reads=[5], writes=[10], snapshot=0))
        verdict = mgr.validate(req(reads=[10], writes=[5], snapshot=0))
        assert not verdict.committed
        assert verdict.reason == "cycle"
        assert mgr.stats_cycle_aborts == 1

    def test_window_overflow_abort(self, config):
        mgr = ValidationManager(ConflictDetector(config, 2))
        for i in range(5):
            assert mgr.validate(req(writes=[100 + i], snapshot=i)).committed
        verdict = mgr.validate(req(reads=[7], writes=[8], snapshot=1))
        assert not verdict.committed
        assert verdict.reason == "window-overflow"

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_exact_validator_without_collisions(self, config, seed):
        """With few, well-separated addresses the signatures are exact,
        so hardware decisions == exact-set decisions."""
        rng = random.Random(seed)
        mgr = ValidationManager(ConflictDetector(config, 16))
        exact = ValidationManager(ExactDetector(16))
        snapshot_lag = 0
        for i in range(200):
            addrs = rng.sample(range(64), 4)
            reads, writes = addrs[:2], addrs[2:]
            snapshot = max(0, mgr.total_commits - rng.randint(0, 4))
            hw = mgr.validate(req(reads, writes, snapshot, label=i))
            sw = exact.validate(req(reads, writes, snapshot, label=i))
            assert hw.committed == sw.committed, (seed, i)
