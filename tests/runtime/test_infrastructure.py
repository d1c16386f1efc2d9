"""Unit tests for runtime infrastructure: memory, stats, api, barriers,
parking — the pieces integration tests exercise only incidentally."""

import pytest

from repro.runtime import (
    AwaitBarrier,
    CELLS_PER_CACHELINE,
    CoarseLockBackend,
    Memory,
    RunStats,
    SequentialBackend,
    SimBarrier,
    Simulator,
    Transaction,
    Work,
    geomean,
    speedup,
)
from repro.runtime.api import Alloc, Read, TransactionAborted, Work as WorkOp, Write


class TestMemory:
    def test_alloc_bumps(self):
        memory = Memory()
        a = memory.alloc(4)
        b = memory.alloc(2)
        assert b == a + 4
        assert memory.allocated == 6

    def test_alloc_alignment(self):
        memory = Memory()
        memory.alloc(3)
        aligned = memory.alloc(1, align_line=True)
        assert aligned % CELLS_PER_CACHELINE == 0

    def test_zeroed_reads(self):
        memory = Memory()
        base = memory.alloc(2)
        assert memory.load(base) == 0

    def test_bounds_checked(self):
        memory = Memory()
        memory.alloc(2)
        with pytest.raises(IndexError):
            memory.load(2)
        with pytest.raises(IndexError):
            memory.store(-1, 5)

    def test_zero_alloc_rejected(self):
        with pytest.raises(ValueError):
            Memory().alloc(0)

    def test_store_load_many(self):
        memory = Memory()
        base = memory.alloc(3)
        memory.store_many(base, [7, 8, 9])
        assert memory.load_many(base, 3) == [7, 8, 9]

    def test_cacheline(self):
        assert Memory.cacheline(0) == 0
        assert Memory.cacheline(7) == 0
        assert Memory.cacheline(8) == 1


class TestStats:
    def test_abort_accounting(self):
        stats = RunStats(backend="x", workload="w", n_threads=2)
        stats.commits = 8
        stats.record_abort("cpu-a")
        stats.record_abort("fpga-cycle")
        assert stats.aborts == 2
        assert stats.fpga_aborts == 1
        assert stats.attempts == 10
        assert stats.abort_rate == pytest.approx(0.2)
        assert stats.fpga_abort_rate == pytest.approx(0.1)

    def test_empty_stats_rates(self):
        stats = RunStats()
        assert stats.abort_rate == 0.0
        assert stats.mean_validation_us == 0.0

    def test_mean_validation(self):
        stats = RunStats()
        stats.validation_ns = 3000.0
        stats.validations = 2
        assert stats.mean_validation_us == pytest.approx(1.5)

    def test_summary_mentions_key_facts(self):
        stats = RunStats(backend="B", workload="W", n_threads=4)
        stats.commits = 1
        stats.record_abort("cause")
        text = stats.summary()
        assert "W/B@4t" in text and "cause=1" in text

    def test_speedup(self):
        a = RunStats()
        a.makespan_ns = 100.0
        b = RunStats()
        b.makespan_ns = 50.0
        assert speedup(a, b) == pytest.approx(2.0)
        b.makespan_ns = 0.0
        with pytest.raises(ValueError):
            speedup(a, b)

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestApiValidation:
    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            WorkOp(-1)

    def test_zero_alloc_op_rejected(self):
        with pytest.raises(ValueError):
            Alloc(0)

    def test_abort_carries_cause(self):
        exc = TransactionAborted("some-cause")
        assert exc.cause == "some-cause"

    def test_barrier_needs_parties(self):
        with pytest.raises(ValueError):
            SimBarrier(0)


class TestBarrier:
    def test_all_threads_resume_at_latest_arrival(self):
        barrier = SimBarrier(3, cost_ns=100.0)
        arrivals = []

        def program(tid):
            yield Work(1000.0 * (tid + 1))  # staggered arrivals
            yield AwaitBarrier(barrier)
            arrivals.append(tid)
            yield Work(1.0)

        from repro.runtime import TinySTMBackend

        sim = Simulator(TinySTMBackend(), 3)
        stats = sim.run([program] * 3)
        assert sorted(arrivals) == [0, 1, 2]
        # Everyone waited for the slowest (3000 ns) + barrier cost.
        assert stats.makespan_ns >= 3000.0 + 100.0

    def test_barrier_reusable(self):
        barrier = SimBarrier(2)
        rounds = []

        def program(tid):
            for r in range(3):
                yield AwaitBarrier(barrier)
                rounds.append((tid, r))

        from repro.runtime import TinySTMBackend

        Simulator(TinySTMBackend(), 2).run([program] * 2)
        assert len(rounds) == 6

    def test_unbalanced_barrier_deadlocks(self):
        barrier = SimBarrier(2)

        def waiting(tid):
            yield AwaitBarrier(barrier)

        def not_waiting(tid):
            yield Work(1.0)

        from repro.runtime import TinySTMBackend

        sim = Simulator(TinySTMBackend(), 2)
        with pytest.raises(RuntimeError, match="deadlock"):
            sim.run([waiting, not_waiting])


class TestParking:
    def test_lock_waiters_eventually_run(self):
        order = []

        def body(tid):
            def gen():
                yield Work(500.0)
                order.append(tid)

            return gen

        def program(tid):
            yield Transaction(body(tid))

        sim = Simulator(CoarseLockBackend(), 4)
        stats = sim.run([program] * 4)
        assert sorted(order) == [0, 1, 2, 3]
        assert stats.commits == 4

    def test_wake_requires_parked(self):
        sim = Simulator(CoarseLockBackend(), 1)

        def program(tid):
            yield Work(1.0)

        sim.run([program])
        with pytest.raises(RuntimeError):
            sim.wake_at(0, 10.0)
