"""Irrevocability in ROCoCoTM (§4.2's forward-progress mechanism)."""

import pytest

from repro.runtime import (
    Memory,
    ParkThread,
    Read,
    RococoTMBackend,
    Simulator,
    Transaction,
    TransactionAborted,
    Work,
    Write,
)
from repro.runtime.coarse_lock import RELEASE_NS
from repro.runtime.driver import ManualDriver


def manual_backend(**kwargs):
    backend = RococoTMBackend(**kwargs)
    sim = ManualDriver(n_threads=4)
    backend.attach(sim)
    return backend, sim


def starvation_workload(window, irrevocable_after, long_work=20_000, seed=0):
    """One long transaction raced by streams of small committers.

    With a tiny FPGA window, the long transaction's snapshot falls off
    the back before it can validate: every attempt ends in a
    window-overflow abort unless irrevocability rescues it.
    """
    memory = Memory()
    base = memory.alloc(80)
    backend = RococoTMBackend(window=window, irrevocable_after=irrevocable_after)

    def long_body():
        a = yield Read(base)
        yield Work(long_work)  # long-running: many commits pass by
        yield Write(base, a + 1)
        return True

    def long_program(tid):
        yield Transaction(long_body, label="long")

    def make_short_body(addr):
        def body():
            v = yield Read(addr)
            yield Write(addr, v + 1)

        return body

    def short_program(tid):
        for i in range(120):
            yield Transaction(make_short_body(base + 1 + (tid * 16 + i % 16)))
            yield Work(40)

    sim = Simulator(backend, 4, memory=memory, seed=seed)
    stats = sim.run([long_program, short_program, short_program, short_program])
    return memory, base, backend, stats


class TestStarvation:
    def test_long_txn_starves_without_irrevocability(self):
        _, _, backend, stats = starvation_workload(window=4, irrevocable_after=None)
        # It completes eventually here only because the short streams
        # are finite; the long transaction pays many overflow aborts.
        assert stats.aborts_by_cause.get("fpga-window-overflow", 0) >= 3

    def test_irrevocability_bounds_retries(self):
        memory, base, backend, stats = starvation_workload(
            window=4, irrevocable_after=3
        )
        assert backend.stats_irrevocable_commits == 1
        assert stats.aborts_by_cause.get("fpga-window-overflow", 0) <= 3
        assert memory.load(base) == 1  # the long transaction's update landed

    def test_all_commits_land_exactly_once(self):
        memory, base, backend, stats = starvation_workload(
            window=4, irrevocable_after=3
        )
        assert stats.commits == 1 + 3 * 120
        total = sum(memory.load(base + 1 + i) for i in range(64))
        assert total == 3 * 120

    def test_disabled_by_default(self):
        backend = RococoTMBackend()
        assert backend.hatch.after is None


class TestFence:
    def test_optimistic_commits_fence_on_irrevocable_lock(self):
        _, _, backend, stats = starvation_workload(window=4, irrevocable_after=3)
        # While the long transaction ran irrevocably, short committers
        # either parked at begin or aborted at the commit fence; both
        # preserve the counters (asserted above) - here we just check
        # the fence cause is accounted when it fires.
        fence = stats.aborts_by_cause.get("cpu-irrevocable-fence", 0)
        assert fence >= 0  # presence depends on interleaving

    def test_deterministic(self):
        a = starvation_workload(window=4, irrevocable_after=3, seed=5)[3]
        b = starvation_workload(window=4, irrevocable_after=3, seed=5)[3]
        assert a.makespan_ns == b.makespan_ns
        assert a.aborts == b.aborts


class TestEscapeHatchMechanics:
    """Manual driving of the irrevocable protocol, step by step."""

    def test_begin_parks_under_held_lock_and_wakes_in_order(self):
        backend, sim = manual_backend()
        backend.hatch.forced.add(0)
        backend.begin(0, 0.0)  # takes the global lock
        assert backend.hatch.lock.held

        # Optimistic threads cannot even begin: they park as watchers.
        with pytest.raises(ParkThread):
            backend.begin(1, 5.0)
        with pytest.raises(ParkThread):
            backend.begin(2, 6.0)
        assert backend.hatch.watchers == [1, 2]
        assert sim.wakes == []

        addr = sim.memory.alloc(1)
        backend.write(0, addr, 7, 50.0)
        ready = backend.commit(0, 100.0)
        # Both watchers wake at the release instant, in park order.
        assert sim.wakes == [(1, ready), (2, ready)]
        assert backend.hatch.watchers == []
        assert not backend.hatch.lock.held
        assert sim.memory.load(addr) == 7

    def test_optimistic_writer_aborts_on_the_fence(self):
        backend, sim = manual_backend()
        addr = sim.memory.alloc(2)
        # Thread 1 is already mid-transaction when thread 0 goes
        # irrevocable: at commit it hits the fence, not the FPGA.
        backend.begin(1, 0.0)
        backend.write(1, addr, 1, 10.0)
        backend.hatch.forced.add(0)
        backend.begin(0, 20.0)
        with pytest.raises(TransactionAborted) as aborted:
            backend.commit(1, 30.0)
        assert aborted.value.cause == "cpu-irrevocable-fence"
        backend.rollback(1, 30.0, aborted.value.cause)
        assert 1 not in backend._txns  # no stale state left behind

    def test_read_only_commit_passes_the_fence(self):
        backend, sim = manual_backend()
        addr = sim.memory.alloc(2)
        sim.memory.store(addr, 41)
        backend.begin(1, 0.0)
        value, at = backend.read(1, addr, 10.0)
        assert value == 41
        backend.hatch.forced.add(0)
        backend.begin(0, 20.0)
        # Read-only commits never invalidate the irrevocable reader.
        backend.commit(1, at)
        assert 1 not in backend._txns

    def test_read_only_irrevocable_commit_pays_no_writeback(self):
        backend, sim = manual_backend()
        addr = sim.memory.alloc(1)
        backend.hatch.forced.add(0)
        backend.begin(0, 0.0)
        backend.read(0, addr, 100.0)
        ready = backend.commit(0, 1_000.0)
        # No written words: only the lock release is charged.
        assert ready == 1_000.0 + RELEASE_NS
        assert backend.stats_irrevocable_commits == 1
        # No write signature entered the queue, no window slot used.
        assert backend.global_ts == 0
        assert backend.engine.manager.total_commits == 0

    def test_writing_irrevocable_commit_stays_window_aligned(self):
        backend, sim = manual_backend()
        addr = sim.memory.alloc(1)
        backend.hatch.forced.add(0)
        backend.begin(0, 0.0)
        backend.write(0, addr, 9, 10.0)
        backend.commit(0, 100.0)
        assert backend.stats_irrevocable_commits == 1
        assert backend.global_ts == 1
        assert backend.engine.manager.total_commits == 1
        assert len(backend.commit_queue) == 1

    def test_accounting_and_no_stale_state_after_a_run(self):
        memory, base, backend, stats = starvation_workload(
            window=4, irrevocable_after=3
        )
        # Exactly the rescued long transaction went irrevocable, and
        # the engine-side window stayed aligned with GlobalTS.
        assert backend.stats_irrevocable_commits == 1
        assert backend.global_ts == backend.engine.manager.total_commits
        assert backend._txns == {}  # every state popped on commit/rollback
        assert backend.hatch.forced == set()
        assert not backend.hatch.lock.held
