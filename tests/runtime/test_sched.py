"""The scheduling kernel: unit behavior, run limits and barrier reuse.

The kernel (:mod:`repro.runtime.sched`) orders threads by the
``(clock, tid)`` key, so a run is a pure function of its programs and
seed.  :func:`run_grid` is the small park/wake-heavy grid whose
per-(backend, seed) digests tests/golden/golden.json pins.  Those
digests were recorded under both the retired linear-scan scheduler and
the kernel, byte-equal, so :class:`TestScheduleIdentity` holds the
kernel to the scan's schedule one (backend, seed) at a time; the golden
test (tests/golden/test_golden.py) also checks the whole file.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.registry import EVENT_SCHEMAS
from repro.runtime import (
    AwaitBarrier,
    CoarseLockBackend,
    Memory,
    Read,
    RococoTMBackend,
    SchedulerKernel,
    SequentialBackend,
    SimBarrier,
    Simulator,
    SnapshotIsolationBackend,
    TinySTMBackend,
    TinySTMEtlBackend,
    Transaction,
    TsxBackend,
    Work,
    Write,
)

from .conftest import make_counter_program, make_transfer_program


class TestKernelUnit:
    def test_picks_in_clock_order(self):
        kernel = SchedulerKernel(3)
        kernel.add(0, 30.0)
        kernel.add(1, 10.0)
        kernel.add(2, 20.0)
        assert kernel.pick() == 1
        assert kernel.pick() == 2
        assert kernel.pick() == 0
        assert kernel.pick() == -1

    def test_ties_break_by_tid(self):
        kernel = SchedulerKernel(3)
        kernel.add(2, 5.0)
        kernel.add(0, 5.0)
        kernel.add(1, 5.0)
        assert [kernel.pick() for _ in range(3)] == [0, 1, 2]

    def test_reschedule_reorders(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.add(1, 1.0)
        assert kernel.pick() == 0
        kernel.reschedule(0, 100.0)  # 0 ran and is now far ahead
        assert kernel.pick() == 1
        kernel.reschedule(1, 50.0)
        assert kernel.pick() == 1

    def test_parked_thread_never_surfaces(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.add(1, 1.0)
        assert kernel.pick() == 0
        kernel.park(0)
        assert kernel.pick() == 1
        kernel.reschedule(1, 2.0)
        assert kernel.pick() == 1  # 0 stays invisible while parked
        kernel.reschedule(1, 3.0)
        kernel.wake(0, 0.5)
        assert kernel.pick() == 0  # back, at its wake-time position
        assert kernel.n_parked == 0

    def test_park_of_scheduled_thread_is_lazy(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.add(1, 1.0)
        kernel.park(0)  # entry still physically in the heap
        assert kernel.pick() == 1
        kernel.retire(1)
        assert kernel.pick() == -1
        assert kernel.stale_pops == 1  # 0's dead entry was skipped

    def test_retire_decrements_live(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.add(1, 0.0)
        assert kernel.n_live == 2
        kernel.pick()
        kernel.retire(0)
        assert kernel.n_live == 1
        kernel.pick()
        kernel.retire(1)
        assert kernel.n_live == 0

    def test_deadlock_shape_all_parked(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.add(1, 0.0)
        kernel.pick()
        kernel.park(0)
        kernel.pick()
        kernel.park(1)
        assert kernel.pick() == -1
        assert kernel.n_live == 2  # live but nothing runnable: deadlock
        assert kernel.n_parked == 2

    def test_double_add_rejected(self):
        kernel = SchedulerKernel(1)
        kernel.add(0, 0.0)
        with pytest.raises(RuntimeError):
            kernel.add(0, 1.0)

    def test_counters_and_ratio(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.add(1, 1.0)
        kernel.park(1)  # goes stale in place
        kernel.pick()
        kernel.reschedule(0, 2.0)
        kernel.pick()  # skips 1's stale entry
        snap = kernel.snapshot()
        assert snap["picks"] == 2
        assert snap["pushes"] == 3
        assert snap["stale_pops"] == 1
        assert snap["lazy_invalidation_ratio"] == pytest.approx(1 / 3)
        assert snap["heap_high_water"] == 2

    def test_wake_coalescing_counted(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.pick()
        kernel.park(0)
        kernel.wake(0, 5.0, coalesced=True)
        kernel.pick()
        kernel.park(0)
        kernel.wake(0, 9.0)
        assert kernel.wakes == 2
        assert kernel.wakes_coalesced == 1

    def test_snapshot_matches_declared_sched_schema(self):
        # The snapshot IS the "sched" event payload; the registry's
        # exact-key emit assert makes any drift a hard failure.
        kernel = SchedulerKernel(1)
        assert frozenset(kernel.snapshot()) == EVENT_SCHEMAS["sched"].payload

    def test_needs_a_thread(self):
        with pytest.raises(ValueError):
            SchedulerKernel(0)

    def test_advance_runs_ahead_without_the_heap(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.add(1, 10.0)
        assert kernel.pick() == 0
        assert kernel.advance(0, 5.0) == 0  # still the minimum
        assert kernel.advance(0, 10.0) == 0  # tie: lower tid wins
        assert kernel.advance(0, 11.0) == 1
        snap = kernel.snapshot()
        assert (snap["picks"], snap["pushes"], snap["heap_high_water"]) == (4, 5, 2)


# ----------------------------------------------------------------------
# advance == reschedule + pick
# ----------------------------------------------------------------------
#: one simulated step of the current thread: its outcome, how far its
#: clock moves (small, so ties are common), an optional wake of a
#: parked thread (by index, -1: none) at an offset from the current
#: thread's clock, as a lock release or barrier would do mid-step, and
#: an optional park of a thread still in the heap (by index, -1: none),
#: which leaves a stale entry behind.
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("advance", "advance", "advance", "park", "retire")),
        st.integers(0, 3),
        st.integers(-1, 5),
        st.integers(-2, 3),
        st.integers(-3, 5),
    ),
    max_size=80,
)


def _drive_kernel(fused, n_threads, start, steps):
    """Run *steps* against a fresh kernel, using ``advance`` (*fused*)
    or ``reschedule`` + ``pick`` after a step that stays runnable.
    Returns the ``(tid, clock)`` visit sequence and the final
    counters; asserts every pick against a brute-force minimum."""
    kernel = SchedulerKernel(n_threads)
    clocks = [float(c) for c in start[:n_threads]]
    state = ["runnable"] * n_threads
    for tid in range(n_threads):
        kernel.add(tid, clocks[tid])
    parked = []
    visits = []

    def expect(tid):
        runnable = [(clocks[t], t) for t in range(n_threads) if state[t] == "runnable"]
        assert tid == (min(runnable)[1] if runnable else -1)
        if tid >= 0:
            state[tid] = "current"
        return tid

    tid = expect(kernel.pick())
    for outcome, dt, wake, wake_dt, evict in steps:
        if tid < 0:
            if not parked:
                break
            # Nothing runnable: wake one from outside (kernel-level only;
            # the simulator would report a deadlock here).
            other = parked.pop(0)
            state[other] = "runnable"
            kernel.wake(other, clocks[other])
            tid = expect(kernel.pick())
            continue
        visits.append((tid, clocks[tid]))
        if wake >= 0 and parked:
            other = parked.pop(wake % len(parked))
            at = clocks[tid] + wake_dt
            coalesced = at <= clocks[other]
            clocks[other] = max(clocks[other], at)
            state[other] = "runnable"
            kernel.wake(other, clocks[other], coalesced)
        waiting = [t for t in range(n_threads) if state[t] == "runnable"]
        if evict >= 0 and waiting:
            other = waiting[evict % len(waiting)]
            state[other] = "parked"
            parked.append(other)
            kernel.park(other)
        clocks[tid] += dt
        if outcome == "advance":
            state[tid] = "runnable"
            if fused:
                tid = expect(kernel.advance(tid, clocks[tid]))
            else:
                kernel.reschedule(tid, clocks[tid])
                tid = expect(kernel.pick())
            continue
        if outcome == "park":
            state[tid] = "parked"
            parked.append(tid)
            kernel.park(tid)
        else:
            state[tid] = "retired"
            kernel.retire(tid)
        tid = expect(kernel.pick())
    return visits, kernel.snapshot(), list(kernel._runnable)


class TestAdvanceProperty:
    @given(
        n_threads=st.integers(1, 5),
        start=st.lists(st.integers(0, 3), min_size=5, max_size=5),
        steps=_STEPS,
    )
    @settings(max_examples=300, deadline=None)
    def test_advance_matches_reschedule_then_pick(self, n_threads, start, steps):
        fused = _drive_kernel(True, n_threads, start, steps)
        assert fused == _drive_kernel(False, n_threads, start, steps)


# ----------------------------------------------------------------------
# The scheduler grid pinned by the golden digests
# ----------------------------------------------------------------------
CONTENDED_BACKENDS = [
    CoarseLockBackend,
    TinySTMBackend,
    TinySTMEtlBackend,
    TsxBackend,
    SnapshotIsolationBackend,
    RococoTMBackend,
]

#: every backend the golden digests cover; the sequential baseline runs
#: each program on one thread.
GRID_BACKENDS = CONTENDED_BACKENDS + [SequentialBackend]

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "golden.json"

#: The scheduler the run-limit and barrier tests run on.  The heap
#: kernel is the only one; the linear scan they once also ran on is
#: retired.
SCHEDULERS = ["kernel"]


def barrier_phase_program(memory, n_threads):
    """Transactions on both sides of a reused barrier (park/wake mix)."""
    base = memory.alloc(n_threads * 2, align_line=True)
    barrier = SimBarrier(parties=n_threads)

    def make_body(addr):
        def body():
            value = yield Read(addr)
            yield Work(15)
            yield Write(addr, value + 1)

        return body

    def program(tid):
        yield Transaction(make_body(base + tid), label="pre")
        yield AwaitBarrier(barrier)
        yield Work(10 * (tid + 1))
        yield AwaitBarrier(barrier)
        yield Transaction(make_body(base + n_threads + tid), label="post")

    return program


def run_grid(backend_factory, seed):
    """(stats, final memory) of three small programs on one backend."""
    results = []
    for n_threads, workload in (
        (4, "counter"),
        (3, "transfer"),
        (4, "barrier"),
    ):
        if backend_factory is SequentialBackend:
            n_threads = 1
        memory = Memory()
        if workload == "counter":
            counter = memory.alloc(1)
            program = make_counter_program(counter, increments=12)
        elif workload == "transfer":
            base = memory.alloc(16)
            program = make_transfer_program(base, 16, transfers=15, seed_shift=seed)
        else:
            program = barrier_phase_program(memory, n_threads)
        sim = Simulator(
            backend_factory(),
            n_threads,
            memory=memory,
            seed=seed,
            workload_name=workload,
        )
        stats = sim.run([program] * n_threads)
        results.append((stats.to_dict(), sorted(memory._cells.items())))
    return results


def grid_digest(backend_factory, seed) -> str:
    """sha256 of :func:`run_grid` as sorted-key JSON."""
    blob = json.dumps(run_grid(backend_factory, seed), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def golden_digest(backend_factory, seed) -> str:
    """The committed digest for one (backend, seed) of the grid."""
    digests = json.loads(GOLDEN.read_text())["sched_digests"]
    return digests[f"{backend_factory.name}/seed={seed}"]


class TestScheduleIdentity:
    """The kernel reproduces, bit for bit, the schedule the linear scan
    produced: the golden digests are the scan's output."""

    @pytest.mark.parametrize("backend_factory", CONTENDED_BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_kernel_matches_scan_bit_for_bit(self, backend_factory, seed):
        assert grid_digest(backend_factory, seed) == golden_digest(
            backend_factory, seed
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sequential_matches(self, seed):
        assert grid_digest(SequentialBackend, seed) == golden_digest(
            SequentialBackend, seed
        )

    def test_default_impl_is_the_kernel(self):
        memory = Memory()
        counter = memory.alloc(1)
        sim = Simulator(TinySTMBackend(), 2, memory=memory)
        sim.run([make_counter_program(counter, 4)] * 2)
        assert sim._kernel is not None


# ----------------------------------------------------------------------
# The end-of-run "sched" event
# ----------------------------------------------------------------------
class TestSchedEvent:
    def test_kernel_publishes_one_snapshot(self):
        memory = Memory()
        counter = memory.alloc(1)
        sim = Simulator(TinySTMBackend(), 3, memory=memory)
        events = []
        sim.bus.subscribe(events.append, kinds=("sched",))
        sim.run([make_counter_program(counter, 10)] * 3)
        assert len(events) == 1
        data = events[0].data
        assert data["picks"] > 0
        assert data["pushes"] >= data["picks"]
        # No parks in this workload: one valid entry per thread, so the
        # heap never grows past T.
        assert data["heap_high_water"] == 3
        assert 0.0 <= data["lazy_invalidation_ratio"] < 1.0

    def test_payload_is_pinned(self):
        # The fused advance keeps the counters logical: these are the
        # numbers reschedule + pick produced on this park/wake-heavy run.
        memory = Memory()
        counter = memory.alloc(1)
        sim = Simulator(CoarseLockBackend(), 4, memory=memory, seed=1)
        events = []
        sim.bus.subscribe(events.append, kinds=("sched",))
        sim.run([make_counter_program(counter, increments=12)] * 4)
        assert [e.data for e in events] == [
            {
                "picks": 339,
                "pushes": 339,
                "stale_pops": 0,
                "lazy_invalidation_ratio": 0.0,
                "wakes": 47,
                "wakes_coalesced": 0,
                "heap_high_water": 4,
            }
        ]

    def test_unobserved_runs_emit_nothing(self):
        # No subscriber => wants("sched") is False => zero event cost.
        memory = Memory()
        counter = memory.alloc(1)
        sim = Simulator(TinySTMBackend(), 2, memory=memory)
        sim.run([make_counter_program(counter, 4)] * 2)
        assert not sim.bus.wants("sched")


# ----------------------------------------------------------------------
# max_steps off-by-one + deadlock diagnostics
# ----------------------------------------------------------------------
def spinning_program(tid):
    while True:
        yield Work(1)


class TestRunLimits:
    @pytest.mark.parametrize("impl", SCHEDULERS)
    def test_max_steps_counts_exactly(self, impl):
        steps_seen = []
        sim = Simulator(SequentialBackend(), 1, max_steps=5)
        sim.bus.subscribe(lambda e: steps_seen.append(e.time), kinds=("step",))
        with pytest.raises(RuntimeError, match="max_steps=5"):
            sim.run([spinning_program])
        # Exactly max_steps steps executed — not max_steps + 1.
        assert len(steps_seen) == 5

    @pytest.mark.parametrize("impl", SCHEDULERS)
    def test_livelock_message_carries_thread_snapshot(self, impl):
        sim = Simulator(SequentialBackend(), 1, max_steps=3)
        with pytest.raises(RuntimeError, match=r"t0 runnable clock=\d+ns"):
            sim.run([spinning_program])

    @pytest.mark.parametrize("impl", SCHEDULERS)
    def test_deadlock_message_names_parked_threads(self, impl):
        barrier = SimBarrier(parties=3)  # one party short: never releases

        def program(tid):
            yield Work(5 * tid)
            yield AwaitBarrier(barrier)

        sim = Simulator(TinySTMBackend(), 2)
        with pytest.raises(RuntimeError, match="deadlock") as err:
            sim.run([program] * 2)
        message = str(err.value)
        assert "t0 parked(barrier)" in message
        assert "t1 parked(barrier)" in message


# ----------------------------------------------------------------------
# Back-to-back reuse of one barrier object
# ----------------------------------------------------------------------
class TestBarrierReuse:
    @pytest.mark.parametrize("impl", SCHEDULERS)
    def test_two_rounds_on_one_object(self, impl):
        barrier = SimBarrier(parties=3)
        passed = []

        def program(tid):
            yield Work(10 * tid)
            yield AwaitBarrier(barrier)
            passed.append(("round1", tid))
            # The fastest releasee re-arrives while others are still
            # being woken from round 1 — the release loop must not see
            # round-2 arrivals in its own batch.
            yield AwaitBarrier(barrier)
            passed.append(("round2", tid))

        Simulator(TinySTMBackend(), 3).run([program] * 3)
        assert sorted(p for p in passed if p[0] == "round1") == [
            ("round1", 0),
            ("round1", 1),
            ("round1", 2),
        ]
        assert sorted(p for p in passed if p[0] == "round2") == [
            ("round2", 0),
            ("round2", 1),
            ("round2", 2),
        ]

    @pytest.mark.parametrize("impl", SCHEDULERS)
    def test_waiting_list_is_fresh_per_round(self, impl):
        barrier = SimBarrier(parties=2)

        def program(tid):
            for _ in range(3):
                yield AwaitBarrier(barrier)
                yield Work(1 + tid)

        Simulator(TinySTMBackend(), 2).run([program] * 2)
        assert barrier.waiting == []

    def test_release_times_identical_across_impls(self):
        barrier = SimBarrier(parties=4)

        def program(tid):
            yield Work(7 * tid)
            yield AwaitBarrier(barrier)
            yield Work(3)
            yield AwaitBarrier(barrier)

        stats = Simulator(TinySTMBackend(), 4).run([program] * 4)
        # The makespan both the linear scan and the kernel produced.
        assert stats.makespan_ns == 264.0
