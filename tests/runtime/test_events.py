"""The event bus: subscription semantics and simulator emission."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    EVENT_KINDS,
    EventBus,
    Memory,
    Read,
    RunStats,
    SimEvent,
    Simulator,
    StatsCollector,
    TinySTMBackend,
    Transaction,
    Work,
    Write,
)


class TestEventBus:
    def test_delivery_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("first", e.kind)))
        bus.subscribe(lambda e: seen.append(("second", e.kind)), kinds=("commit",))
        bus.emit(SimEvent("commit", 0, 1.0))
        assert seen == [("first", "commit"), ("second", "commit")]

    def test_kind_filtering(self):
        bus = EventBus()
        commits = []
        bus.subscribe(commits.append, kinds=("commit",))
        bus.emit(SimEvent("abort", 0, 1.0, cause="conflict"))
        bus.emit(SimEvent("commit", 0, 2.0))
        assert [e.kind for e in commits] == ["commit"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EventBus().subscribe(lambda e: None, kinds=("teleport",))

    def test_wants(self):
        bus = EventBus()
        assert not bus.wants("read")
        bus.subscribe(lambda e: None, kinds=("read",))
        assert bus.wants("read")
        assert not bus.wants("write")
        bus.subscribe(lambda e: None)  # catch-all makes every kind wanted
        assert bus.wants("write")

    def test_events_are_frozen(self):
        event = SimEvent("commit", 0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.kind = "abort"


class TestUnsubscribe:
    def test_removes_kind_subscriptions(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=("read", "write"))
        bus.emit(SimEvent("read", 0, 1.0))
        bus.unsubscribe(seen.append)
        bus.emit(SimEvent("read", 0, 2.0))
        assert len(seen) == 1

    def test_removes_catch_all(self):
        bus = EventBus()
        seen = []
        handler = seen.append
        bus.subscribe(handler)
        bus.unsubscribe(handler)
        bus.emit(SimEvent("commit", 0, 1.0))
        assert seen == []

    def test_wants_reverts_after_detach(self):
        # The emission fast path must return to its pre-subscription
        # answer — a detached tracer leaves zero per-event residue.
        bus = EventBus()
        handler = lambda e: None  # noqa: E731
        assert not bus.wants("read")
        bus.subscribe(handler, kinds=("read",))
        assert bus.wants("read")
        bus.unsubscribe(handler)
        assert not bus.wants("read")
        assert bus._by_kind == {}

    def test_removes_duplicate_registrations(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=("commit",))
        bus.subscribe(seen.append, kinds=("commit",))
        bus.emit(SimEvent("commit", 0, 1.0))
        assert len(seen) == 2
        bus.unsubscribe(seen.append)
        bus.emit(SimEvent("commit", 0, 2.0))
        assert len(seen) == 2

    def test_unknown_handler_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError):
            bus.unsubscribe(lambda e: None)

    def test_other_subscribers_survive(self):
        bus = EventBus()
        first, second = [], []
        bus.subscribe(first.append, kinds=("commit",))
        bus.subscribe(second.append, kinds=("commit",))
        bus.unsubscribe(first.append)
        bus.emit(SimEvent("commit", 0, 1.0))
        assert first == [] and len(second) == 1

    def test_emission_cost_returns_to_baseline(self):
        """After detach, a run constructs exactly as many events as a
        never-subscribed run (the wants() guard skips hot-path kinds)."""
        from repro.runtime import events as events_mod

        constructed = []

        class CountingEvent(SimEvent):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                constructed.append(self.kind)

        def run_once(subscribe_then_detach):
            memory = Memory()
            addr = memory.alloc(1)

            def program(tid):
                def body():
                    value = yield Read(addr)
                    yield Write(addr, value + 1)
                for _ in range(5):
                    yield Transaction(body)
                    yield Work(10.0)

            sim = Simulator(TinySTMBackend(), 2, memory=memory, seed=7)
            if subscribe_then_detach:
                handler = lambda e: None  # noqa: E731
                sim.bus.subscribe(handler, kinds=("read", "write", "step"))
                sim.bus.unsubscribe(handler)
            constructed.clear()
            sim.run([program] * 2)
            return list(constructed)

        original = events_mod.SimEvent
        import repro.runtime.simulator as sim_mod

        sim_mod.SimEvent = CountingEvent
        try:
            baseline = run_once(subscribe_then_detach=False)
            detached = run_once(subscribe_then_detach=True)
        finally:
            sim_mod.SimEvent = original
        assert detached == baseline
        # Only the always-on outcome events should have been built.
        assert set(baseline) <= {"commit", "abort"}


#: one bus operation: a handler (by index), and either a subscription
#: (a tuple of kinds, or None for catch-all) or an unsubscribe ("off").
_BUS_OPS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.one_of(
            st.just("off"),
            st.none(),
            st.lists(st.sampled_from(EVENT_KINDS), min_size=1, max_size=3).map(tuple),
        ),
    ),
    max_size=25,
)


class TestWantedSet:
    """``EventBus.wanted`` is the one emission gate: a live set that
    ``subscribe`` and ``unsubscribe`` update in place."""

    @given(_BUS_OPS)
    @settings(max_examples=200, deadline=None)
    def test_wanted_tracks_every_subscription(self, ops):
        bus = EventBus()
        wanted = bus.wanted
        handlers = [lambda e: None, lambda e: None, lambda e: None]
        live = []  # (handler index, kinds or None), one per registration
        for index, action in ops:
            if action == "off":
                if any(h == index for h, _ in live):
                    bus.unsubscribe(handlers[index])
                    live = [(h, k) for h, k in live if h != index]
                else:
                    with pytest.raises(ValueError):
                        bus.unsubscribe(handlers[index])
            else:
                bus.subscribe(handlers[index], kinds=action)
                live.append((index, action))
            if any(kinds is None for _, kinds in live):
                expected = set(EVENT_KINDS)
            else:
                expected = {kind for _, kinds in live for kind in kinds}
            assert bus.wanted is wanted  # updated in place, never rebound
            assert wanted == expected
            assert wanted == {kind for kind in EVENT_KINDS if bus.wants(kind)}

    def test_handler_subscribed_in_a_backend_hook_sees_the_next_events(self):
        def run(subscribe_at_read):
            events = []

            class SubscribingBackend(TinySTMBackend):
                reads = 0

                def read(self, tid, addr, now_ns):
                    self.reads += 1
                    if self.reads == subscribe_at_read:
                        assert self.driver.bus.in_backend
                        self.driver.bus.subscribe(events.append, kinds=("read", "step"))
                    return super().read(tid, addr, now_ns)

            memory = Memory()
            base = memory.alloc(1)
            memory.store(base, 0)
            simulator = Simulator(SubscribingBackend(), 3, memory=memory, seed=2)
            if subscribe_at_read == 0:
                simulator.bus.subscribe(events.append, kinds=("read", "step"))
            simulator.run([_contended_counter(base, 4)] * 3)
            return events

        reference = run(subscribe_at_read=0)
        reads = [i for i, e in enumerate(reference) if e.kind == "read"]
        for k in (1, 5, len(reads)):
            # The k-th read hook subscribed: its own read event (emitted
            # after the hook returns) and everything after it arrive.
            assert run(subscribe_at_read=k) == reference[reads[k - 1]:]


class TestStatsCollector:
    def test_accumulates_outcomes(self):
        stats = RunStats()
        bus = EventBus()
        StatsCollector(stats).install(bus)
        bus.emit(SimEvent("commit", 0, 1.0))
        bus.emit(SimEvent("commit", 1, 2.0))
        bus.emit(SimEvent("abort", 0, 3.0, cause="cpu-conflict", wasted=120.0))
        assert stats.commits == 2
        assert stats.aborts_by_cause == {"cpu-conflict": 1}
        assert stats.wasted_ns == 120.0


def _contended_counter(base, increments):
    def body():
        value = yield Read(base)
        yield Work(300)
        yield Write(base, value + 1)

    def program(tid):
        for _ in range(increments):
            yield Transaction(body, label="incr")
            yield Work(50)

    return program


class TestSimulatorEmission:
    def _run(self, n_threads=4, increments=5):
        memory = Memory()
        base = memory.alloc(1)
        memory.store(base, 0)
        simulator = Simulator(TinySTMBackend(), n_threads, memory=memory, seed=0)
        events = []
        simulator.bus.subscribe(events.append)
        stats = simulator.run([_contended_counter(base, increments)] * n_threads)
        return stats, events

    def test_every_kind_is_a_known_kind(self):
        _, events = self._run()
        assert {e.kind for e in events} <= set(EVENT_KINDS)

    def test_outcomes_match_stats(self):
        stats, events = self._run()
        kinds = [e.kind for e in events]
        assert kinds.count("commit") == stats.commits == 4 * 5
        assert kinds.count("abort") == stats.aborts
        # every abort is followed by backoff, and aborts imply retries:
        # more begins than attempts that succeeded.
        assert kinds.count("backoff") >= kinds.count("abort")
        assert kinds.count("begin") == stats.commits + sum(
            1 for e in events if e.kind == "abort" and e.began
        )

    def test_begin_carries_label_and_attempt_index(self):
        _, events = self._run()
        begins = [e for e in events if e.kind == "begin"]
        assert all(e.label == "incr" for e in begins)
        assert all(e.attempt_index >= 1 for e in begins)
        assert any(e.attempt_index > 1 for e in begins)  # contention retried

    def test_reads_and_writes_carry_addr_and_value(self):
        _, events = self._run(n_threads=1, increments=3)
        reads = [e for e in events if e.kind == "read"]
        writes = [e for e in events if e.kind == "write"]
        assert [e.value for e in reads] == [0, 1, 2]
        assert [e.value for e in writes] == [1, 2, 3]
        assert all(e.addr is not None for e in reads + writes)

    def test_time_is_monotone_per_thread(self):
        _, events = self._run()
        clocks = {}
        for event in events:
            if event.kind == "step":
                continue
            assert event.time >= clocks.get(event.tid, 0.0)
            clocks[event.tid] = event.time

    def test_no_subscriber_no_read_events(self):
        # The hot path must not fabricate events nobody consumes; the
        # stats collector only listens to commit/abort.
        memory = Memory()
        base = memory.alloc(1)
        memory.store(base, 0)
        simulator = Simulator(TinySTMBackend(), 2, memory=memory, seed=0)
        assert not simulator.bus.wants("read")
        assert simulator.bus.wants("commit")

    def test_in_backend_flag_raised_inside_hooks(self):
        memory = Memory()
        base = memory.alloc(1)
        memory.store(base, 0)
        simulator = Simulator(TinySTMBackend(), 2, memory=memory, seed=0)
        flags = []
        memory.subscribe(lambda addr, value: flags.append(simulator.bus.in_backend))
        simulator.run([_contended_counter(base, 2)] * 2)
        # TinySTM is write-back: every store observed during the run is
        # a commit-time write-back, performed inside a backend hook.
        assert flags and all(flags)
        assert simulator.bus.in_backend is False
