"""The zero-cost-when-disabled contract.

Both proofs are exact counts, not timings:

* With no observer attached, a run constructs exactly as many
  SimEvents as before this subsystem existed — only the always-on
  ``commit``/``abort`` outcomes.  That is the *structural* proof that
  tracing-off adds zero per-event work on the hot path.
* A collector installed and then detached leaves the step loop exactly
  as a never-subscribed run finds it: the same constructed event kinds
  and the same number of ``bus.emit`` calls.
"""

from collections import Counter

import repro.runtime.simulator as sim_mod
from repro.runtime import (
    EVENT_KINDS,
    EventBus,
    Memory,
    Read,
    SimEvent,
    Simulator,
    StatsCollector,
    TinySTMBackend,
    Transaction,
    Work,
    Write,
)


def make_program(addr, txns=20):
    def program(tid):
        def body():
            value = yield Read(addr)
            yield Work(5.0)
            yield Write(addr, value + 1)

        for _ in range(txns):
            yield Transaction(body)
            yield Work(10.0)

    return program


class TestZeroEventConstruction:
    def test_unobserved_run_builds_only_outcome_events(self, monkeypatch):
        constructed = []

        class CountingEvent(SimEvent):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                constructed.append(self.kind)

        monkeypatch.setattr(sim_mod, "SimEvent", CountingEvent)
        memory = Memory()
        addr = memory.alloc(1)
        sim = Simulator(TinySTMBackend(), 4, memory=memory, seed=3)
        stats = sim.run([make_program(addr)] * 4)
        # Exactly one event per outcome; nothing for steps/reads/
        # writes/begins — the wants() guard kept them un-built.
        assert len(constructed) == stats.commits + stats.aborts
        assert set(constructed) <= {"commit", "abort"}

    def test_observed_run_builds_more(self, monkeypatch):
        constructed = []

        class CountingEvent(SimEvent):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                constructed.append(self.kind)

        monkeypatch.setattr(sim_mod, "SimEvent", CountingEvent)
        memory = Memory()
        addr = memory.alloc(1)
        sim = Simulator(TinySTMBackend(), 4, memory=memory, seed=3)
        sim.bus.subscribe(lambda e: None, kinds=("read", "write", "begin"))
        stats = sim.run([make_program(addr)] * 4)
        assert len(constructed) > stats.commits + stats.aborts
        assert "read" in constructed and "begin" in constructed


class TestStepLoopOverhead:
    def test_disabled_observability_under_five_percent(self, monkeypatch):
        """A subscribe/detach cycle must leave zero residue on the step
        loop.  Exact counts, not a wall-clock A/B: the tripwire fails
        if someone un-gates an emission, so the unobserved loop starts
        building or publishing events, however fast the host is."""
        from repro.obs import MetricsCollector

        constructed = Counter()
        emitted = Counter()

        class CountingEvent(SimEvent):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                constructed[self.kind] += 1

        emit = EventBus.emit

        def counting_emit(bus, event):
            emitted[event.kind] += 1
            emit(bus, event)

        monkeypatch.setattr(sim_mod, "SimEvent", CountingEvent)
        monkeypatch.setattr(EventBus, "emit", counting_emit)

        def run_once(detached):
            constructed.clear()
            emitted.clear()
            memory = Memory()
            addr = memory.alloc(1)
            sim = Simulator(TinySTMBackend(), 4, memory=memory, seed=3)
            if detached:
                # The bus must be as cheap after a subscribe/unsubscribe
                # cycle: only the run's own outcome counter still wants
                # events.
                collector = MetricsCollector()
                collector.install(sim.bus)
                collector.detach()
                wanted = {kind for kind in EVENT_KINDS if sim.bus.wants(kind)}
                assert wanted == set(StatsCollector.KINDS)
                assert sim.bus.wanted == set(StatsCollector.KINDS)
            stats = sim.run([make_program(addr, txns=200)] * 4)
            return stats.commits, Counter(constructed), Counter(emitted)

        baseline = run_once(detached=False)
        assert run_once(detached=True) == baseline
        commits, constructed_kinds, emit_calls = baseline
        assert commits == 4 * 200
        assert set(constructed_kinds) <= {"commit", "abort"}
        assert emit_calls == constructed_kinds
