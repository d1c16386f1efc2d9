"""The zero-cost-when-disabled contract.

Two proofs, one deterministic and one timed:

* With no observer attached, a run constructs exactly as many
  SimEvents as before this subsystem existed — only the always-on
  ``commit``/``abort`` outcomes.  That is the *structural* proof that
  tracing-off adds zero per-event work on the hot path.
* A lenient wall-clock microbenchmark (min-of-N, generous 5% bound)
  guards against accidental un-gating of the step loop.
"""

import time

import repro.runtime.simulator as sim_mod
from repro.runtime import (
    EVENT_KINDS,
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
    def test_disabled_observability_under_five_percent(self):
        """Min-of-N wall-clock of the same simulation before/after the
        obs subsystem can only differ via the step loop; the wants()
        gate must keep the delta under the 5% acceptance bound (with
        slack for timer noise — min-of-15 on a deterministic workload).
        """
        from repro.obs import MetricsCollector

        def run_once(detached):
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
            started = time.perf_counter()
            sim.run([make_program(addr, txns=200)] * 4)
            return time.perf_counter() - started

        # Identical code path either way today — this is a regression
        # tripwire, not an A/B: it fails if someone un-gates an
        # emission so the unobserved loop starts paying for events.
        # The two sides alternate round by round, each going first in
        # turn, so a burst of host load lands on both of them.
        baseline = detached = float("inf")
        for round_ in range(15):
            for side in (False, True) if round_ % 2 == 0 else (True, False):
                elapsed = run_once(side)
                if side:
                    detached = min(detached, elapsed)
                else:
                    baseline = min(baseline, elapsed)
        assert detached <= baseline * 1.05 + 2e-3
