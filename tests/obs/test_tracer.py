"""The span tracer: lifecycle assembly, nesting, chaos interaction."""

import pytest

from repro.faults import build_chaos_backend
from repro.obs import SpanTracer, observe_stamp
from repro.runtime import CoarseLockBackend, RococoTMBackend
from repro.stamp import KmeansWorkload, VacationWorkload


def spans_by_name(tracer, prefix):
    return [s for s in tracer.spans if s.name.startswith(prefix)]


class TestLifecycleSpans:
    @pytest.fixture(scope="class")
    def observed(self):
        return observe_stamp(
            VacationWorkload, RococoTMBackend(), 4, scale=0.2, seed=1
        )

    def test_one_txn_span_per_outcome(self, observed):
        stats, tracer, _ = observed
        txn_spans = spans_by_name(tracer, "txn:")
        commits = [s for s in txn_spans if s.args.get("outcome") == "commit"]
        aborts = [s for s in txn_spans if s.args.get("outcome") == "abort"]
        assert len(commits) == stats.commits
        assert len(aborts) == stats.aborts
        assert not [s for s in txn_spans if s.args.get("outcome") == "truncated"]

    def test_spans_have_nonnegative_duration(self, observed):
        _, tracer, _ = observed
        for span in tracer.spans:
            assert span.end_ns >= span.start_ns >= 0.0

    def test_children_nest_inside_parents(self, observed):
        _, tracer, _ = observed
        by_id = {s.span_id: s for s in tracer.spans}
        children = [s for s in tracer.spans if s.parent_id is not None]
        assert children, "expected begin/validate children"
        for child in children:
            parent = by_id[child.parent_id]
            assert parent.start_ns <= child.start_ns
            assert child.end_ns <= parent.end_ns
            assert parent.lane == child.lane and parent.pid == child.pid

    def test_every_txn_span_has_a_begin_child(self, observed):
        _, tracer, _ = observed
        txn_ids = {s.span_id for s in spans_by_name(tracer, "txn:")}
        begin_parents = {s.parent_id for s in tracer.spans if s.name == "begin"}
        assert txn_ids <= begin_parents

    def test_validate_children_and_hw_lanes(self, observed):
        stats, tracer, _ = observed
        validates = [s for s in tracer.spans if s.cat == "validate"]
        assert len(validates) == stats.validations
        for stage in ("link-req", "queue", "detector", "manager", "link-resp"):
            stage_spans = [
                s for s in tracer.spans if s.pid == "hw" and s.lane == stage
            ]
            assert len(stage_spans) == stats.validations

    def test_hw_stage_edges_are_contiguous(self, observed):
        """Per request, the five stage spans tile [sent, ready]."""
        _, tracer, _ = observed
        hw = {}
        for span in tracer.spans:
            if span.pid == "hw":
                hw.setdefault(span.args["tid"], []).append(span)
        order = ("link-req", "queue", "detector", "manager", "link-resp")
        validates = sorted(
            (s for s in tracer.spans if s.cat == "validate"),
            key=lambda s: s.start_ns,
        )
        lanes = {
            stage: sorted(
                (s for s in tracer.spans if s.pid == "hw" and s.lane == stage),
                key=lambda s: s.span_id,
            )
            for stage in order
        }
        for index, validate in enumerate(validates):
            chain = [lanes[stage][index] for stage in order]
            # The cpu-side child is clamped to its parent; its args
            # keep the unclamped round trip the hw lanes tile.
            assert chain[0].start_ns == validate.args["sent_ns"]
            assert chain[-1].end_ns == validate.args["ready_ns"]
            for prev, nxt in zip(chain, chain[1:]):
                assert prev.end_ns == nxt.start_ns

    def test_deterministic_span_ids(self):
        first = observe_stamp(
            VacationWorkload, RococoTMBackend(), 4, scale=0.2, seed=1
        )[1]
        second = observe_stamp(
            VacationWorkload, RococoTMBackend(), 4, scale=0.2, seed=1
        )[1]
        assert [
            (s.span_id, s.name, s.start_ns, s.end_ns) for s in first.spans
        ] == [(s.span_id, s.name, s.start_ns, s.end_ns) for s in second.spans]

    def test_detail_off_skips_read_write_markers(self):
        _, tracer, _ = observe_stamp(
            VacationWorkload,
            RococoTMBackend(),
            2,
            scale=0.2,
            seed=1,
            detail=False,
        )
        assert not [m for m in tracer.markers if m.cat == "mem"]


class TestParkSpans:
    def test_lock_contention_produces_parked_spans(self):
        stats, tracer, _ = observe_stamp(
            VacationWorkload, CoarseLockBackend(), 4, scale=0.2, seed=1
        )
        parked = spans_by_name(tracer, "parked:")
        assert parked, "global lock at 4 threads must park someone"
        for span in parked:
            assert span.end_ns >= span.start_ns


class TestChaosInteraction:
    """ISSUE requirement: drops/resets still yield a well-nested trace
    whose counters agree with RunStats."""

    @pytest.fixture(scope="class")
    def observed(self):
        backend = build_chaos_backend("mixed", 0)
        return observe_stamp(
            KmeansWorkload, backend, 4, scale=0.2, seed=1
        )

    def test_trace_is_well_nested_under_faults(self, observed):
        _, tracer, _ = observed
        by_id = {s.span_id: s for s in tracer.spans}
        for child in tracer.spans:
            if child.parent_id is None:
                continue
            parent = by_id[child.parent_id]
            assert parent.start_ns <= child.start_ns <= child.end_ns <= parent.end_ns
        assert not [
            s for s in tracer.spans if s.args.get("outcome") == "truncated"
        ]

    def test_fault_markers_match_injected_counts(self, observed):
        stats, tracer, _ = observed
        marked = {}
        for marker in tracer.markers:
            if marker.cat == "fault":
                kind = marker.name.split(":", 1)[1]
                marked[kind] = marked.get(kind, 0) + marker.args["count"]
        assert marked == dict(stats.faults_injected)

    def test_abort_and_degradation_counters_match_run_stats(self, observed):
        stats, _, registry = observed
        counters = registry.snapshot()["counters"]
        assert counters["txn.aborts"] == stats.aborts
        assert counters.get("ladder.failovers", 0) == stats.failovers
        assert counters.get("ladder.failbacks", 0) == stats.failbacks
        injected = {
            name.split(".", 1)[1]: value
            for name, value in counters.items()
            if name.startswith("fault.")
        }
        assert injected == dict(stats.faults_injected)

    def test_ladder_markers_match_transitions(self):
        from repro.faults import DegradationPolicy, FaultPlan, build_chaos_backend

        backend = build_chaos_backend(
            plan=FaultPlan(seed=3, drop_rate=0.9),
            policy=DegradationPolicy(timeout_ns=4_000.0),
        )
        stats, tracer, _ = observe_stamp(
            VacationWorkload, backend, 2, scale=0.2, seed=1
        )
        failovers = [m for m in tracer.markers if m.name == "failover"]
        failbacks = [m for m in tracer.markers if m.name == "failback"]
        assert stats.failovers > 0
        assert len(failovers) == stats.failovers
        assert len(failbacks) == stats.failbacks


class TestTracerMechanics:
    def test_finish_closes_dangling_spans(self):
        from repro.runtime.events import EventBus, SimEvent

        bus = EventBus()
        tracer = SpanTracer()
        tracer.install(bus)
        bus.emit(SimEvent("begin", 0, 10.0, label="t", attempt_index=1, start=8.0))
        bus.emit(SimEvent("park", 0, 12.0, cause="begin"))
        tracer.finish()
        outcomes = {s.args.get("outcome") for s in spans_by_name(tracer, "txn")}
        assert "truncated" in outcomes
        assert any(s.args.get("truncated") for s in spans_by_name(tracer, "parked:"))

    def test_detach_leaves_no_residue(self):
        from repro.runtime.events import EventBus

        bus = EventBus()
        tracer = SpanTracer()
        tracer.install(bus)
        assert bus.wants("read")
        tracer.detach()
        assert bus._by_kind == {}

    @pytest.mark.parametrize("detail", [True, False])
    def test_every_subscribed_kind_has_a_handler(self, detail):
        from repro.runtime.events import EventBus

        bus = EventBus()
        tracer = SpanTracer(detail=detail)
        tracer.install(bus)
        assert set(tracer._handlers) == set(bus._by_kind)
        assert ("read" in tracer._handlers) is detail
        for kind, handler in tracer._handlers.items():
            assert handler.__name__ == f"_on_{kind}"
