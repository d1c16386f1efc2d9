"""The metrics registry: histograms, merging, and bus collection."""

import pytest

from repro.obs import (
    LATENCY_BOUNDS_NS,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    merge_metric_snapshots,
    observe_stamp,
)
from repro.runtime import RococoTMBackend
from repro.stamp import VacationWorkload


class TestHistogram:
    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))

    def test_bucket_edges_are_inclusive_upper(self):
        hist = Histogram((10.0, 20.0))
        for value in (0.0, 10.0, 10.5, 20.0, 21.0):
            hist.observe(value)
        # (-inf,10], (10,20], (20,inf)
        assert hist.counts == [2, 2, 1]
        assert hist.count == 5
        assert hist.min == 0.0 and hist.max == 21.0
        assert hist.mean == pytest.approx(61.5 / 5)

    def test_roundtrip_through_dict(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(0.5)
        hist.observe(3.0)
        clone = Histogram.from_dict(hist.to_dict())
        assert clone.to_dict() == hist.to_dict()

    def test_merge_adds_buckets_and_extremes(self):
        a, b = Histogram((1.0, 2.0)), Histogram((1.0, 2.0))
        a.observe(0.5)
        b.observe(5.0)
        a.merge(b)
        assert a.counts == [1, 0, 1]
        assert a.min == 0.5 and a.max == 5.0 and a.count == 2

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError):
            Histogram((1.0,)).merge(Histogram((2.0,)))

    def test_merge_with_empty_keeps_none_extremes(self):
        a, b = Histogram((1.0,)), Histogram((1.0,))
        a.merge(b)
        assert a.min is None and a.max is None and a.count == 0


class TestRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.count("x")
        reg.count("x", 2)
        reg.gauge("g", 7.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"x": 3}
        assert snap["gauges"] == {"g": 7.0}

    def test_histogram_create_or_fetch(self):
        reg = MetricsRegistry()
        reg.observe("lat", 150.0)
        reg.observe("lat", 50.0)
        hist = reg.histogram("lat")
        assert hist.count == 2
        assert hist.bounds == tuple(LATENCY_BOUNDS_NS)

    def test_snapshot_keys_are_sorted(self):
        reg = MetricsRegistry()
        reg.count("zeta")
        reg.count("alpha")
        assert list(reg.snapshot()["counters"]) == ["alpha", "zeta"]


class TestMerge:
    def test_merge_sums_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("c", 2)
        b.count("c", 3)
        b.count("only-b")
        a.observe("h", 150.0)
        b.observe("h", 150.0)
        merged = merge_metric_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"] == {"c": 5, "only-b": 1}
        assert merged["histograms"]["h"]["count"] == 2

    def test_gauges_merge_by_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth", 3.0)
        b.gauge("depth", 9.0)
        merged = merge_metric_snapshots([a.snapshot(), b.snapshot()])
        assert merged["gauges"] == {"depth": 9.0}

    def test_merge_is_order_independent(self):
        regs = []
        for seed in range(3):
            reg = MetricsRegistry()
            reg.count("c", seed + 1)
            reg.gauge("g", float(seed))
            reg.observe("h", 100.0 * (seed + 1))
            regs.append(reg.snapshot())
        forward = merge_metric_snapshots(regs)
        backward = merge_metric_snapshots(list(reversed(regs)))
        assert forward == backward

    def test_merge_of_nothing_is_empty(self):
        assert merge_metric_snapshots([]) == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestCollector:
    @pytest.fixture(scope="class")
    def observed(self):
        return observe_stamp(
            VacationWorkload,
            RococoTMBackend(),
            4,
            scale=0.2,
            seed=1,
            trace=False,
        )

    def test_counters_match_run_stats(self, observed):
        stats, _, registry = observed
        counters = registry.snapshot()["counters"]
        assert counters["txn.commits"] == stats.commits
        assert counters["txn.aborts"] == stats.aborts
        for cause, count in stats.aborts_by_cause.items():
            assert counters[f"txn.aborts.{cause}"] == count
        assert counters["hw.validations"] == stats.validations

    def test_latency_histograms_populated(self, observed):
        stats, _, registry = observed
        hists = registry.snapshot()["histograms"]
        assert hists["txn.commit_latency_ns"]["count"] == stats.commits
        assert hists["hw.validation_ns"]["count"] == stats.validations
        assert hists["txn.attempts"]["count"] == stats.commits
        assert hists["hw.validation_ns"]["min"] > 0

    def test_window_occupancy_recorded(self, observed):
        _, _, registry = observed
        snap = registry.snapshot()
        assert snap["histograms"]["hw.window_occupancy"]["count"] > 0
        assert snap["gauges"]["hw.window_resident"] >= 0

    def test_snapshot_rides_run_stats_serialization(self, observed):
        from repro.runtime import RunStats

        stats, _, registry = observed
        clone = RunStats.from_dict(stats.to_dict())
        assert clone.metrics == registry.snapshot()

    def test_does_not_subscribe_to_hot_path_kinds(self):
        from repro.runtime.events import EventBus

        bus = EventBus()
        MetricsCollector().install(bus)
        for kind in ("read", "write", "step"):
            assert not bus.wants(kind)
        assert bus.wants("validate")

    def test_detach_leaves_no_residue(self):
        from repro.runtime.events import EventBus

        bus = EventBus()
        collector = MetricsCollector()
        collector.install(bus)
        collector.detach()
        assert bus._by_kind == {}

    def test_every_subscribed_kind_has_a_handler(self):
        from repro.runtime.events import EventBus

        bus = EventBus()
        collector = MetricsCollector()
        collector.install(bus)
        assert set(collector._handlers) == set(bus._by_kind) == set(collector.KINDS)
        for kind, handler in collector._handlers.items():
            assert handler.__name__ == f"_on_{kind}"
