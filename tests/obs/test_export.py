"""Chrome trace-event export: schema, monotonicity, CLI acceptance."""

import json

import pytest

from repro.cli import main
from repro.obs import chrome_trace_payload, observe_stamp, write_chrome_trace
from repro.runtime import RococoTMBackend
from repro.stamp import VacationWorkload


def lanes_of(payload):
    lanes = {}
    for event in payload["traceEvents"]:
        if event["ph"] in ("X", "i"):
            lanes.setdefault((event["pid"], event["tid"]), []).append(event)
    return lanes


class TestAcceptanceTrace:
    """ISSUE acceptance: ``repro trace stamp-vacation-low rococotm
    --out trace.json`` emits valid Chrome trace JSON with >=1 span per
    committed transaction and hw pipeline lanes."""

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace") / "t.json"
        code = main(
            ["trace", "stamp-vacation-low", "rococotm", "--out", str(out)]
        )
        assert code == 0
        return json.loads(out.read_text())

    def test_schema_required_keys(self, traced):
        assert "traceEvents" in traced
        assert traced["displayTimeUnit"] == "ns"
        for event in traced["traceEvents"]:
            assert event["ph"] in ("X", "M", "i")
            if event["ph"] == "M":
                assert event["name"] in ("process_name", "thread_name")
                continue
            assert {"name", "pid", "tid", "ts"} <= set(event)
            assert event["ts"] >= 0
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_at_least_one_span_per_committed_txn(self, traced):
        commits = [
            e
            for e in traced["traceEvents"]
            if e["ph"] == "X"
            and e["name"].startswith("txn:")
            and e["args"].get("outcome") == "commit"
        ]
        # vacation at the default trace scale commits plenty.
        assert len(commits) >= 1
        stats, _, _ = observe_stamp(
            VacationWorkload,
            RococoTMBackend(),
            4,
            scale=0.25,
            seed=1,
            trace=False,
            metrics=False,
        )
        assert len(commits) == stats.commits

    def test_hw_pipeline_lanes_present(self, traced):
        names = {
            e["args"]["name"]
            for e in traced["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        for lane in ("link-req", "queue", "detector", "manager", "link-resp"):
            assert lane in names
        hw_spans = [
            e
            for e in traced["traceEvents"]
            if e["ph"] == "X" and e["pid"] == 2
        ]
        assert hw_spans

    def test_ts_monotonic_per_lane(self, traced):
        for lane, events in lanes_of(traced).items():
            timestamps = [e["ts"] for e in events]
            assert timestamps == sorted(timestamps), f"lane {lane} not sorted"

    def test_nesting_within_lane(self, traced):
        """A child 'X' event must sit inside its parent's [ts, ts+dur]."""
        spans = {
            e["args"]["span_id"]: e
            for e in traced["traceEvents"]
            if e["ph"] == "X"
        }
        checked = 0
        for event in spans.values():
            parent_id = event["args"].get("parent")
            if parent_id is None or parent_id not in spans:
                continue
            parent = spans[parent_id]
            assert parent["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"] + 1e-9
            checked += 1
        assert checked > 0

    def test_no_wall_clock_in_payload(self, traced):
        blob = json.dumps(traced)
        assert "generated_at" not in blob
        assert "2026" not in json.dumps(traced["otherData"])


class TestDeterminism:
    def test_payload_is_bit_identical_across_runs(self):
        def build():
            _, tracer, _ = observe_stamp(
                VacationWorkload, RococoTMBackend(), 4, scale=0.2, seed=1
            )
            return chrome_trace_payload(tracer, workload="vacation", seed=1)

        assert json.dumps(build(), sort_keys=True) == json.dumps(
            build(), sort_keys=True
        )

    def test_meta_lands_in_other_data(self):
        _, tracer, _ = observe_stamp(
            VacationWorkload, RococoTMBackend(), 2, scale=0.2, seed=1
        )
        payload = chrome_trace_payload(tracer, workload="vacation", seed=9)
        assert payload["otherData"] == {"workload": "vacation", "seed": 9}


class TestTraceFile:
    def test_file_loads_back_to_the_payload_one_event_per_line(self, tmp_path):
        _, tracer, _ = observe_stamp(
            VacationWorkload, RococoTMBackend(), 2, scale=0.2, seed=1
        )
        out = tmp_path / "t.json"
        payload = write_chrome_trace(out, tracer, workload="vacation", seed=1)
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh) == payload
        lines = out.read_text(encoding="utf-8").splitlines()
        events = payload["traceEvents"]
        assert len(lines) == len(events) + 2
        for line, event in zip(lines[1:], events):
            assert json.loads(line.rstrip(",")) == event
            assert line.rstrip(",") == json.dumps(
                event, sort_keys=True, separators=(",", ":")
            )
