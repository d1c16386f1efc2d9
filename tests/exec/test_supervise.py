"""SupervisedRunner: crash paths, deadlines, quarantine, resume.

The acceptance bar for the robustness layer: a sweep survives
SIGKILLed workers, hung workers, garbage output and torn journal
writes, and a killed-and-resumed sweep is *bit-identical* to an
uninterrupted one.
"""

import multiprocessing

import pytest

from repro.exec import (
    ExperimentSpec,
    SerialRunner,
    SupervisedRunner,
    SupervisorPolicy,
    SweepJournal,
)
from repro.exec.cache import ResultCache
from repro.faults import WorkerFaultPlan

MINI_GRID = [
    ExperimentSpec(workload, backend, n_threads, scale=0.2, seed=1)
    for workload in ("kmeans", "ssca2")
    for backend, n_threads in (
        ("sequential", 1),
        ("TinySTM", 2),
        ("ROCoCoTM", 2),
    )
]

#: generous per-cell deadline for tests that must never hit it.
SLACK = SupervisorPolicy(timeout_s=120.0)

needs_processes = pytest.mark.skipif(
    not multiprocessing.get_all_start_methods(),
    reason="no multiprocessing start method",
)


def _dicts(stats_list):
    return [stats.to_dict() for stats in stats_list]


class TestBitIdentity:
    @needs_processes
    def test_supervised_identical_to_serial(self):
        serial = SerialRunner().run(MINI_GRID)
        supervised = SupervisedRunner(max_workers=2, policy=SLACK).run(MINI_GRID)
        assert _dicts(supervised) == _dicts(serial)

    def test_in_process_identical_to_serial(self):
        supervised = SupervisedRunner(in_process=True).run(MINI_GRID)
        assert _dicts(supervised) == _dicts(SerialRunner().run(MINI_GRID))


class TestCrashRecovery:
    @needs_processes
    def test_sigkilled_worker_is_retried(self):
        """A worker SIGKILLs itself mid-sweep; the supervisor detects
        the silent death, retries the cell, and the sweep's results
        are unaffected."""
        specs = MINI_GRID[:3]
        plan = WorkerFaultPlan.parse("crash@1:0")
        runner = SupervisedRunner(max_workers=2, policy=SLACK, worker_faults=plan)
        results = runner.run(specs)
        assert _dicts(results) == _dicts(SerialRunner().run(specs))
        counters = runner.metrics.snapshot()["counters"]
        assert counters["runner.failures.crash"] == 1
        assert counters["runner.retries"] == 1
        assert counters["runner.cells"] == len(specs)

    @needs_processes
    def test_garbage_output_is_detected_and_retried(self):
        specs = MINI_GRID[1:3]
        plan = WorkerFaultPlan.parse("garbage@0:0")
        runner = SupervisedRunner(max_workers=2, policy=SLACK, worker_faults=plan)
        results = runner.run(specs)
        assert _dicts(results) == _dicts(SerialRunner().run(specs))
        counters = runner.metrics.snapshot()["counters"]
        assert counters["runner.failures.garbage-output"] == 1

    @needs_processes
    def test_retry_markers_on_supervisor_lane(self):
        plan = WorkerFaultPlan.parse("crash@0:0")
        runner = SupervisedRunner(max_workers=1, policy=SLACK, worker_faults=plan)
        runner.run(MINI_GRID[1:2])
        retry = [m for m in runner.markers if m.name.startswith("retry:")]
        assert len(retry) == 1
        assert retry[0].lane == "supervisor"
        assert retry[0].args["kind"] == "crash"


class TestHangDetection:
    @needs_processes
    def test_deadline_expiry_kills_and_retries(self):
        """A hung worker (no heartbeats configured) is killed at the
        per-cell deadline and the cell recovered on retry."""
        policy = SupervisorPolicy(timeout_s=1.0, heartbeat_s=None, max_retries=1)
        plan = WorkerFaultPlan.parse("hang@0:0")
        runner = SupervisedRunner(max_workers=1, policy=policy, worker_faults=plan)
        results = runner.run(MINI_GRID[1:2])
        assert _dicts(results) == _dicts(SerialRunner().run(MINI_GRID[1:2]))
        counters = runner.metrics.snapshot()["counters"]
        assert counters["runner.timeouts"] == 1
        assert counters["runner.failures.timeout"] == 1

    @needs_processes
    def test_heartbeat_staleness_beats_the_deadline(self):
        """With heartbeats on, a silent worker is caught by staleness
        long before a (here: generous) deadline would fire."""
        policy = SupervisorPolicy(
            timeout_s=120.0, heartbeat_s=0.1, heartbeat_misses=5, max_retries=1
        )
        plan = WorkerFaultPlan.parse("hang@0:0")
        runner = SupervisedRunner(max_workers=1, policy=policy, worker_faults=plan)
        results = runner.run(MINI_GRID[1:2])
        assert results[0] is not None
        counters = runner.metrics.snapshot()["counters"]
        assert counters["runner.failures.hang"] == 1
        assert "runner.timeouts" not in counters


class TestQuarantine:
    def test_poison_cell_is_quarantined_not_fatal(self, tmp_path):
        """A cell that fails every attempt is recorded with
        diagnostics and skipped; the rest of the sweep completes."""
        specs = MINI_GRID[1:3]
        plan = WorkerFaultPlan.parse("crash@0")  # every attempt
        policy = SupervisorPolicy(max_retries=1, backoff_base_s=0.0)
        journal = tmp_path / "sweep.jsonl"
        runner = SupervisedRunner(
            in_process=True, policy=policy, worker_faults=plan,
            journal=str(journal),
        )
        results = runner.run(specs)
        assert results[0] is None
        assert results[1] is not None
        diag = runner.quarantined[0]
        assert diag["attempts"] == 2
        assert [f["kind"] for f in diag["failures"]] == ["crash", "crash"]
        assert diag["spec"]["workload"] == specs[0].workload
        counters = runner.metrics.snapshot()["counters"]
        assert counters["runner.quarantined"] == 1

    def test_quarantine_is_sticky_across_resume(self, tmp_path):
        specs = MINI_GRID[1:3]
        journal = tmp_path / "sweep.jsonl"
        plan = WorkerFaultPlan.parse("crash@0")
        policy = SupervisorPolicy(max_retries=0, backoff_base_s=0.0)
        SupervisedRunner(
            in_process=True, policy=policy, worker_faults=plan,
            journal=str(journal),
        ).run(specs)
        # Resume without the fault plan: the poison verdict is served
        # from the journal, not retried.
        again = SupervisedRunner(in_process=True, journal=str(journal))
        results = again.run(specs)
        assert results[0] is None and 0 in again.quarantined
        assert again.journal_hits == 1  # the healthy cell
        counters = again.metrics.snapshot()["counters"]
        assert "runner.cells" not in counters  # nothing re-executed

    def test_backoff_is_deterministic(self):
        policy = SupervisorPolicy(seed=9)
        spec_hash = MINI_GRID[0].content_hash()
        series = [policy.backoff_s(spec_hash, attempt) for attempt in range(4)]
        assert series == [policy.backoff_s(spec_hash, a) for a in range(4)]
        assert all(0 < b <= policy.backoff_cap_s for b in series)
        other = SupervisorPolicy(seed=10)
        assert series != [other.backoff_s(spec_hash, a) for a in range(4)]


class TestResume:
    def test_killed_sweep_resumes_bit_identically(self, tmp_path):
        """The acceptance criterion: a sweep interrupted after some
        completed cells, resumed from its journal, yields results
        bit-identical to an uninterrupted serial run — with the
        completed cells served from the journal, not re-executed."""
        journal = tmp_path / "sweep.jsonl"
        serial = SerialRunner().run(MINI_GRID)

        # "Kill" after three cells: a first supervised run that only
        # ever saw the prefix (the journal is what a SIGKILLed full
        # run would have left behind — same records, same file).
        first = SupervisedRunner(in_process=True, journal=str(journal))
        first.run(MINI_GRID[:3])

        resumed = SupervisedRunner(in_process=True, journal=str(journal))
        results = resumed.run(MINI_GRID)
        assert _dicts(results) == _dicts(serial)
        assert resumed.journal_hits == 3
        counters = resumed.metrics.snapshot()["counters"]
        assert counters["runner.journal_hits"] == 3
        assert counters["runner.cells"] == len(MINI_GRID) - 3

    def test_partial_write_fault_is_tolerated_on_resume(self, tmp_path):
        """A torn journal record (crash mid-write) costs exactly one
        re-execution — never a crash, never a poisoned neighbor."""
        specs = MINI_GRID[1:3]
        journal = tmp_path / "sweep.jsonl"
        plan = WorkerFaultPlan.parse("partial-write@0:0")
        policy = SupervisorPolicy(max_retries=1, backoff_base_s=0.0)
        first = SupervisedRunner(
            in_process=True, policy=policy, worker_faults=plan,
            journal=str(journal),
        )
        first_results = first.run(specs)
        # The torn write failed attempt 0; the retry completed the
        # cell and its record healed the journal tail.
        assert all(stats is not None for stats in first_results)
        counters = first.metrics.snapshot()["counters"]
        assert counters["runner.failures.partial-write"] == 1

        resumed = SupervisedRunner(in_process=True, journal=str(journal))
        results = resumed.run(specs)
        assert _dicts(results) == _dicts(SerialRunner().run(specs))
        counters = resumed.metrics.snapshot()["counters"]
        assert counters["runner.journal_corrupt"] >= 1
        assert resumed.journal_hits == 2

    def test_corrupt_journal_line_never_crashes_the_sweep(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        first = SupervisedRunner(in_process=True, journal=str(journal))
        first.run(MINI_GRID[:2])
        with open(journal, "ab") as sink:
            sink.write(b'{"type": "result", "spec": "xx", "crc": "bad"}\n')
            sink.write(b"\x00\xff torn garbage")
        resumed = SupervisedRunner(in_process=True, journal=str(journal))
        results = resumed.run(MINI_GRID[:2])
        assert _dicts(results) == _dicts(SerialRunner().run(MINI_GRID[:2]))
        assert resumed.journal_hits == 2

    def test_stale_journal_reexecutes(self, tmp_path):
        """A journal written by different code is discarded wholesale."""
        journal = SweepJournal(str(tmp_path / "sweep.jsonl"))
        hashes = [spec.content_hash() for spec in MINI_GRID[:2]]
        journal.start(hashes, fingerprint="other-code")
        journal.record_result(hashes[0], MINI_GRID[0].execute().to_dict())
        journal.close()
        runner = SupervisedRunner(
            in_process=True, journal=str(tmp_path / "sweep.jsonl")
        )
        results = runner.run(MINI_GRID[:2])
        assert runner.journal_hits == 0
        assert _dicts(results) == _dicts(SerialRunner().run(MINI_GRID[:2]))


class TestCacheInterplay:
    def test_cached_cells_skip_supervision(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        SerialRunner(cache=cache).run(MINI_GRID[:2])
        runner = SupervisedRunner(in_process=True, cache=cache)
        results = runner.run(MINI_GRID[:2])
        assert all(stats is not None for stats in results)
        assert "runner.cells" not in runner.metrics.snapshot()["counters"]

    def test_journal_hits_warm_the_cache(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        SupervisedRunner(in_process=True, journal=str(journal)).run(MINI_GRID[:1])
        cache = ResultCache(str(tmp_path / "cache"))
        runner = SupervisedRunner(
            in_process=True, journal=str(journal), cache=cache
        )
        runner.run(MINI_GRID[:1])
        assert runner.journal_hits == 1
        assert cache.get(MINI_GRID[0]) is not None


class TestStampDeterminism:
    def test_source_date_epoch_pins_the_stamp(self, tmp_path, monkeypatch):
        """With SOURCE_DATE_EPOCH set, two stamps of the same sweep are
        byte-identical regardless of wall clock — the property the CI
        crash-smoke byte comparison rests on."""
        from repro.bench import matrix_from_results
        from repro.exec import write_bench_stamp

        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        specs = MINI_GRID[:3]
        results = SerialRunner().run(specs)
        matrix = matrix_from_results(specs, results)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_bench_stamp(str(a), matrix, specs, 1.23)
        write_bench_stamp(str(b), matrix, specs, 45.6)  # different wall clock
        assert a.read_bytes() == b.read_bytes()
        assert b'"generated_at": "1970-01-01T00:00:00Z"' in a.read_bytes()

    def test_valid_source_date_epoch(self, monkeypatch):
        from repro.exec.stampfile import _provenance_clock

        monkeypatch.setenv("SOURCE_DATE_EPOCH", "86400")
        assert _provenance_clock(12.5) == ("1970-01-02T00:00:00Z", 0.0)

    @pytest.mark.parametrize(
        "pinned",
        ["abc", "", "1.5", "-1", " 7"],
        ids=["letters", "empty", "fraction", "negative", "padded"],
    )
    def test_malformed_source_date_epoch_raises(self, monkeypatch, pinned):
        from repro.exec.stampfile import _provenance_clock

        monkeypatch.setenv("SOURCE_DATE_EPOCH", pinned)
        with pytest.raises(ValueError, match="SOURCE_DATE_EPOCH"):
            _provenance_clock(12.5)

    def test_quarantine_diagnostics_ride_in_the_stamp(self, tmp_path):
        from repro.bench import matrix_from_results
        from repro.exec import bench_stamp_payload

        specs = MINI_GRID[1:3]
        plan = WorkerFaultPlan.parse("crash@0")
        policy = SupervisorPolicy(max_retries=0, backoff_base_s=0.0)
        runner = SupervisedRunner(
            in_process=True, policy=policy, worker_faults=plan
        )
        results = runner.run(specs)
        matrix = matrix_from_results(specs, results)
        payload = bench_stamp_payload(matrix, specs, 0.0, runner)
        assert len(payload["quarantined"]) == 1
        assert payload["quarantined"][0]["spec"]["workload"] == specs[0].workload


class TestPartialMatrix:
    def test_matrix_tolerates_quarantined_baseline(self):
        """A missing sequential baseline drops its dependent speedup
        cells instead of crashing the assembly."""
        from repro.bench import matrix_from_results

        specs = MINI_GRID  # kmeans: [seq, TinySTM, ROCoCoTM], then ssca2
        results = SerialRunner().run(specs)
        results = list(results)
        results[0] = None  # quarantine kmeans's sequential baseline
        matrix = matrix_from_results(specs, results)
        assert matrix.workloads() == ["ssca2"]
        assert len(matrix.cells) == 2


class TestWorkerFaultsInProcessMode:
    def test_hang_and_crash_faults_are_immediate_in_process(self):
        """in_process mode cannot preempt a real hang, so the fault
        models degrade to immediate failures — the retry/quarantine
        bookkeeping is still exercised deterministically."""
        specs = MINI_GRID[1:2]
        plan = WorkerFaultPlan.parse("hang@0:0")
        policy = SupervisorPolicy(max_retries=1, backoff_base_s=0.0)
        runner = SupervisedRunner(
            in_process=True, policy=policy, worker_faults=plan
        )
        results = runner.run(specs)
        assert results[0] is not None
        counters = runner.metrics.snapshot()["counters"]
        assert counters["runner.failures.hang"] == 1
