"""Runners: bit-identity, ordering, cache awareness, runner choice."""

import multiprocessing
import os

import pytest

from repro.exec import (
    ExperimentSpec,
    ResultCache,
    SerialRunner,
    SupervisedRunner,
    SupervisorPolicy,
    default_runner,
    run_payload,
)

#: the satellite's 2-workload x 2-backend mini-grid (plus per-workload
#: sequential baselines), kept tiny so tier-1 stays fast.
MINI_GRID = [
    ExperimentSpec(workload, backend, n_threads, scale=0.2, seed=1)
    for workload in ("kmeans", "ssca2")
    for backend, n_threads in (
        ("sequential", 1),
        ("TinySTM", 2),
        ("ROCoCoTM", 2),
    )
]


def _dicts(stats_list):
    return [stats.to_dict() for stats in stats_list]


class TestSerialRunner:
    def test_order_matches_input(self):
        results = SerialRunner().run(MINI_GRID)
        assert [(s.workload, s.backend) for s in results] == [
            (spec.workload, spec.backend) for spec in MINI_GRID
        ]

    def test_progress_called_per_cell(self):
        seen = []
        SerialRunner().run(MINI_GRID[:2], progress=seen.append)
        assert len(seen) == 2
        assert "kmeans/sequential@1t" in seen[0]


class TestBitIdentity:
    def test_pool_identical_to_serial_on_mini_grid(self):
        """The tentpole contract: sharding cells across processes
        changes nothing about any cell (each spec owns its RNGs)."""
        serial = SerialRunner().run(MINI_GRID)
        pooled = SupervisedRunner(max_workers=2).run(MINI_GRID)
        assert _dicts(serial) == _dicts(pooled)

    def test_run_payload_round_trip(self):
        spec = MINI_GRID[1]
        via_payload = run_payload(spec.canonical())
        assert via_payload == spec.execute().to_dict()


class CountingContext:
    """A multiprocessing context that records every process it makes."""

    def __init__(self, context):
        self.context = context
        self.processes = []

    def __getattr__(self, name):
        return getattr(self.context, name)

    def Process(self, *args, **kwargs):
        process = self.context.Process(*args, **kwargs)
        self.processes.append(process)
        return process


@pytest.fixture
def counting(monkeypatch):
    from repro.exec import supervise

    context = supervise._pick_context()
    if context is None:
        pytest.skip("no multiprocessing start method")
    counting = CountingContext(context)
    monkeypatch.setattr(supervise, "_pick_context", lambda: counting)
    return counting


class TestSupervisedRunner:
    def test_slots_fork_once_and_stop_cleanly(self, counting):
        """Each slot keeps one worker for the whole sweep; at the end
        every worker has exited."""
        runner = SupervisedRunner(max_workers=2)
        assert _dicts(runner.run(MINI_GRID)) == _dicts(SerialRunner().run(MINI_GRID))
        assert len(counting.processes) == 2
        assert [p.exitcode for p in counting.processes] == [0, 0]

    def test_worker_dead_while_idle_is_respawned(self, counting):
        """A worker killed between cells is replaced at the slot's next
        launch; no cell fails because of it."""
        import signal

        def kill_first_worker(line):
            first = counting.processes[0]
            if "makespan" in line and first.is_alive():
                os.kill(first.pid, signal.SIGKILL)
                first.join()

        runner = SupervisedRunner(max_workers=1)
        results = runner.run(MINI_GRID[:3], progress=kill_first_worker)
        assert _dicts(results) == _dicts(SerialRunner().run(MINI_GRID[:3]))
        assert len(counting.processes) == 2
        counters = runner.metrics.snapshot()["counters"]
        assert "runner.retries" not in counters

    def test_unreaped_idle_death_does_not_sink_the_sweep(self, counting):
        """Killed without waiting, the worker may still look alive when
        the next cell is sent; either way the sweep completes."""
        import signal

        def kill_workers(line):
            if "makespan" in line:
                for process in counting.processes:
                    if process.is_alive():
                        os.kill(process.pid, signal.SIGKILL)

        runner = SupervisedRunner(max_workers=1)
        results = runner.run(MINI_GRID[:3], progress=kill_workers)
        assert _dicts(results) == _dicts(SerialRunner().run(MINI_GRID[:3]))
        assert not runner.quarantined
        assert not any(p.is_alive() for p in counting.processes)

    def test_one_worker_identical_to_serial(self):
        runner = SupervisedRunner(max_workers=1)
        assert _dicts(runner.run(MINI_GRID[:2])) == _dicts(
            SerialRunner().run(MINI_GRID[:2])
        )

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="speedup is only a contract at >= 4 host cores",
    )
    def test_speedup_at_four_cores(self):
        import time

        grid = [
            ExperimentSpec(workload, backend, n_threads, scale=0.4, seed=1)
            for workload in ("kmeans", "vacation", "ssca2", "genome")
            for backend in ("TinySTM", "ROCoCoTM")
            for n_threads in (4, 8)
        ]
        started = time.perf_counter()
        serial = SerialRunner().run(grid)
        serial_s = time.perf_counter() - started
        started = time.perf_counter()
        pooled = SupervisedRunner(max_workers=0).run(grid)
        pooled_s = time.perf_counter() - started
        assert _dicts(serial) == _dicts(pooled)
        assert serial_s / pooled_s > 1.5

    def test_cache_short_circuits_workers(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = SupervisedRunner(max_workers=2, cache=cache).run(MINI_GRID)
        assert cache.misses == len(MINI_GRID)
        rerun = SupervisedRunner(max_workers=2, cache=cache)
        assert _dicts(rerun.run(MINI_GRID)) == _dicts(first)
        assert cache.hits == len(MINI_GRID)
        assert "runner.cells" not in rerun.metrics.snapshot()["counters"]


class TestDefaultRunner:
    def test_jobs_semantics(self):
        assert isinstance(default_runner(None), SerialRunner)
        assert isinstance(default_runner(1), SerialRunner)
        pool = default_runner(3)
        assert isinstance(pool, SupervisedRunner)
        assert pool.max_workers == 3
        assert pool.policy == SupervisorPolicy()
        assert pool.journal_path is None and pool.worker_faults is None
        sized = default_runner(0)
        assert isinstance(sized, SupervisedRunner)
        assert sized.max_workers == multiprocessing.cpu_count()

    @pytest.mark.parametrize(
        "keywords",
        [
            {"jobs": -3},
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"timeout": float("nan")},
            {"max_retries": -2},
        ],
        ids=["jobs", "timeout-zero", "timeout-negative", "timeout-nan", "retries"],
    )
    def test_invalid_values_refused(self, keywords):
        with pytest.raises(ValueError):
            default_runner(**keywords)

    def test_any_supervision_keyword_supervises(self, tmp_path):
        from repro.faults import WorkerFaultPlan

        for keywords in (
            {"timeout": 30.0},
            {"max_retries": 0},
            {"resume": str(tmp_path / "sweep.jsonl")},
            {"worker_faults": WorkerFaultPlan.parse("crash@0")},
        ):
            runner = default_runner(2, **keywords)
            assert isinstance(runner, SupervisedRunner), keywords
            assert runner.max_workers == 2
        runner = default_runner(None, timeout=30.0, max_retries=0)
        assert runner.max_workers == 1
        assert (runner.policy.timeout_s, runner.policy.max_retries) == (30.0, 0)
        assert not runner.resume
        journaled = default_runner(None, resume=str(tmp_path / "sweep.jsonl"))
        assert journaled.resume and journaled.policy.max_retries == 2
