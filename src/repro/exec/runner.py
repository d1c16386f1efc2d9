"""Runners: execute a batch of :class:`ExperimentSpec` cells.

The contract every runner honors:

* **Determinism** — ``run(specs)`` returns one :class:`RunStats` per
  spec, *in input order*, and the results are bit-identical whichever
  runner produced them.  Each spec is a self-contained deterministic
  simulation (its own Memory, its own seeded RNGs), so sharding cells
  across processes cannot change any cell's outcome — only the
  wall-clock time to produce them all.
* **Cache transparency** — give a runner a
  :class:`~repro.exec.cache.ResultCache` and it executes only the
  misses, filling hits from disk; the returned list is the same either
  way.
* **Graceful degradation** — :class:`ProcessPoolRunner` prefers
  ``fork`` (cheap), accepts ``spawn`` (workers rebuild specs from
  plain dicts, so nothing unpicklable crosses the boundary), and falls
  back to in-process serial execution when multiprocessing is
  unavailable or the pool dies.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Dict, List, Optional, Sequence

from ..runtime import RunStats
from .cache import ResultCache
from .spec import ExperimentSpec

Progress = Optional[Callable[[str], None]]


def run_payload(payload: Dict) -> Dict:
    """Execute one spec given (and returning) plain dicts.

    Module-level and dict-in/dict-out on purpose: picklable under the
    ``spawn`` start method, and immune to any divergence between the
    parent's and the worker's in-memory objects.
    """
    spec = ExperimentSpec.from_dict(payload)
    return spec.execute().to_dict()


class Runner:
    """Shared cache-aware driving; subclasses supply ``_execute``."""

    name = "abstract"

    def __init__(self, cache: Optional[ResultCache] = None):
        self.cache = cache

    def run(
        self, specs: Sequence[ExperimentSpec], progress: Progress = None
    ) -> List[RunStats]:
        specs = list(specs)
        results: List[Optional[RunStats]] = [None] * len(specs)
        miss_indices: List[int] = []
        for index, spec in enumerate(specs):
            if self.cache is not None:
                cached = self.cache.get(spec)
                if cached is not None:
                    results[index] = cached
                    if progress is not None:
                        progress(f"{spec.label()} [cached]")
                    continue
            miss_indices.append(index)
        fresh = self._execute([specs[i] for i in miss_indices], progress)
        for index, stats in zip(miss_indices, fresh):
            results[index] = stats
            if self.cache is not None:
                self.cache.put(specs[index], stats)
        return results  # type: ignore[return-value]

    def _execute(
        self, specs: List[ExperimentSpec], progress: Progress
    ) -> List[RunStats]:
        raise NotImplementedError


class SerialRunner(Runner):
    """One cell after another, in the calling process."""

    name = "serial"

    def _execute(
        self, specs: List[ExperimentSpec], progress: Progress
    ) -> List[RunStats]:
        results = []
        for spec in specs:
            stats = spec.execute()
            results.append(stats)
            if progress is not None:
                progress(f"{spec.label()} makespan={stats.makespan_ns / 1e6:.3f} ms")
        return results


def _pick_context():
    """The cheapest available start method (fork > spawn > None)."""
    methods = multiprocessing.get_all_start_methods()
    for method in ("fork", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None


class ProcessPoolRunner(Runner):
    """Shards cells across host cores; bit-identical to serial.

    Cells are submitted as individual ``apply_async`` handles and
    collected in input order, so the merge is deterministic regardless
    of which worker finished first.  A *pool-level* failure (broken
    pipe, lost worker, pool that cannot be built) salvages every cell
    whose result already arrived and reruns only the missing ones in
    this process — recorded in :attr:`fallback_reason` so harnesses can
    report it.  Cell-level exceptions raised by the workload itself
    propagate unchanged; for deadlines, retries and quarantine see
    :class:`~repro.exec.supervise.SupervisedRunner`.
    """

    name = "process-pool"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
    ):
        super().__init__(cache=cache)
        cpus = multiprocessing.cpu_count()
        self.max_workers = max(1, max_workers if max_workers is not None else cpus)
        self.fallback_reason: Optional[str] = None

    def _execute(
        self, specs: List[ExperimentSpec], progress: Progress
    ) -> List[RunStats]:
        if len(specs) <= 1 or self.max_workers == 1:
            return SerialRunner()._execute(specs, progress)
        context = _pick_context()
        if context is None:
            self.fallback_reason = "no multiprocessing start method"
            return SerialRunner()._execute(specs, progress)
        payloads = [spec.canonical() for spec in specs]
        workers = min(self.max_workers, len(specs))
        raw: List[Optional[Dict]] = [None] * len(specs)
        try:
            pool = context.Pool(processes=workers)
        except OSError as failure:  # can't even build a pool: run here.
            self.fallback_reason = f"{type(failure).__name__}: {failure}"
            return SerialRunner()._execute(specs, progress)
        try:
            # One handle per cell (not one bulk map): when the pool
            # dies mid-sweep, every cell that already finished is
            # salvaged and only the missing ones rerun serially.
            handles = [pool.apply_async(run_payload, (p,)) for p in payloads]
            for index, handle in enumerate(handles):
                try:
                    if self.fallback_reason is None:
                        raw[index] = handle.get()
                    elif handle.ready():
                        # The pool is dead, but this cell's result was
                        # delivered before it died: keep it.
                        raw[index] = handle.get()
                except (OSError, RuntimeError, EOFError, BrokenPipeError) as failure:
                    # Pool-level death (broken pipe, lost worker, …) —
                    # cell-level exceptions from run_payload propagate.
                    if self.fallback_reason is None:
                        self.fallback_reason = f"{type(failure).__name__}: {failure}"
        finally:
            pool.terminate()
            pool.join()
        results: List[RunStats] = []
        salvaged = 0
        for spec, entry in zip(specs, raw):
            if entry is None:
                stats = spec.execute()
            else:
                stats = RunStats.from_dict(entry)
                salvaged += 1
            results.append(stats)
            if progress is not None:
                progress(
                    f"{spec.label()} makespan={stats.makespan_ns / 1e6:.3f} ms"
                )
        if self.fallback_reason is not None and salvaged:
            self.fallback_reason += f" (salvaged {salvaged} completed cells)"
        return results


def default_runner(
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    *,
    timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    resume: Optional[str] = None,
    worker_faults=None,
) -> Runner:
    """The runner choice shared by the CLI and benchmarks.

    Any supervision keyword set -> a
    :class:`~repro.exec.supervise.SupervisedRunner`: per-cell *timeout*
    (seconds), *max_retries* before quarantine (policy default when
    None), a *resume* journal path, and a *worker_faults* plan
    (:class:`~repro.faults.WorkerFaultPlan`).  Otherwise ``jobs``
    decides: None/1 -> serial; N > 1 -> a pool of N; 0 -> a pool sized
    to the host.  A supervised runner reads ``jobs`` the same way.
    """
    if timeout is not None or max_retries is not None or resume or worker_faults is not None:
        from .supervise import SupervisedRunner, SupervisorPolicy

        policy = {"timeout_s": timeout, "max_retries": max_retries}
        return SupervisedRunner(
            max_workers=jobs,
            cache=cache,
            policy=SupervisorPolicy(
                **{name: value for name, value in policy.items() if value is not None}
            ),
            journal=resume,
            resume=bool(resume),
            worker_faults=worker_faults,
        )
    if jobs is None or jobs == 1:
        return SerialRunner(cache=cache)
    return ProcessPoolRunner(max_workers=jobs or None, cache=cache)
