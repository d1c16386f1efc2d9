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

Two runners exist: :class:`SerialRunner` here, the reference every
bit-identity test compares against, and
:class:`~repro.exec.supervise.SupervisedRunner`, the only multi-process
runner (long-lived worker slots with deadlines, retries and
quarantine).  :func:`default_runner` picks between them.
"""

from __future__ import annotations

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
        misses: List[int] = []
        for index, spec in enumerate(specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is None:
                misses.append(index)
                continue
            results[index] = cached
            if progress is not None:
                progress(f"{spec.label()} [cached]")
        self._execute(specs, misses, results, progress)
        return results  # type: ignore[return-value]

    def _execute(
        self,
        specs: List[ExperimentSpec],
        misses: List[int],
        results: List[Optional[RunStats]],
        progress: Progress,
    ) -> None:
        """Fill ``results[i]`` for every cache miss ``i`` in *misses*."""
        raise NotImplementedError

    def _finish(self, spec: ExperimentSpec, stats: RunStats, progress: Progress) -> None:
        """Cache one freshly executed cell and report it."""
        if self.cache is not None:
            self.cache.put(spec, stats)
        if progress is not None:
            progress(f"{spec.label()} makespan={stats.makespan_ns / 1e6:.3f} ms")


class SerialRunner(Runner):
    """One cell after another, in the calling process."""

    name = "serial"

    def _execute(self, specs, misses, results, progress) -> None:
        for index in misses:
            results[index] = stats = specs[index].execute()
            self._finish(specs[index], stats, progress)


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

    ``jobs`` None/1 with no supervision keyword -> serial.  Anything
    else -> a :class:`~repro.exec.supervise.SupervisedRunner` with
    ``jobs`` worker slots (None/1 -> one, 0 -> one per host core), whose
    policy the keywords fill in: per-cell *timeout* (seconds),
    *max_retries* before quarantine (policy default when None), a
    *resume* journal path, and a *worker_faults* plan
    (:class:`~repro.faults.WorkerFaultPlan`).  Invalid values (negative
    ``jobs``, a timeout <= 0, negative retries) raise ValueError.
    """
    supervised = (
        timeout is not None or max_retries is not None or resume or worker_faults is not None
    )
    if jobs in (None, 1) and not supervised:
        return SerialRunner(cache=cache)
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
