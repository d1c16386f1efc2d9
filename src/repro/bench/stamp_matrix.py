"""The Fig. 10 / Fig. 11 harness: the STAMP x backend x threads grid.

Since the exec-layer refactor the harness no longer runs anything
itself: it *names* the grid as :class:`~repro.exec.ExperimentSpec`
values and hands the batch to a :class:`~repro.exec.Runner` — serial
by default, the supervised multi-process runner when the caller wants
the cores, cache-aware when given a :class:`~repro.exec.ResultCache`.
Cell values are identical whichever runner executes them (each spec
is a self-contained deterministic simulation; see docs/EXECUTION.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..exec import ExperimentSpec, Runner, SerialRunner
from ..exec.cache import ResultCache
from ..runtime import (
    RococoTMBackend,
    RunStats,
    TinySTMBackend,
    TsxBackend,
    geomean,
)
from ..stamp import ALL_WORKLOADS, StampWorkload

FIG10_THREADS = (1, 4, 8, 14, 28)
FIG10_BACKENDS: Tuple[Callable[[], object], ...] = (
    TinySTMBackend,
    TsxBackend,
    RococoTMBackend,
)


@dataclass(frozen=True)
class Cell:
    """One (workload, backend, threads) measurement."""

    workload: str
    backend: str
    n_threads: int
    speedup: float
    abort_rate: float
    fpga_abort_rate: float
    mean_validation_us: float
    commits: int
    aborts: int


@dataclass
class StampMatrix:
    cells: List[Cell] = field(default_factory=list)

    def __post_init__(self):
        self._reindex()

    def _reindex(self) -> None:
        self._index: Dict[Tuple[str, str, int], Cell] = {
            (c.workload, c.backend, c.n_threads): c for c in self.cells
        }

    def add(self, cell: Cell) -> None:
        self.cells.append(cell)
        self._index[(cell.workload, cell.backend, cell.n_threads)] = cell

    def get(self, workload: str, backend: str, n_threads: int) -> Cell:
        # ``geomean_ratio`` calls this in a double loop; the dict index
        # replaces the old O(cells) scan.  Rebuild lazily if cells were
        # appended behind our back (direct list mutation).
        if len(self._index) != len(self.cells):
            self._reindex()
        try:
            return self._index[(workload, backend, n_threads)]
        except KeyError:
            raise KeyError((workload, backend, n_threads)) from None

    def workloads(self) -> List[str]:
        return sorted({c.workload for c in self.cells})

    def geomean_speedup(self, backend: str, n_threads: int) -> float:
        return geomean(
            c.speedup
            for c in self.cells
            if c.backend == backend and c.n_threads == n_threads
        )

    def geomean_ratio(self, numerator: str, denominator: str, n_threads: int) -> float:
        """Geomean per-workload speedup ratio (the §6.3 headline)."""
        return geomean(
            self.get(w, numerator, n_threads).speedup
            / self.get(w, denominator, n_threads).speedup
            for w in self.workloads()
        )


def _backend_spec_name(factory: Callable[[], object]) -> str:
    """Resolve a backend factory to its exec-registry key."""
    name = getattr(factory, "name", None)
    if isinstance(name, str):
        return name
    return factory().name  # instantiate once to ask (non-class factory)


def _cell_from(stats: RunStats, baseline: RunStats, n_threads: int) -> Cell:
    return Cell(
        workload=stats.workload,
        backend=stats.backend,
        n_threads=n_threads,
        speedup=baseline.makespan_ns / stats.makespan_ns,
        abort_rate=stats.abort_rate,
        fpga_abort_rate=stats.fpga_abort_rate,
        mean_validation_us=stats.mean_validation_us,
        commits=stats.commits,
        aborts=stats.aborts,
    )


def matrix_specs(
    workloads: Sequence[Type[StampWorkload]] = ALL_WORKLOADS,
    backends: Sequence[Callable[[], object]] = FIG10_BACKENDS,
    threads: Sequence[int] = FIG10_THREADS,
    scale: float = 0.5,
    seed: int = 1,
    verify: bool = True,
    obs: bool = False,
    shards: int = 1,
) -> List[ExperimentSpec]:
    """The grid as specs: per workload, one sequential baseline cell
    followed by every (backend, threads) cell, in deterministic order.

    ``shards`` applies to ClusterTM cells only (every other backend is
    single-node by definition)."""
    specs: List[ExperimentSpec] = []
    backend_names = [_backend_spec_name(factory) for factory in backends]
    for workload_cls in workloads:
        specs.append(
            ExperimentSpec(
                workload_cls.name, "sequential", 1,
                scale=scale, seed=seed, verify=verify, obs=obs,
            )
        )
        for backend in backend_names:
            cell_shards = shards if backend == "ClusterTM" else 1
            for n_threads in threads:
                specs.append(
                    ExperimentSpec(
                        workload_cls.name, backend, n_threads,
                        scale=scale, seed=seed, verify=verify, obs=obs,
                        shards=cell_shards,
                    )
                )
    return specs


def matrix_from_results(
    specs: Sequence[ExperimentSpec], results: Sequence[RunStats]
) -> StampMatrix:
    """Assemble cells, pairing each cell with its workload's
    sequential baseline (specs as produced by :func:`matrix_specs`).

    A ``None`` entry in *results* is a quarantined cell (see
    :class:`~repro.exec.SupervisedRunner`): it is skipped, and when the
    missing cell is a workload's sequential *baseline*, every dependent
    speedup cell is skipped with it — a partial matrix, never a crash.
    """
    matrix = StampMatrix()
    baselines: Dict[str, RunStats] = {}
    for spec, stats in zip(specs, results):
        if stats is None:
            continue
        if spec.backend == "sequential":
            baselines[spec.workload] = stats
            continue
        baseline = baselines.get(spec.workload)
        if baseline is None:
            continue
        matrix.add(_cell_from(stats, baseline, spec.n_threads))
    return matrix


def run_matrix(
    workloads: Sequence[Type[StampWorkload]] = ALL_WORKLOADS,
    backends: Sequence[Callable[[], object]] = FIG10_BACKENDS,
    threads: Sequence[int] = FIG10_THREADS,
    scale: float = 0.5,
    seed: int = 1,
    verify: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    runner: Optional[Runner] = None,
    cache: Optional[ResultCache] = None,
) -> StampMatrix:
    """Run the full grid; speedups are vs the sequential baseline.

    ``runner`` defaults to :class:`~repro.exec.SerialRunner`; pass a
    :class:`~repro.exec.SupervisedRunner` to shard cells across host
    cores (results are bit-identical; a quarantined cell is left out,
    see :func:`matrix_from_results`).  ``cache`` is only consulted
    when the caller did not bring a runner of their own.
    """
    if runner is None:
        runner = SerialRunner(cache=cache)
    specs = matrix_specs(
        workloads=workloads, backends=backends, threads=threads,
        scale=scale, seed=seed, verify=verify,
    )
    results = runner.run(specs, progress=progress)
    return matrix_from_results(specs, results)


def validation_overhead_rows(
    workloads: Sequence[Type[StampWorkload]],
    n_threads: int = 14,
    scale: float = 0.5,
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> List[Dict]:
    """Fig. 11: amortized per-transaction validation time (us).

    A workload whose TinySTM or ROCoCoTM cell came back ``None``
    (quarantined by :class:`~repro.exec.SupervisedRunner`) has no row.
    """
    if runner is None:
        runner = SerialRunner()
    specs = [
        ExperimentSpec(workload_cls.name, backend, n_threads, scale=scale, seed=seed)
        for workload_cls in workloads
        for backend in ("TinySTM", "ROCoCoTM")
    ]
    results = runner.run(specs)
    rows: List[Dict] = []
    for workload_cls, pair in zip(workloads, zip(results[::2], results[1::2])):
        if any(stats is None for stats in pair):
            continue
        row = {"workload": workload_cls.name}
        for stats in pair:
            row[stats.backend] = stats.mean_validation_us
        rows.append(row)
    return rows
