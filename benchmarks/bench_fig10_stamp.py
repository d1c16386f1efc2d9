"""Figure 10 + §6.3 headline — STAMP speedups and abort rates.

For every application: speedup over the sequential baseline (solid
lines of Fig. 10) and abort rate (dashed lines; ROCoCoTM's FPGA-side
aborts are the dotted lines) for TinySTM, TSX and ROCoCoTM across
{1, 4, 8, 14, 28} threads.  A final summary prints the geomean
speedup ratios the abstract headlines.

Paper's shapes to compare against:
* TSX is the best system at 4 threads, then hits an abort avalanche
  (83.3% ceiling, footnote 10) and collapses;
* ROCoCoTM trails TinySTM at 1 thread (paper: 1.32x slower) and
  overtakes it by 14-28 threads (paper: 1.41x / 1.55x geomean);
* ssca2 is the exception: tiny transactions cannot amortize the
  out-of-core validation, so ROCoCoTM scales poorly there;
* most ROCoCoTM aborts fail fast on the CPU (FPGA-side abort share is
  small).
"""

import os
import time

import pytest

from repro.bench import FIG10_THREADS, matrix_from_results, matrix_specs, print_table
from repro.exec import ResultCache, default_runner, write_bench_stamp
from repro.stamp import ALL_WORKLOADS

SCALE = 0.5
SEED = 1


@pytest.fixture(scope="module")
def matrix():
    """The full grid via the exec layer.

    Environment knobs (all optional; defaults reproduce the old serial
    behavior exactly — results are bit-identical either way):

    * ``REPRO_BENCH_JOBS``  — shard cells across N worker processes
      (0 = one per core) with :class:`~repro.exec.SupervisedRunner`;
    * ``REPRO_BENCH_CACHE`` — content-addressed result-cache directory;
    * ``REPRO_BENCH_STAMP`` — write machine-readable sweep results
      (specs, cells, wall-clock, cache hit rate) to this path;
    * ``REPRO_BENCH_TIMEOUT`` / ``REPRO_BENCH_RETRIES`` /
      ``REPRO_BENCH_RESUME`` — the supervised runner's per-cell
      deadline (seconds), retries before quarantine, and
      crash-resumable journal path; any of them supervises the sweep
      even without ``REPRO_BENCH_JOBS`` (see docs/EXECUTION.md).  A
      cell quarantined after its retries fails the figure's asserts.
    """
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    cache_dir = os.environ.get("REPRO_BENCH_CACHE")
    cache = ResultCache(cache_dir) if cache_dir else None
    timeout = os.environ.get("REPRO_BENCH_TIMEOUT")
    retries = os.environ.get("REPRO_BENCH_RETRIES")
    runner = default_runner(
        jobs,
        cache=cache,
        timeout=float(timeout) if timeout else None,
        max_retries=int(retries) if retries else None,
        resume=os.environ.get("REPRO_BENCH_RESUME") or None,
    )
    specs = matrix_specs(scale=SCALE, seed=SEED)
    started = time.perf_counter()
    results = runner.run(specs)
    wall_clock_s = time.perf_counter() - started
    grid = matrix_from_results(specs, results)
    stamp_path = os.environ.get("REPRO_BENCH_STAMP")
    if stamp_path:
        write_bench_stamp(stamp_path, grid, specs, wall_clock_s, runner, cache)
    return grid


@pytest.mark.parametrize("workload_cls", ALL_WORKLOADS, ids=lambda w: w.name)
def test_fig10_application(benchmark, matrix, workload_cls):
    name = workload_cls.name
    rows = []
    for backend in ("TinySTM", "TSX", "ROCoCoTM"):
        for n_threads in FIG10_THREADS:
            cell = matrix.get(name, backend, n_threads)
            rows.append(
                [
                    backend,
                    n_threads,
                    cell.speedup,
                    cell.abort_rate,
                    cell.fpga_abort_rate if backend == "ROCoCoTM" else "",
                ]
            )
    print_table(
        ["system", "threads", "speedup", "abort rate", "fpga aborts"],
        rows,
        title=f"Figure 10 — {name} (scale={SCALE})",
    )

    # Timing target: one representative high-thread-count run.
    from repro.runtime import RococoTMBackend
    from repro.stamp import run_stamp

    benchmark.pedantic(
        lambda: run_stamp(workload_cls, RococoTMBackend(), 8, scale=SCALE, seed=SEED),
        rounds=1,
        iterations=1,
    )

    # Shape: ROCoCoTM's FPGA-side aborts are a minority of its aborts
    # (most conflicts fail fast on the CPU, §6.3).  Only meaningful
    # with enough transactions — labyrinth has a couple dozen routes
    # at this scale, and its conflicts are genuine write-write cycles
    # only the validator can see.
    for n_threads in (14, 28):
        cell = matrix.get(name, "ROCoCoTM", n_threads)
        if cell.abort_rate > 0.02 and cell.commits + cell.aborts >= 100:
            assert cell.fpga_abort_rate <= 0.7 * cell.abort_rate + 0.05, name


def test_geomean_headline(benchmark, matrix):
    """The abstract's numbers: 1.55x vs TinySTM and 8.05x vs TSX at 28
    threads (1.41x / 4.04x at 14)."""

    def compute():
        rows = []
        for n_threads in FIG10_THREADS:
            vs_tiny = matrix.geomean_ratio("ROCoCoTM", "TinySTM", n_threads)
            vs_tsx = matrix.geomean_ratio("ROCoCoTM", "TSX", n_threads)
            rows.append([n_threads, vs_tiny, vs_tsx])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        ["threads", "ROCoCoTM/TinySTM", "ROCoCoTM/TSX"],
        rows,
        title="§6.3 geomean speedup ratios "
        "(paper @14t: 1.41 / 4.04; @28t: 1.55 / 8.05; @1t: 1/1.32 = 0.76 vs TinySTM)",
    )

    at = {r[0]: (r[1], r[2]) for r in rows}
    # 1 thread: TinySTM ahead (communication latency dominates).
    assert at[1][0] < 1.0
    # Crossover: ROCoCoTM gains on TinySTM monotonically with threads
    # and is ahead at 28.
    assert at[28][0] > at[4][0]
    assert at[28][0] > 1.2
    # TSX: strong early, collapsed by 28 threads.
    assert at[4][1] < 1.0
    assert at[28][1] > 1.5


def test_ssca2_exception(benchmark, matrix):
    """§6.3: ssca2's tiny transactions cannot amortize the out-of-core
    round trip, so ROCoCoTM scales worst there."""
    ssca2 = benchmark.pedantic(
        lambda: matrix.get("ssca2", "ROCoCoTM", 28).speedup
        / matrix.get("ssca2", "TinySTM", 28).speedup,
        rounds=1,
        iterations=1,
    )
    others = [
        matrix.get(w, "ROCoCoTM", 28).speedup / matrix.get(w, "TinySTM", 28).speedup
        for w in matrix.workloads()
        if w != "ssca2"
    ]
    assert ssca2 < min(others), "ssca2 should be ROCoCoTM's worst case"
