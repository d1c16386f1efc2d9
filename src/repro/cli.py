"""Command-line interface: regenerate paper figures from the shell.

Examples::

    python -m repro list
    python -m repro fig7
    python -m repro fig9 --threads 16 --seeds 10
    python -m repro fig10 --scale 0.35 --workloads kmeans vacation
    python -m repro fig10 --jobs 0 --cache .bench-cache --stamp-json BENCH_stamp.json
    python -m repro fig11
    python -m repro resources --window 128 --bits 1024
    python -m repro stamp vacation ROCoCoTM --threads 14
    python -m repro stamp kmeans ROCoCoTM --faults mixed
    python -m repro chaos kmeans --schedule all --sanitize
    python -m repro sanitize vacation ROCoCoTM --faults stall

    python -m repro trace vacation ROCoCoTM --out trace.json
    python -m repro metrics kmeans ROCoCoTM --faults mixed --json

Each subcommand prints the rows/series of the corresponding figure or
table; see ``benchmarks/`` for the asserted pytest-benchmark variants.

Exit codes: 0 success, 1 failure (violations found, run error), 2
usage error, 3 completed-with-quarantined-cells (supervised sweeps
only: every healthy cell ran, but one or more poison cells were
quarantined after exhausting their retries — diagnostics on stderr).
Parse errors exit through argparse; every error *after* parsing is
converted to a return code by :func:`main`, never an uncaught
traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .bench import (
    DEGRADATION_HEADERS,
    FIG10_BACKENDS,
    FIG10_THREADS,
    degradation_row,
    figure9_sweep,
    matrix_from_results,
    matrix_specs,
    print_table,
    validation_overhead_rows,
)
from .exec import (
    BACKEND_REGISTRY,
    WORKLOAD_REGISTRY,
    ExperimentSpec,
    ResultCache,
    SerialRunner,
    default_runner,
    write_bench_stamp,
)
from .exec.stampfile import source_date_epoch
from .faults import BUILTIN_SCHEDULES
from .stamp import ALL_WORKLOADS, CONTENTION_VARIANTS, EXTRA_WORKLOADS

#: the CLI's vocabularies are the exec layer's registries — one source
#: of truth for what a workload/backend name means everywhere.
BACKENDS = BACKEND_REGISTRY
WORKLOADS = WORKLOAD_REGISTRY

#: supervised sweep finished, but some cells were quarantined.
EXIT_QUARANTINED = 3

#: tolerated spellings for registry keys (external tooling says
#: "stamp-vacation-low" where the registry says "vacation").
WORKLOAD_ALIASES = {
    "vacation-low": "vacation",
    "kmeans-high": "kmeans",
}


def _resolve_workload(name: str) -> str:
    """Map a user-facing workload spelling onto its registry key."""
    key = name.lower()
    if key.startswith("stamp-"):
        key = key[len("stamp-"):]
    key = WORKLOAD_ALIASES.get(key, key)
    if key not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {name!r}; choose from: "
            + ", ".join(sorted(WORKLOADS))
        )
    return key


def _resolve_backend(name: str) -> str:
    """Case-insensitive backend lookup (``rococotm`` -> ``ROCoCoTM``)."""
    by_lower = {key.lower(): key for key in BACKENDS}
    key = by_lower.get(name.lower())
    if key is None:
        raise SystemExit(
            f"unknown backend {name!r}; choose from: "
            + ", ".join(sorted(BACKENDS))
        )
    return key


def _make_backend(
    name: str,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    shards: int = 1,
):
    """A backend instance, optionally sharded and/or under faults."""
    if shards > 1 and name != "ClusterTM":
        raise SystemExit(
            f"--shards {shards} requires the ClusterTM backend "
            f"(got {name})"
        )
    if name == "ClusterTM":
        from .cluster import ClusterTMBackend

        return ClusterTMBackend(
            shards=shards, faults=faults or None, fault_seed=fault_seed
        )
    if faults:
        if name != "ROCoCoTM":
            raise SystemExit(
                "--faults injects into the FPGA validation path and "
                "requires the ROCoCoTM or ClusterTM backend"
            )
        from .faults import build_chaos_backend

        return build_chaos_backend(faults, fault_seed)
    return BACKENDS[name]()


def _env_default(name: str, cast):
    """An ``REPRO_BENCH_*`` env value as a flag default, or None."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return cast(raw)
    except ValueError:
        raise SystemExit(f"bad {name}={raw!r}: expected {cast.__name__}") from None


def add_supervision_args(sub_parser) -> None:
    """The supervised-execution flags shared by stamp/chaos/fig10.

    Defaults honor the ``REPRO_BENCH_*`` env conventions the
    benchmarks already use, so CI can steer supervision without
    editing command lines.
    """
    group = sub_parser.add_argument_group(
        "supervision",
        "any of these flags routes the sweep through SupervisedRunner "
        "(deadlines, retries, quarantine, crash-resumable journal); "
        "exit 3 = completed with quarantined cells",
    )
    group.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        default=_env_default("REPRO_BENCH_TIMEOUT", float),
        help="per-cell wall-clock deadline (env: REPRO_BENCH_TIMEOUT)",
    )
    group.add_argument(
        "--max-retries",
        type=int,
        metavar="N",
        default=_env_default("REPRO_BENCH_RETRIES", int),
        help="retries per failing cell before quarantine "
        "(default 2; env: REPRO_BENCH_RETRIES)",
    )
    group.add_argument(
        "--resume",
        metavar="JOURNAL",
        default=os.environ.get("REPRO_BENCH_RESUME") or None,
        help="journal sweep progress to this fsynced JSONL WAL and, if "
        "it already holds compatible entries, serve them instead of "
        "re-executing (env: REPRO_BENCH_RESUME)",
    )
    group.add_argument(
        "--worker-faults",
        metavar="PLAN",
        default=os.environ.get("REPRO_BENCH_WORKER_FAULTS") or None,
        help="inject deterministic host-side worker faults, "
        "kind@cell[:attempt],... with kinds crash|hang|garbage|"
        "partial-write — chaos-tests the supervisor itself "
        "(env: REPRO_BENCH_WORKER_FAULTS)",
    )


def _supervised_runner(args, cache):
    """A :class:`SupervisedRunner` when any supervision flag is set,
    else None (callers keep their plain serial/pool runner)."""
    if (
        args.timeout is None
        and args.max_retries is None
        and not args.resume
        and not args.worker_faults
    ):
        return None
    from .exec import SupervisedRunner, SupervisorPolicy

    policy_kwargs = {}
    if args.timeout is not None:
        policy_kwargs["timeout_s"] = args.timeout
    if args.max_retries is not None:
        policy_kwargs["max_retries"] = args.max_retries
    worker_faults = None
    if args.worker_faults:
        from .faults import WorkerFaultPlan

        worker_faults = WorkerFaultPlan.parse(
            args.worker_faults, seed=getattr(args, "fault_seed", 0) or 0
        )
    return SupervisedRunner(
        max_workers=getattr(args, "jobs", None),
        cache=cache,
        policy=SupervisorPolicy(**policy_kwargs),
        journal=args.resume,
        resume=bool(args.resume),
        worker_faults=worker_faults,
    )


def _report_supervision(runner) -> int:
    """Summarize a supervised sweep on stderr; the exit code is 3 when
    cells were quarantined, else 0."""
    print(runner.summary(), file=sys.stderr)
    if not runner.quarantined:
        return 0
    for index in sorted(runner.quarantined):
        diag = runner.quarantined[index]
        spec = diag.get("spec", {})
        label = f"{spec.get('workload')}/{spec.get('backend')}@{spec.get('n_threads')}t"
        failures = diag.get("failures", [])
        kinds = ",".join(sorted({f.get("kind", "?") for f in failures}))
        print(
            f"quarantined cell {index} ({label}): "
            f"{diag.get('attempts', len(failures))} attempts, {kinds}",
            file=sys.stderr,
        )
    return EXIT_QUARANTINED


def _cmd_list(_args) -> int:
    print_table(
        ["workload", "transaction profile"],
        [[w.name, w.profile] for w in ALL_WORKLOADS + CONTENTION_VARIANTS + EXTRA_WORKLOADS],
        title="STAMP applications (+ contention variants)",
    )
    print_table(
        ["backend", "description"],
        [
            ["sequential", "uninstrumented single-thread baseline"],
            ["global-lock", "one mutex around every atomic block"],
            ["TinySTM", "LSA STM, commit-time locking, write-back"],
            ["TinySTM-ETL", "LSA STM, encounter-time locking variant"],
            ["TSX", "best-effort HTM, requester-wins + lock fallback"],
            ["ROCoCoTM", "the paper's hybrid CPU+FPGA system"],
            ["ClusterTM", "sharded scale-out ROCoCoTM (--shards N, 2PC)"],
            ["SI-MVCC", "multi-version snapshot isolation (anomalies!)"],
        ],
        title="TM systems",
    )
    return 0


def _cmd_fig7(_args) -> int:
    from .signatures import intersection_false_positive, query_false_positive

    rows = []
    for bits, k in ((256, 4), (512, 4), (512, 8), (1024, 8)):
        for n in (1, 2, 4, 8, 16, 32):
            rows.append(
                [
                    f"m={bits},k={k}",
                    n,
                    query_false_positive(n, bits, k),
                    intersection_false_positive(n, n, bits, k),
                ]
            )
    print_table(
        ["config", "n", "P(query FP)", "P(intersect FP)"],
        rows,
        title="Figure 7: bloom-filter false positivity (analytic model)",
    )
    return 0


def _cmd_fig9(args) -> int:
    points = figure9_sweep(
        threads=(args.threads,), seeds=args.seeds, n_txns=args.txns
    )
    by_n = {}
    for p in points:
        by_n.setdefault(p.ops_per_txn, {"collision": p.collision_rate})[
            p.algorithm
        ] = p.abort_rate
    print_table(
        ["N", "collision", "2PL", "TOCC", "ROCoCo"],
        [
            [n, c["collision"], c["2PL"], c["TOCC"], c["ROCoCo"]]
            for n, c in sorted(by_n.items())
        ],
        title=f"Figure 9 (T={args.threads}): abort rate vs collision rate",
    )
    return 0


def _cmd_fig10(args) -> int:
    # Wall-clock here times the *sweep harness* (operator-facing ETA),
    # never the simulated experiments, which run on virtual time.
    import time  # tm: ignore[TM101]

    if args.stamp_json:
        # Refuse a malformed pin before the sweep, not after it.
        try:
            source_date_epoch()
        except ValueError as bad:
            print(f"fig10: {bad}", file=sys.stderr)
            return 2
    workloads = [WORKLOADS[name] for name in args.workloads] if args.workloads else ALL_WORKLOADS
    cache = ResultCache(args.cache) if args.cache else None
    supervised = _supervised_runner(args, cache)
    runner = supervised if supervised is not None else default_runner(args.jobs, cache=cache)
    shards = getattr(args, "shards", 1)
    fig_backends = ["TinySTM", "TSX", "ROCoCoTM"]
    backend_factories = list(FIG10_BACKENDS)
    if shards > 1:
        from .cluster import ClusterTMBackend

        fig_backends.append("ClusterTM")
        backend_factories.append(ClusterTMBackend)
    specs = matrix_specs(
        workloads=workloads, backends=tuple(backend_factories),
        threads=tuple(args.threads),
        scale=args.scale, seed=args.seed, obs=args.obs, shards=shards,
    )
    started = time.perf_counter()
    results = runner.run(
        specs,
        progress=(lambda msg: print("  " + msg, file=sys.stderr)) if args.verbose else None,
    )
    wall_clock_s = time.perf_counter() - started
    matrix = matrix_from_results(specs, results)
    if args.stamp_json:
        write_bench_stamp(
            args.stamp_json, matrix, specs, wall_clock_s, runner, cache,
            results=results if args.obs else None,
        )
        print(f"wrote {args.stamp_json}", file=sys.stderr)
    if cache is not None:
        print(
            f"cache: {cache.hits}/{cache.lookups} hits "
            f"({cache.hit_rate:.0%}) in {cache.root}",
            file=sys.stderr,
        )
    def cell_row(name, backend, nt):
        # A quarantined cell (supervised sweeps) leaves a hole in the
        # matrix; render it as "-" rather than crashing the table.
        try:
            cell = matrix.get(name, backend, nt)
        except KeyError:
            return [backend, nt, "-", "-"]
        return [backend, nt, cell.speedup, cell.abort_rate]

    def ratio(numerator, denominator, nt):
        try:
            return matrix.geomean_ratio(numerator, denominator, nt)
        except (KeyError, ZeroDivisionError):
            return "-"

    for name in matrix.workloads():
        rows = [
            cell_row(name, backend, nt)
            for backend in fig_backends
            for nt in args.threads
        ]
        print_table(
            ["system", "threads", "speedup", "abort rate"],
            rows,
            title=f"Figure 10 - {name}",
        )
    geo_rows = [
        [
            nt,
            ratio("ROCoCoTM", "TinySTM", nt),
            ratio("ROCoCoTM", "TSX", nt),
        ]
        for nt in args.threads
    ]
    print_table(
        ["threads", "ROCoCoTM/TinySTM", "ROCoCoTM/TSX"],
        geo_rows,
        title="Geomean speedup ratios (paper @28t: 1.55 / 8.05)",
    )
    if shards > 1:
        print_table(
            ["threads", "ClusterTM/ROCoCoTM"],
            [[nt, ratio("ClusterTM", "ROCoCoTM", nt)] for nt in args.threads],
            title=f"Cluster scale-out ratio ({shards} shards)",
        )
    if supervised is not None:
        return _report_supervision(supervised)
    return 0


def _cmd_fig11(args) -> int:
    workloads = [WORKLOADS[name] for name in args.workloads] if args.workloads else ALL_WORKLOADS
    rows = validation_overhead_rows(workloads, n_threads=args.threads, scale=args.scale)
    print_table(
        ["workload", "TinySTM us/txn", "ROCoCoTM us/txn"],
        [[r["workload"], r["TinySTM"], r["ROCoCoTM"]] for r in rows],
        title=f"Figure 11: per-transaction validation overhead ({args.threads} threads)",
    )
    return 0


def _cmd_resources(args) -> int:
    from .hw import estimate

    est = estimate(window=args.window, signature_bits=args.bits, partitions=args.partitions)
    print_table(
        ["resource", "used", "utilization"],
        [
            ["registers", est.registers, f"{est.register_pct:.1f}%"],
            ["ALMs", est.alms, f"{est.alm_pct:.2f}%"],
            ["DSPs", est.dsps, f"{est.dsp_pct:.1f}%"],
            ["BRAM bits", est.bram_bits, f"{est.bram_pct:.1f}%"],
            ["Fmax", f"{est.fmax_mhz:.0f} MHz", "fits" if est.fits else "DOES NOT FIT"],
        ],
        title=f"FPGA resources (W={args.window}, m={args.bits}, k={args.partitions})",
    )
    return 0


def _cmd_stamp(args) -> int:
    if args.faults and args.backend not in ("ROCoCoTM", "ClusterTM"):
        raise SystemExit(
            "--faults injects into the FPGA validation path and "
            "requires the ROCoCoTM or ClusterTM backend"
        )
    shards = getattr(args, "shards", 1) or 1
    if shards > 1 and args.backend != "ClusterTM":
        raise SystemExit(
            f"--shards {shards} requires the ClusterTM backend "
            f"(got {args.backend})"
        )
    spec = ExperimentSpec(
        args.workload,
        args.backend,
        1 if args.backend == "sequential" else args.threads,
        scale=args.scale,
        seed=args.seed,
        faults=args.faults,
        fault_seed=args.fault_seed,
        shards=shards,
    )
    cache = ResultCache(args.cache) if args.cache else None
    runner = _supervised_runner(args, cache)
    exit_code = 0
    if runner is None:
        [stats] = SerialRunner(cache=cache).run([spec])
    else:
        [stats] = runner.run([spec])
        exit_code = _report_supervision(runner)
        if stats is None:
            return exit_code
    print(stats.summary())
    if stats.validations:
        print(f"mean validation: {stats.mean_validation_us:.3f} us/txn")
    return exit_code


def _cmd_chaos(args) -> int:
    """Run the fault matrix on one workload; optionally sanitized."""
    from .faults import BUILTIN_SCHEDULES, chaos_sanitize

    workload_cls = WORKLOADS[args.workload]
    schedules = (
        list(BUILTIN_SCHEDULES) if "all" in args.schedule else args.schedule
    )
    shards = getattr(args, "shards", 1) or 1
    if shards > 1 and args.sanitize:
        raise SystemExit(
            "--sanitize replays through the single-node chaos harness; "
            "drop --shards or --sanitize"
        )
    rows = []
    violations = 0
    supervised = None
    if args.sanitize:
        for sched in schedules:
            [(_, report, backend)] = chaos_sanitize(
                workload_cls,
                [sched],
                n_threads=args.threads,
                scale=args.scale,
                seed=args.seed,
                fault_seed=args.fault_seed,
            )
            if not report.ok:
                violations += 1
                print(f"--- {sched}: SANITIZER VIOLATIONS ---", file=sys.stderr)
                print(report.summary(), file=sys.stderr)
            rows.append(
                [sched]
                + degradation_row(backend.stats)
                + ["ok" if report.ok else "FAIL"]
            )
    else:
        specs = [
            ExperimentSpec(
                args.workload,
                "ClusterTM" if shards > 1 else "ROCoCoTM",
                args.threads,
                scale=args.scale,
                seed=args.seed,
                faults=sched,
                fault_seed=args.fault_seed,
                irrevocable_after=args.irrevocable_after,
                shards=shards,
            )
            for sched in schedules
        ]
        cache = ResultCache(args.cache) if args.cache else None
        supervised = _supervised_runner(args, cache)
        runner = supervised if supervised is not None else default_runner(
            args.jobs, cache=cache
        )
        results = runner.run(specs)
        for sched, stats in zip(schedules, results):
            if stats is None:  # quarantined under supervision
                rows.append(
                    [sched] + ["-"] * len(DEGRADATION_HEADERS) + ["QUARANTINED"]
                )
            else:
                rows.append([sched] + degradation_row(stats) + ["-"])
    print_table(
        ["schedule"] + DEGRADATION_HEADERS + ["oracles"],
        rows,
        title=(
            f"Chaos matrix: {args.workload} @ {args.threads} threads "
            f"(scale {args.scale}, seed {args.seed}, fault seed {args.fault_seed})"
        ),
    )
    if violations:
        return 1
    if supervised is not None:
        return _report_supervision(supervised)
    return 0


def _cmd_sanitize(args) -> int:
    from .sanitizer import diff_backends
    from .sanitizer.dynamic import run_sanitized

    if args.self_check:
        from .sanitizer.selfcheck import run_self_check

        return 0 if run_self_check() else 1

    if not args.workload or not args.backend:
        print("sanitize: workload and backend are required (or --self-check)", file=sys.stderr)
        return 2

    workload_cls = WORKLOADS[args.workload]
    n_threads = 1 if args.backend == "sequential" else args.threads
    if args.diff:
        report = diff_backends(
            workload_cls,
            _make_backend(args.backend, args.faults, args.fault_seed),
            BACKENDS[args.diff](),
            n_threads,
            scale=args.scale,
            seed=args.seed,
            strict=args.strict_diff,
        )
    else:
        report, sanitized, _ = run_sanitized(
            workload_cls,
            _make_backend(args.backend, args.faults, args.fault_seed),
            n_threads,
            scale=args.scale,
            seed=args.seed,
        )
        if args.dump_log:
            with open(args.dump_log, "w") as sink:
                sink.write(sanitized.log.dump_jsonl() + "\n")
            print(f"event log ({len(sanitized.log)} events) -> {args.dump_log}")
    print(report.summary())
    return 0 if report.ok else 1


def _run_observed(args, trace: bool):
    """Shared trace/metrics driving: resolve names, run one observed cell."""
    from .obs import observe_stamp

    workload = _resolve_workload(args.workload)
    backend_name = _resolve_backend(args.backend)
    if args.faults and backend_name not in ("ROCoCoTM", "ClusterTM"):
        raise SystemExit(
            "--faults injects into the FPGA validation path and "
            "requires the ROCoCoTM or ClusterTM backend"
        )
    backend = _make_backend(
        backend_name, args.faults, args.fault_seed,
        shards=getattr(args, "shards", 1) or 1,
    )
    n_threads = 1 if backend_name == "sequential" else args.threads
    stats, tracer, registry = observe_stamp(
        WORKLOADS[workload],
        backend,
        n_threads,
        scale=args.scale,
        seed=args.seed,
        verify=not args.no_verify,
        trace=trace,
        detail=trace and not args.no_detail,
    )
    return workload, backend_name, n_threads, stats, tracer, registry


def _cmd_trace(args) -> int:
    from .obs import write_chrome_trace

    workload, backend_name, n_threads, stats, tracer, _ = _run_observed(
        args, trace=True
    )
    payload = write_chrome_trace(
        args.out,
        tracer,
        workload=workload,
        backend=backend_name,
        n_threads=n_threads,
        scale=args.scale,
        seed=args.seed,
        faults=args.faults,
    )
    print(stats.summary())
    print(
        f"trace: {len(tracer.spans)} spans, {len(tracer.markers)} markers, "
        f"{len(payload['traceEvents'])} trace events -> {args.out}"
    )
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_metrics(args) -> int:
    import json

    workload, backend_name, n_threads, stats, _, registry = _run_observed(
        args, trace=False
    )
    snapshot = registry.snapshot()
    if args.out:
        with open(args.out, "w") as sink:
            json.dump(snapshot, sink, indent=1, sort_keys=True)
            sink.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(snapshot, indent=1, sort_keys=True))
        return 0
    title = f"{workload}/{backend_name}@{n_threads}t (scale {args.scale}, seed {args.seed})"
    print_table(
        ["counter", "value"],
        [[name, value] for name, value in snapshot["counters"].items()],
        title=f"Counters: {title}",
    )
    if snapshot["gauges"]:
        print_table(
            ["gauge", "value"],
            [[name, value] for name, value in snapshot["gauges"].items()],
            title="Gauges",
        )
    hist_rows = []
    for name, hist in snapshot["histograms"].items():
        mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
        hist_rows.append([name, hist["count"], mean, hist["min"], hist["max"]])
    if hist_rows:
        print_table(
            ["histogram", "count", "mean", "min", "max"],
            hist_rows,
            title="Histograms",
        )
    return 0


def _cmd_analyze(args) -> int:
    import json as _json

    from .analysis import (
        analyze_paths_cached,
        apply_baseline,
        baseline_from,
        load_baseline,
        parse_rules,
    )
    from .analysis.findings import DEFAULT_BASELINE

    try:
        rules = parse_rules(args.rules)
    except ValueError as bad:
        print(f"analyze: {bad}", file=sys.stderr)
        return 2
    try:
        findings, files, cache_hit = analyze_paths_cached(
            args.paths, rules, cache_path=args.cache
        )
    except FileNotFoundError as missing:
        print(missing, file=sys.stderr)
        return 2

    baseline_path = args.baseline or DEFAULT_BASELINE
    if args.update_baseline:
        baseline_from(findings).dump(baseline_path)
        print(
            f"analyze: baselined {len(findings)} finding(s) "
            f"into {baseline_path}"
        )
        return 0

    baseline = None
    if not args.no_baseline:
        try:
            baseline = load_baseline(args.baseline)
        except FileNotFoundError:
            print(
                f"analyze: baseline {args.baseline!r} not found",
                file=sys.stderr,
            )
            return 2
    new, baselined = apply_baseline(findings, baseline)

    if args.format == "json":
        print(
            _json.dumps(
                {
                    "version": 1,
                    "files": files,
                    "cache_hit": cache_hit,
                    "findings": [f.to_dict() for f in new],
                    "baselined": [f.to_dict() for f in baselined],
                },
                indent=1,
                sort_keys=True,
            )
        )
    else:
        for finding in new:
            print(finding)
        summary = (
            f"{len(new)} finding(s) in {files} file(s) "
            f"({', '.join(args.paths)})"
        )
        if baselined:
            summary += f"; {len(baselined)} baselined"
        print(summary)
    return 1 if new else 0


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="ROCoCoTM reproduction harness"
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="available workloads and backends").set_defaults(
        func=_cmd_list
    )
    sub.add_parser("fig7", help="bloom-filter false positivity").set_defaults(
        func=_cmd_fig7
    )

    p9 = sub.add_parser("fig9", help="CC abort rates vs collision rate")
    p9.add_argument("--threads", type=int, default=16, choices=(4, 16))
    p9.add_argument("--seeds", type=int, default=20)
    p9.add_argument("--txns", type=int, default=120)
    p9.set_defaults(func=_cmd_fig9)

    p10 = sub.add_parser("fig10", help="STAMP speedups and abort rates")
    p10.add_argument("--scale", type=float, default=0.5)
    p10.add_argument("--seed", type=int, default=1)
    p10.add_argument("--threads", type=int, nargs="+", default=list(FIG10_THREADS))
    p10.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS))
    p10.add_argument("--verbose", action="store_true")
    p10.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="shard cells across N processes (0 = one per core); "
        "results are bit-identical to serial",
    )
    p10.add_argument(
        "--cache",
        metavar="DIR",
        help="content-addressed result cache: re-runs only execute changed cells",
    )
    p10.add_argument(
        "--stamp-json",
        metavar="PATH",
        help="write machine-readable sweep results (specs, cells, "
        "wall-clock, cache hit rate)",
    )
    p10.add_argument(
        "--obs",
        action="store_true",
        help="attach the metrics registry to every cell; snapshots land "
        "in the --stamp-json record (merged across shards)",
    )
    p10.add_argument(
        "--shards",
        type=int,
        default=_env_default("REPRO_SHARDS", int) or 1,
        help="add a ClusterTM column with this many shards "
        "(env REPRO_SHARDS; see docs/CLUSTER.md)",
    )
    add_supervision_args(p10)
    p10.set_defaults(func=_cmd_fig10)

    p11 = sub.add_parser("fig11", help="per-transaction validation overhead")
    p11.add_argument("--threads", type=int, default=14)
    p11.add_argument("--scale", type=float, default=0.5)
    p11.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS))
    p11.set_defaults(func=_cmd_fig11)

    pr = sub.add_parser("resources", help="FPGA resource/Fmax model")
    pr.add_argument("--window", type=int, default=64)
    pr.add_argument("--bits", type=int, default=512)
    pr.add_argument("--partitions", type=int, default=4)
    pr.set_defaults(func=_cmd_resources)

    ps = sub.add_parser("stamp", help="run one workload on one backend")
    ps.add_argument("workload", choices=sorted(WORKLOADS))
    ps.add_argument("backend", choices=sorted(BACKENDS))
    ps.add_argument("--threads", type=int, default=8)
    ps.add_argument("--scale", type=float, default=0.5)
    ps.add_argument("--seed", type=int, default=1)
    ps.add_argument(
        "--faults",
        choices=BUILTIN_SCHEDULES,
        help="inject this fault schedule into the validation path "
        "(ROCoCoTM or ClusterTM only)",
    )
    ps.add_argument("--fault-seed", type=int, default=0)
    ps.add_argument(
        "--shards",
        type=int,
        default=_env_default("REPRO_SHARDS", int) or 1,
        help="shard count for the ClusterTM backend (env REPRO_SHARDS)",
    )
    ps.add_argument(
        "--cache", metavar="DIR", help="content-addressed result cache"
    )
    add_supervision_args(ps)
    ps.set_defaults(func=_cmd_stamp)

    pc = sub.add_parser(
        "chaos",
        help="fault matrix: run every schedule, report degradation counters",
    )
    pc.add_argument("workload", choices=sorted(WORKLOADS))
    pc.add_argument(
        "--schedule",
        nargs="+",
        default=["all"],
        choices=sorted(BUILTIN_SCHEDULES) + ["all"],
    )
    pc.add_argument("--threads", type=int, default=4)
    pc.add_argument("--scale", type=float, default=0.25)
    pc.add_argument("--seed", type=int, default=1)
    pc.add_argument("--fault-seed", type=int, default=0)
    pc.add_argument(
        "--sanitize",
        action="store_true",
        help="replay each schedule through the sanitizer oracles (exit 1 on violations)",
    )
    pc.add_argument(
        "--irrevocable-after",
        type=int,
        default=None,
        help="enable the irrevocable escape hatch after N consecutive aborts",
    )
    pc.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="shard schedules across N processes (non-sanitized runs only)",
    )
    pc.add_argument(
        "--cache", metavar="DIR", help="content-addressed result cache"
    )
    pc.add_argument(
        "--shards",
        type=int,
        default=_env_default("REPRO_SHARDS", int) or 1,
        help="run the matrix on a ClusterTM cluster with this many "
        "shards instead of single-node ROCoCoTM (env REPRO_SHARDS)",
    )
    add_supervision_args(pc)
    pc.set_defaults(func=_cmd_chaos)

    pz = sub.add_parser(
        "sanitize",
        help="run a workload under the TM sanitizer (exit 1 on violations)",
    )
    pz.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
    pz.add_argument("backend", nargs="?", choices=sorted(BACKENDS))
    pz.add_argument("--threads", type=int, default=4)
    pz.add_argument("--scale", type=float, default=0.25)
    pz.add_argument("--seed", type=int, default=1)
    pz.add_argument(
        "--diff",
        metavar="BACKEND2",
        choices=sorted(BACKENDS),
        help="differential mode: same workload+seed under a second backend",
    )
    pz.add_argument(
        "--strict-diff",
        action="store_true",
        help="treat committed-state divergence in --diff as a violation",
    )
    pz.add_argument(
        "--self-check",
        action="store_true",
        help="run the sanitizer's known-bad fixtures instead of a workload",
    )
    pz.add_argument(
        "--dump-log", metavar="PATH", help="write the event log as JSONL"
    )
    pz.add_argument(
        "--faults",
        choices=BUILTIN_SCHEDULES,
        help="sanitize under this fault schedule (ROCoCoTM or ClusterTM only)",
    )
    pz.add_argument("--fault-seed", type=int, default=0)
    pz.set_defaults(func=_cmd_sanitize)

    def add_observed_args(sub_parser, default_scale: float) -> None:
        sub_parser.add_argument("workload", help="workload name (see `repro list`)")
        sub_parser.add_argument("backend", help="backend name, case-insensitive")
        sub_parser.add_argument("--threads", type=int, default=4)
        sub_parser.add_argument("--scale", type=float, default=default_scale)
        sub_parser.add_argument("--seed", type=int, default=1)
        sub_parser.add_argument(
            "--faults",
            choices=BUILTIN_SCHEDULES,
            help="inject this fault schedule (ROCoCoTM or ClusterTM only)",
        )
        sub_parser.add_argument("--fault-seed", type=int, default=0)
        sub_parser.add_argument(
            "--shards",
            type=int,
            default=_env_default("REPRO_SHARDS", int) or 1,
            help="shard count for the ClusterTM backend (env REPRO_SHARDS)",
        )
        sub_parser.add_argument(
            "--no-verify",
            action="store_true",
            help="skip the workload's final-state invariant check",
        )

    pt = sub.add_parser(
        "trace",
        help="record one run as Chrome trace-event JSON (ui.perfetto.dev)",
    )
    add_observed_args(pt, default_scale=0.25)
    pt.add_argument(
        "--out", default="trace.json", help="output path (default trace.json)"
    )
    pt.add_argument(
        "--no-detail",
        action="store_true",
        help="omit per-operation read/write markers (smaller trace)",
    )
    pt.set_defaults(func=_cmd_trace)

    pm = sub.add_parser(
        "metrics",
        help="run one cell with the metrics registry attached, print the snapshot",
    )
    add_observed_args(pm, default_scale=0.25)
    pm.add_argument(
        "--json", action="store_true", help="print the snapshot as JSON"
    )
    pm.add_argument("--out", metavar="PATH", help="also write the snapshot to PATH")
    pm.set_defaults(func=_cmd_metrics)

    pa = sub.add_parser(
        "analyze",
        help="static contract analyzer (TM001-TM106; exit 1 on findings)",
    )
    pa.add_argument("paths", nargs="*", default=["src"])
    pa.add_argument(
        "--rules",
        default=None,
        help="rule selection, e.g. TM101 or TM001-TM004,TM103 (default: all)",
    )
    pa.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is the CI artifact)",
    )
    pa.add_argument(
        "--baseline", default=None,
        help="baseline file (default: analysis-baseline.json if present)",
    )
    pa.add_argument(
        "--no-baseline", action="store_true",
        help="report baselined findings as failures too",
    )
    pa.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to tolerate today's findings, then exit 0",
    )
    pa.add_argument(
        "--cache", default=None, metavar="PATH",
        help="memoize results at PATH keyed on the repo source fingerprint",
    )
    pa.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as bail:
        # Commands bail out with SystemExit("message") or a code;
        # normalize both to a return value so callers (and tests) see
        # exit codes, not exceptions, for every post-parse failure.
        if bail.code is None:
            return 0
        if isinstance(bail.code, int):
            return bail.code
        print(bail.code, file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover
        return 130
    except BrokenPipeError:  # pragma: no cover - e.g. `repro list | head`
        # Downstream closed the pipe; not an error on our side.  Point
        # stdout at devnull so the interpreter's flush-at-exit doesn't
        # raise a second time, and use the conventional SIGPIPE code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as failure:
        print(f"repro: error: {type(failure).__name__}: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
