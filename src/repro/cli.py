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

Flags that several verbs share are declared once, in :data:`FLAGS`.
Every verb that runs a cell (stamp, chaos, sanitize, trace, metrics,
and each fig10 cell) builds it as an :class:`ExperimentSpec`, whose
checks are the only cell validation: ``--faults`` off ROCoCoTM and
ClusterTM, ``--shards`` below 1, or ``--shards`` above 1 off ClusterTM
exit 1 with the spec's message.  Runner settings are checked the same
way, by ``default_runner`` and ``SupervisorPolicy``: ``--jobs`` below
0, ``--timeout`` of 0 or less and ``--max-retries`` below 0 (flag or
``REPRO_BENCH_*`` env) exit 1 before any cell runs.

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
    SupervisedRunner,
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

#: every flag two or more verbs take, declared once as its
#: ``add_argument`` keywords.  ``env`` names the variable that supplies
#: the default (the ``REPRO_BENCH_*`` conventions the benchmarks use,
#: so CI can steer a run without editing command lines).  A verb names
#: the flags it takes and may override only a default, plus fig10's
#: ``nargs="+"`` on --threads and fig9's ``choices``.
FLAGS = {
    "--threads": dict(type=int),
    "--scale": dict(type=float, default=0.5),
    "--seed": dict(type=int, default=1),
    "--workloads": dict(nargs="+", choices=sorted(WORKLOADS)),
    "--faults": dict(
        choices=BUILTIN_SCHEDULES,
        help="inject this fault schedule into the validation path (ROCoCoTM or ClusterTM only)",
    ),
    "--fault-seed": dict(type=int, default=0),
    "--shards": dict(
        type=int, default=1, env="REPRO_SHARDS",
        help="shard count for the ClusterTM backend; above 1, fig10 adds a ClusterTM column "
        "and chaos runs on ClusterTM (env REPRO_SHARDS; see docs/CLUSTER.md)",
    ),
    "--cache": dict(
        metavar="DIR",
        help="content-addressed result cache: re-runs only execute changed cells",
    ),
    "--jobs": dict(
        type=int, default=None,
        help="shard cells across N processes (0 = one per core); "
        "results are bit-identical to serial",
    ),
    "--timeout": dict(
        type=float, metavar="SECONDS", env="REPRO_BENCH_TIMEOUT",
        help="per-cell wall-clock deadline (env: REPRO_BENCH_TIMEOUT)",
    ),
    "--max-retries": dict(
        type=int, metavar="N", env="REPRO_BENCH_RETRIES",
        help="retries per failing cell before quarantine (default 2; env: REPRO_BENCH_RETRIES)",
    ),
    "--resume": dict(
        metavar="JOURNAL", env="REPRO_BENCH_RESUME",
        help="journal sweep progress to this fsynced JSONL WAL and, if it already holds "
        "compatible entries, serve them instead of re-executing (env: REPRO_BENCH_RESUME)",
    ),
    "--worker-faults": dict(
        metavar="PLAN", env="REPRO_BENCH_WORKER_FAULTS",
        help="inject deterministic host-side worker faults, kind@cell[:attempt],... with kinds "
        "crash|hang|garbage|partial-write — chaos-tests the supervisor itself "
        "(env: REPRO_BENCH_WORKER_FAULTS)",
    ),
}

#: the flags that set the SupervisedRunner policy (and supervise even a
#: run without --jobs); verbs take them together, as the
#: ``supervision`` argument group.
SUPERVISION = ("--timeout", "--max-retries", "--resume", "--worker-faults")


def _env_default(name: str, cast, fallback=None):
    """A ``REPRO_*`` env value as a flag default, else *fallback*."""
    raw = os.environ.get(name)
    if not raw:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise SystemExit(f"bad {name}={raw!r}: expected {cast.__name__}") from None


def _add_flag(parser, flag: str, **override) -> None:
    """Declare the shared *flag*; *override* replaces table keywords."""
    keywords = {**FLAGS[flag], **override}
    env = keywords.pop("env", None)
    if env is not None:
        keywords["default"] = _env_default(env, keywords.get("type", str), keywords.get("default"))
    parser.add_argument(flag, **keywords)


def _add_flags(parser, *flags: str, **defaults) -> None:
    """Declare shared *flags* in order; *defaults* maps a flag's dest to
    this verb's default.  ``"supervision"`` adds the supervision group."""
    for flag in flags:
        if flag == "supervision":
            group = parser.add_argument_group(
                "supervision",
                "policy of the supervised runner that --jobs N sweeps always use; "
                "any of these flags also supervises a sweep without --jobs "
                "(deadlines, retries, quarantine, crash-resumable journal); "
                "exit 3 = completed with quarantined cells",
            )
            _add_flags(group, *SUPERVISION)
            continue
        dest = flag[2:].replace("-", "_")
        _add_flag(parser, flag, **({"default": defaults.pop(dest)} if dest in defaults else {}))
    assert not defaults, f"defaults for undeclared flags: {sorted(defaults)}"


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


def _spec(args, workload: str, backend: str, **fields) -> ExperimentSpec:
    """The cell a verb runs: names resolved, ``sequential`` pinned to one
    thread, threads/scale/seed/fault seed from the flags, and *fields*
    for the rest (faults, shards, ...).  ExperimentSpec's checks are the
    only validation; its ValueError reaches the user as exit 1."""
    backend = _resolve_backend(backend)
    return ExperimentSpec(
        _resolve_workload(workload), backend, 1 if backend == "sequential" else args.threads,
        scale=args.scale, seed=args.seed, fault_seed=args.fault_seed, **fields,
    )


def _run_specs(args, specs, jobs=None, progress=None, stamp_json=None):
    """Run *specs* on the runner the --cache and supervision flags choose
    (*jobs* as ``default_runner`` reads it) and report on stderr.

    *stamp_json* also writes the sweep's ``BENCH_stamp.json`` record.
    Returns the results (None for a quarantined cell) and the exit code:
    3 when a supervised run quarantined cells, else 0.
    """
    # Wall-clock here times the *sweep harness* for the stamp record,
    # never the simulated experiments, which run on virtual time.
    import time  # tm: ignore[TM101]

    cache = ResultCache(args.cache) if args.cache else None
    worker_faults = None
    if args.worker_faults:
        from .faults import WorkerFaultPlan

        worker_faults = WorkerFaultPlan.parse(args.worker_faults, seed=specs[0].fault_seed)
    runner = default_runner(
        jobs, cache=cache, timeout=args.timeout, max_retries=args.max_retries,
        resume=args.resume, worker_faults=worker_faults,
    )
    started = time.perf_counter()
    results = runner.run(specs, progress=progress)
    if stamp_json:
        write_bench_stamp(
            stamp_json, matrix_from_results(specs, results), specs,
            time.perf_counter() - started, runner, cache, results=results,
        )
        print(f"wrote {stamp_json}", file=sys.stderr)
    if cache is not None:
        print(
            f"cache: {cache.hits}/{cache.lookups} hits "
            f"({cache.hit_rate:.0%}) in {cache.root}",
            file=sys.stderr,
        )
    return results, _report_supervision(runner)


def _report_supervision(runner) -> int:
    """Summarize a supervised sweep on stderr; the exit code is 3 when
    cells were quarantined, else 0 (also for the serial runner)."""
    if not isinstance(runner, SupervisedRunner):
        return 0
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
    if args.stamp_json:
        # Refuse a malformed pin before the sweep, not after it.
        try:
            source_date_epoch()
        except ValueError as bad:
            print(f"fig10: {bad}", file=sys.stderr)
            return 2
    workloads = [WORKLOADS[name] for name in args.workloads] if args.workloads else ALL_WORKLOADS
    fig_backends = ["TinySTM", "TSX", "ROCoCoTM"]
    backend_factories = list(FIG10_BACKENDS)
    # Any count but 1 adds the column, so a count below 1 reaches
    # ExperimentSpec's check instead of silently running single-node.
    if args.shards != 1:
        from .cluster import ClusterTMBackend

        fig_backends.append("ClusterTM")
        backend_factories.append(ClusterTMBackend)
    specs = matrix_specs(
        workloads=workloads, backends=tuple(backend_factories),
        threads=tuple(args.threads),
        scale=args.scale, seed=args.seed, obs=args.obs, shards=args.shards,
    )
    results, exit_code = _run_specs(
        args, specs, args.jobs,
        progress=(lambda msg: print("  " + msg, file=sys.stderr)) if args.verbose else None,
        stamp_json=args.stamp_json,
    )
    matrix = matrix_from_results(specs, results)

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
    if args.shards > 1:
        print_table(
            ["threads", "ClusterTM/ROCoCoTM"],
            [[nt, ratio("ClusterTM", "ROCoCoTM", nt)] for nt in args.threads],
            title=f"Cluster scale-out ratio ({args.shards} shards)",
        )
    return exit_code


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
    spec = _spec(args, args.workload, args.backend, faults=args.faults, shards=args.shards)
    [stats], exit_code = _run_specs(args, [spec])
    if stats is None:  # quarantined under supervision
        return exit_code
    print(stats.summary())
    if stats.validations:
        print(f"mean validation: {stats.mean_validation_us:.3f} us/txn")
    return exit_code


def _cmd_chaos(args) -> int:
    """Run the fault matrix on one workload; optionally sanitized."""
    from .faults import chaos_sanitize

    schedules = list(BUILTIN_SCHEDULES) if "all" in args.schedule else args.schedule
    system = "ClusterTM" if args.shards > 1 else "ROCoCoTM"
    specs = [
        _spec(args, args.workload, system, faults=sched, shards=args.shards,
              irrevocable_after=args.irrevocable_after)
        for sched in schedules
    ]
    rows = []
    exit_code = 0
    if args.sanitize:
        given = {
            "--shards": args.shards > 1, "--irrevocable-after": args.irrevocable_after is not None,
            "--jobs": args.jobs is not None, "--cache": args.cache,
            "--timeout": args.timeout is not None, "--max-retries": args.max_retries is not None,
            "--resume": args.resume, "--worker-faults": args.worker_faults,
        }
        unused = [flag for flag, value in given.items() if value]
        if unused:
            raise SystemExit(
                "--sanitize replays through the single-node chaos harness, "
                f"which takes no {', '.join(unused)}; drop them or --sanitize"
            )
        for spec in specs:
            [(_, report, backend)] = chaos_sanitize(
                WORKLOADS[spec.workload], [spec.faults], n_threads=spec.n_threads,
                scale=spec.scale, seed=spec.seed, fault_seed=spec.fault_seed,
            )
            if not report.ok:
                exit_code = 1
                print(f"--- {spec.faults}: SANITIZER VIOLATIONS ---", file=sys.stderr)
                print(report.summary(), file=sys.stderr)
            rows.append(
                [spec.faults] + degradation_row(backend.stats) + ["ok" if report.ok else "FAIL"]
            )
    else:
        results, exit_code = _run_specs(args, specs, args.jobs)
        for sched, stats in zip(schedules, results):
            if stats is None:  # quarantined under supervision
                rows.append([sched] + ["-"] * len(DEGRADATION_HEADERS) + ["QUARANTINED"])
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
    return exit_code


def _cmd_sanitize(args) -> int:
    from .sanitizer import diff_backends
    from .sanitizer.dynamic import run_sanitized

    if args.self_check:
        from .sanitizer.selfcheck import run_self_check

        return 0 if run_self_check() else 1

    if not args.workload or not args.backend:
        print("sanitize: workload and backend are required (or --self-check)", file=sys.stderr)
        return 2

    spec = _spec(args, args.workload, args.backend, faults=args.faults)
    workload_cls, backend = WORKLOADS[spec.workload], spec.make_backend()
    if args.diff:
        report = diff_backends(
            workload_cls, backend, BACKENDS[args.diff](), spec.n_threads,
            scale=spec.scale, seed=spec.seed, strict=args.strict_diff,
        )
    else:
        report, sanitized, _ = run_sanitized(
            workload_cls, backend, spec.n_threads, scale=spec.scale, seed=spec.seed
        )
        if args.dump_log:
            with open(args.dump_log, "w") as sink:
                sink.write(sanitized.log.dump_jsonl() + "\n")
            print(f"event log ({len(sanitized.log)} events) -> {args.dump_log}")
    print(report.summary())
    return 0 if report.ok else 1


def _run_observed(args, trace: bool):
    """Shared trace/metrics driving: run one observed cell."""
    from .obs import observe_stamp

    spec = _spec(args, args.workload, args.backend, faults=args.faults, shards=args.shards)
    stats, tracer, registry = observe_stamp(
        WORKLOADS[spec.workload], spec.make_backend(), spec.n_threads,
        scale=spec.scale, seed=spec.seed, verify=not args.no_verify,
        trace=trace, detail=trace and not args.no_detail,
    )
    return spec, stats, tracer, registry


def _cmd_trace(args) -> int:
    from .obs import write_chrome_trace

    spec, stats, tracer, _ = _run_observed(args, trace=True)
    payload = write_chrome_trace(
        args.out, tracer, workload=spec.workload, backend=spec.backend,
        n_threads=spec.n_threads, scale=spec.scale, seed=spec.seed, faults=spec.faults,
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

    spec, stats, _, registry = _run_observed(args, trace=False)
    snapshot = registry.snapshot()
    if args.out:
        with open(args.out, "w") as sink:
            json.dump(snapshot, sink, indent=1, sort_keys=True)
            sink.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(snapshot, indent=1, sort_keys=True))
        return 0
    cell = f"{spec.workload}/{spec.backend}@{spec.n_threads}t"
    title = f"{cell} (scale {spec.scale}, seed {spec.seed})"
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
    _add_flag(p9, "--threads", default=16, choices=(4, 16))
    p9.add_argument("--seeds", type=int, default=20)
    p9.add_argument("--txns", type=int, default=120)
    p9.set_defaults(func=_cmd_fig9)

    p10 = sub.add_parser("fig10", help="STAMP speedups and abort rates")
    _add_flags(p10, "--scale", "--seed")
    _add_flag(p10, "--threads", nargs="+", default=list(FIG10_THREADS))
    _add_flags(p10, "--workloads")
    p10.add_argument("--verbose", action="store_true")
    _add_flags(p10, "--jobs", "--cache")
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
    _add_flags(p10, "--shards", "supervision")
    p10.set_defaults(func=_cmd_fig10)

    p11 = sub.add_parser("fig11", help="per-transaction validation overhead")
    _add_flags(p11, "--threads", "--scale", "--workloads", threads=14)
    p11.set_defaults(func=_cmd_fig11)

    pr = sub.add_parser("resources", help="FPGA resource/Fmax model")
    pr.add_argument("--window", type=int, default=64)
    pr.add_argument("--bits", type=int, default=512)
    pr.add_argument("--partitions", type=int, default=4)
    pr.set_defaults(func=_cmd_resources)

    ps = sub.add_parser("stamp", help="run one workload on one backend")
    ps.add_argument("workload", choices=sorted(WORKLOADS))
    ps.add_argument("backend", choices=sorted(BACKENDS))
    _add_flags(
        ps, "--threads", "--scale", "--seed", "--faults", "--fault-seed",
        "--shards", "--cache", "supervision", threads=8,
    )
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
    _add_flags(pc, "--threads", "--scale", "--seed", "--fault-seed", threads=4, scale=0.25)
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
    _add_flags(pc, "--jobs", "--cache", "--shards", "supervision")
    pc.set_defaults(func=_cmd_chaos)

    pz = sub.add_parser(
        "sanitize",
        help="run a workload under the TM sanitizer (exit 1 on violations)",
    )
    pz.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
    pz.add_argument("backend", nargs="?", choices=sorted(BACKENDS))
    _add_flags(pz, "--threads", "--scale", "--seed", threads=4, scale=0.25)
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
    _add_flags(pz, "--faults", "--fault-seed")
    pz.set_defaults(func=_cmd_sanitize)

    def observed_verb(name: str, help_text: str):
        po = sub.add_parser(name, help=help_text)
        po.add_argument("workload", help="workload name (see `repro list`)")
        po.add_argument("backend", help="backend name, case-insensitive")
        _add_flags(
            po, "--threads", "--scale", "--seed", "--faults", "--fault-seed",
            "--shards", threads=4, scale=0.25,
        )
        po.add_argument(
            "--no-verify",
            action="store_true",
            help="skip the workload's final-state invariant check",
        )
        return po

    pt = observed_verb(
        "trace", "record one run as Chrome trace-event JSON (ui.perfetto.dev)"
    )
    pt.add_argument(
        "--out", default="trace.json", help="output path (default trace.json)"
    )
    pt.add_argument(
        "--no-detail",
        action="store_true",
        help="omit per-operation read/write markers (smaller trace)",
    )
    pt.set_defaults(func=_cmd_trace)

    pm = observed_verb(
        "metrics",
        "run one cell with the metrics registry attached, print the snapshot",
    )
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
