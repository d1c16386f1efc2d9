"""End-to-end host-time benchmark over Fig. 10-style STAMP cells.

What a user of this simulator waits for is host wall-clock: building a
cell's inputs, simulating it and checking its final state, cell after
cell of a sweep.  This benchmark times exactly that over four fixed
workloads, serially in one process and one thread (a closed batch: the
next cell starts when the previous one has finished), and checks every
simulated statistic against a golden digest while it does, because a
speed-up that moves a simulated number is a bug, not a gain.

A workload is a list of cells, each run on :data:`INPUTS` input seeds
derived from ``--seed``.  Every cell is built the way ``run_stamp``
builds it, so set-up and run time separate.  One invocation runs, per
workload:

1. **memory** (``--trace 0``, or no ``--trace``) -- the first input
   seed's cells once under ``tracemalloc``, for ``peak_mem_mb``.
2. **traced** (``--trace 1``, or no ``--trace``) -- the same cells once
   with the layers' entry points wrapped in spans from this file
   (nothing under ``src/`` changes), giving self time per layer.  Every
   patched class attribute must be restored identity-equal afterwards,
   and spans must leave less than :data:`MAX_UNATTRIBUTED` of the round
   uncovered.
3. **timed** -- whole rounds over every cell until ``--seconds`` have
   passed (at least :data:`MIN_ROUNDS`); the pass before it is its
   warm-up.  A cell's host time is its fastest round, set-up time is the
   median round's, and both are scaled to a reference host speed (see
   :class:`Calibration`).

Every run of a cell must produce the ``RunStats`` digest that
``golden.json`` records for it (the golden digests come from
``ExperimentSpec.execute()``, so the two ways of driving a cell must
agree); for seeds without golden digests, the digest of the cell's
first run, and the golden check reports ``unchecked``.

``gc.collect()`` runs between cells, outside every timed interval.
Host times are ``time.perf_counter`` seconds; simulated times appear
only inside the digested ``RunStats``.

Run from the repository root::

    python3 benchmarks/e2e/bench_e2e.py --workload fig10-rococo --seed 1 --seconds 10 --trace 0
    python3 benchmarks/e2e/bench_e2e.py --out run.json   # every workload and pass

Every metric prints as ``name unit value``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` (cells, not executions) and ``metrics``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import json
import os
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, TextIO, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
GOLDEN = HERE / "golden.json"

#: fig10's default input scale.
SCALE = 0.5
#: input seeds per cell.  Benchmark seed *n* runs every cell on the
#: inputs of seeds ``n*INPUTS`` .. ``n*INPUTS + INPUTS - 1``: how much
#: host work a cell takes depends on its inputs (how often its
#: transactions abort), and more independent inputs per run make the
#: metrics depend less on which seed was drawn.
INPUTS = 3
#: timed rounds per workload, however short ``--seconds`` is (quartiles
#: need at least three samples).
MIN_ROUNDS = 3
#: ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 10
#: largest share of the traced round that spans may leave uncovered.
MAX_UNATTRIBUTED = 0.02
#: host seconds :func:`calibration_kernel` takes on an undisturbed host
#: (a 2-vCPU x86-64 VM running CPython 3.11).  Reported host times are
#: measured times scaled by ``CALIBRATION_S`` over the kernel's fastest
#: run beside them; see :class:`Calibration`.
CALIBRATION_S = 0.1
#: cell host time between two calibration runs.
CALIBRATE_EVERY_S = 1.0

FIG10_APPS = ("genome", "intruder", "kmeans", "labyrinth", "ssca2", "vacation", "yada")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(app, backend, threads, shards)`` per cell, run in this order.
    cells: Tuple[Tuple[str, str, int, int], ...]
    #: run each cell the way ``repro trace`` does: SpanTracer(detail=True)
    #: and MetricsCollector on the bus, Chrome trace serialised in memory.
    observed: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig10-rococo",
            "ROCoCoTM at 28 threads on the 7 Fig. 10 apps: the paper's headline "
            "configuration, where validation and the rococotm read path take most host time",
            tuple((app, "ROCoCoTM", 28, 1) for app in FIG10_APPS),
        ),
        Workload(
            "fig10-baselines",
            "sequential, TinySTM and TSX on the 7 apps: the rest of a fig10 sweep; "
            "validation does no work, so a validation change must show no change here",
            tuple(
                cell
                for app in FIG10_APPS
                for cell in ((app, "sequential", 1, 1), (app, "TinySTM", 28, 1), (app, "TSX", 28, 1))
            ),
        ),
        Workload(
            "cluster-xshard",
            "ClusterTM with 4 shards at 16 threads: non-mutating certify plus external "
            "commits, and the only workload that runs the cluster router and coordinator",
            tuple(
                (app, "ClusterTM", 16, 4)
                for app in ("ssca2", "vacation-high", "kmeans", "intruder")
            ),
        ),
        Workload(
            "observed",
            "ROCoCoTM at 28 threads with detailed span tracing, metrics and Chrome trace "
            "export: guards that observing a run stays cheap",
            tuple((app, "ROCoCoTM", 28, 1) for app in ("genome", "ssca2", "vacation", "intruder")),
            observed=True,
        ),
    )
}

#: end-to-end metric -> unit (BENCHMARK.json holds direction and bound).
END_TO_END = {"txn_per_s": "1/s", "setup_s": "s", "peak_mem_mb": "MB"}

#: backend registry key -> span prefix, and the hooks the simulator calls.
BACKEND_SPANS = {
    "ROCoCoTM": "rococotm",
    "TinySTM": "tinystm",
    "TSX": "tsx",
    "sequential": "sequential",
    "ClusterTM": "clustertm",
}
HOOKS = ("begin", "read", "write", "commit", "rollback")

#: bus subscriber class -> span name (``EventBus.subscribe`` is patched
#: to wrap each handler as it is registered).
SUBSCRIBER_SPANS = {
    "StatsCollector": "events.stats",
    "SpanTracer": "obs.spans",
    "MetricsCollector": "obs.metrics",
}

#: layers whose share of traced self time is reported.
SHARE_LAYERS = (
    "simulator", "sched", "stamp", "memory",
    *(f"{prefix}.{hook}" for prefix in BACKEND_SPANS.values() for hook in HOOKS),
    "faults.ladder",
    "hw.engine", "hw.manager", "hw.detector.edges", "hw.detector.record", "core.window",
    "signatures",
    "cluster.router", "cluster.coordinator",
    "events.emit", "events.stats", "obs.spans", "obs.metrics", "obs.export",
    "setup", "verify",
)
#: span name -> the metric that reports its call count.
COUNTED = {
    "sched": "sched.calls",
    "stamp": "stamp.resumes",
    "memory": "memory.ops",
    **{
        f"{prefix}.{hook}": f"{prefix}.{hook}.calls"
        for prefix in BACKEND_SPANS.values()
        for hook in HOOKS
    },
    "hw.engine": "hw.engine.calls",
    "hw.detector.edges": "hw.detector.edges.calls",
    "core.window": "core.window.calls",
    "signatures": "signatures.calls",
    "cluster.coordinator": "cluster.coordinator.calls",
    "events.emit": "events.emits",
}
#: the validation pipeline and observability, as groups of span names.
VALIDATION_LAYERS = (
    "hw.engine", "hw.manager", "hw.detector.edges", "hw.detector.record",
    "core.window", "signatures",
)
OBSERVABILITY_LAYERS = ("events.emit", "events.stats", "obs.spans", "obs.metrics", "obs.export")


def per_layer_units() -> Dict[str, str]:
    """Per-layer metric -> unit, in report order.  Layer time is a share
    of the traced round's self time, so a layer a workload never enters
    reads 0 % instead of a constant time."""
    units = {}
    for layer in SHARE_LAYERS:
        units[f"{layer}.share"] = "%"
        if layer in COUNTED:
            units[COUNTED[layer]] = "count"
    units.update({
        "simulator.steps": "count",
        "simulator.host_ns_per_step": "ns/step",
        "sched.stale_pop_ratio": "ratio",
        "txn.commit_ratio": "ratio",
        "hw.manager.commit_ratio": "ratio",
        "hw.detector.edges.addrs_per_call": "count",
        "signatures.mask_cache_hit_ratio": "ratio",
        "cluster.xshard_share": "ratio",
        "validation.share": "%",
        "observability.share": "%",
        "trace.overhead_ratio": "ratio",
        "trace.unattributed_share": "%",
    })
    return units


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"bench_e2e: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def specs_for(workload: Workload, seed: int, scale: float = SCALE) -> list:
    """The cells of *workload* on the :data:`INPUTS` input seeds that
    benchmark seed *seed* stands for."""
    from repro.exec.spec import ExperimentSpec

    return [
        ExperimentSpec(
            app, backend, threads, scale=scale, seed=seed * INPUTS + offset,
            obs=workload.observed, shards=shards,
        )
        for offset in range(INPUTS)
        for app, backend, threads, shards in workload.cells
    ]


def cell_key(spec) -> str:
    """The golden-digest key of one cell."""
    key = f"{spec.label()} scale={spec.scale:g} seed={spec.seed}"
    return key + " obs" if spec.obs else key


def digest(stats) -> str:
    """sha256 of ``RunStats.to_dict()`` as sorted-key JSON."""
    blob = json.dumps(stats.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_golden(path: Path = GOLDEN) -> Dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


@dataclass
class CellRun:
    stats: object
    backend: object
    #: the scheduler kernel's end-of-run counters (the ``sched`` event).
    sched: dict
    setup_s: float
    total_s: float


def _untraced(name: str):
    return contextlib.nullcontext()


def run_cell(spec, trace: Optional["LayerTrace"] = None) -> CellRun:
    """Build, run and verify one cell as ``run_stamp`` does, timing the
    set-up (inputs, backend, Simulator, tracer install) apart."""
    from repro.exec.spec import WORKLOAD_REGISTRY
    from repro.obs import MetricsCollector, SpanTracer, chrome_trace_payload
    from repro.runtime import Memory, Simulator

    phase = trace.phase if trace is not None else _untraced
    start = time.perf_counter()
    with phase("setup"):
        memory = Memory()
        workload = WORKLOAD_REGISTRY[spec.workload](
            memory, spec.n_threads, scale=spec.scale, seed=spec.seed
        )
        backend = spec.make_backend()
        simulator = Simulator(
            backend, spec.n_threads, memory=memory,
            cost_model=spec.make_cost_model(), seed=spec.seed,
            workload_name=workload.name,
        )
        if spec.obs:
            tracer = SpanTracer(detail=True)
            tracer.install(simulator.bus)
            collector = MetricsCollector()
            collector.install(simulator.bus)
        sched: List[dict] = []
        simulator.bus.subscribe(lambda event: sched.append(event.data), kinds=("sched",))
    set_up = time.perf_counter()
    program = workload.program if trace is None else trace.proxy(workload.program)
    stats = simulator.run([program] * spec.n_threads)
    with phase("verify"):
        workload.verify()
    if spec.obs:
        with phase("obs.export"):
            tracer.finish()
            stats.metrics = collector.snapshot()
            payload = chrome_trace_payload(
                tracer, workload=spec.workload, backend=spec.backend,
                n_threads=spec.n_threads, scale=spec.scale, seed=spec.seed,
                faults=spec.faults,
            )
            json.dumps(payload, indent=1, sort_keys=True)
    end = time.perf_counter()
    return CellRun(stats, backend, sched[-1] if sched else {}, set_up - start, end - start)


class Checker:
    """Checks every cell run against its expected digest and records the
    cells that raised, failed ``verify()`` or diverged.

    A cell's expected digest is its golden one when ``golden.json`` has
    it; otherwise the first digest any pass produced, which every later
    pass must reproduce.
    """

    def __init__(self, golden: Dict[str, str]):
        self.golden = golden
        self.expected: Dict[str, str] = {}
        self.commits: Dict[str, int] = {}
        self.failed: Set[str] = set()
        self.unchecked: Set[str] = set()

    def fail(self, key: str, why: str) -> None:
        self.failed.add(key)
        print(f"bench_e2e: FAILED {key}: {why}", file=sys.stderr)

    def observe(self, key: str, stats, pass_name: str) -> None:
        got = digest(stats)
        if key not in self.expected:
            self.commits[key] = stats.commits
            want = self.golden.get(key)
            if want is None:
                self.unchecked.add(key)
                want = got
            self.expected[key] = want
        want = self.expected[key]
        if got != want:
            source = "golden" if key in self.golden else "first run"
            self.fail(key, f"{pass_name} digest {got[:12]} != {source} {want[:12]}")

    def run(self, spec, pass_name: str, trace: Optional["LayerTrace"] = None) -> Optional[CellRun]:
        key = cell_key(spec)
        try:
            run = run_cell(spec, trace)
        except Exception:
            self.fail(key, f"{pass_name} run raised\n" + traceback.format_exc())
            return None
        self.observe(key, run.stats, pass_name)
        return run

    @property
    def golden_status(self) -> str:
        if self.unchecked:
            return "unchecked"
        return "failed" if self.failed else "passed"


# ----------------------------------------------------------------------
# Layer tracing
# ----------------------------------------------------------------------
_MISSING = object()


def layer_targets() -> List[Tuple[type, str, str]]:
    """``(class, attribute, span name)`` for every wrapped entry point."""
    from repro.cluster import ClusterTMBackend, Coordinator, Router
    from repro.core import WindowMatrix
    from repro.faults.degradation import DegradationManager
    from repro.hw import ConflictDetector, FpgaValidationEngine, ValidationManager
    from repro.runtime import (
        EventBus,
        Memory,
        RococoTMBackend,
        SchedulerKernel,
        SequentialBackend,
        Simulator,
        TinySTMBackend,
        TsxBackend,
    )
    from repro.signatures import BloomSignature, SignatureConfig

    backends = {
        "ROCoCoTM": RococoTMBackend,
        "TinySTM": TinySTMBackend,
        "TSX": TsxBackend,
        "sequential": SequentialBackend,
        "ClusterTM": ClusterTMBackend,
    }
    targets = [(Simulator, "run", "simulator")]
    targets += [
        (SchedulerKernel, name, "sched")
        for name in ("pick", "reschedule", "park", "wake", "retire")
    ]
    targets += [(Memory, "load", "memory"), (Memory, "store", "memory")]
    targets += [
        (cls, hook, f"{BACKEND_SPANS[key]}.{hook}")
        for key, cls in backends.items()
        for hook in HOOKS
    ]
    targets += [
        (DegradationManager, "submit", "faults.ladder"),
        (FpgaValidationEngine, "submit", "hw.engine"),
        (FpgaValidationEngine, "certify", "hw.engine"),
        (ValidationManager, "validate", "hw.manager"),
        (ValidationManager, "certify", "hw.manager"),
        (ValidationManager, "record_external_commit", "hw.manager"),
        (ConflictDetector, "edges", "hw.detector.edges"),
        (ConflictDetector, "record_commit", "hw.detector.record"),
        (WindowMatrix, "probe", "core.window"),
        (WindowMatrix, "commit", "core.window"),
    ]
    targets += [
        (BloomSignature, name, "signatures")
        for name in ("insert", "query", "intersects", "unite", "is_empty")
    ]
    targets += [(SignatureConfig, "new", "signatures"), (SignatureConfig, "of", "signatures")]
    targets += [
        (Router, "classify", "cluster.router"),
        (Coordinator, "commit", "cluster.coordinator"),
        (EventBus, "emit", "events.emit"),
    ]
    return targets


class LayerTrace:
    """Self time and call counts per span name.

    A span's self time is its duration minus the time of the spans
    opened inside it; the open spans form a stack of ``[child seconds,
    child spans]`` accumulators.  Spans are aggregated as they close, so
    only the counters grow during a run.

    Each wrapped call costs the tracer about a microsecond, most of it
    outside the span's own interval and so in its caller's self time.
    :meth:`self_times` takes that cost back out (see
    :func:`_layer_metrics` for how much).  Uncorrected, the simulator
    loop, which makes most of the wrapped calls, read about twice its
    share on fig10-rococo, and ``hw.detector.edges`` half of its.
    """

    def __init__(self) -> None:
        from repro.runtime import Transaction

        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: spans opened directly inside each span name's spans.
        self.children: Counter = Counter()
        #: addresses passed to ``ConflictDetector.edges``, summed.
        self.edge_addrs = 0
        #: summed duration of the spans opened with no span around them.
        self.root_s = 0.0
        self._stack: List[List[float]] = []
        self._transaction = Transaction

    def _open(self) -> List[float]:
        frame = [0.0, 0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, start: float, frame: List[float]) -> None:
        elapsed = time.perf_counter() - start
        stack = self._stack
        stack.pop()
        self.self_s[name] += elapsed - frame[0]
        self.calls[name] += 1
        self.children[name] += frame[1]
        if stack:
            parent = stack[-1]
            parent[0] += elapsed
            parent[1] += 1
        else:
            self.root_s += elapsed

    def self_times(self, inner_s: float, outer_s: float) -> Dict[str, float]:
        """Self seconds per span name without the tracer's own cost:
        *inner_s* per span of the name and *outer_s* per span opened
        directly inside it (see :func:`_layer_metrics`)."""
        return {
            name: max(0.0, seconds - inner_s * self.calls[name] - outer_s * self.children[name])
            for name, seconds in self.self_s.items()
        }

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start, frame)

    def wrap(self, fn, name: str):
        open_ = self._open
        close = self._close
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = open_()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, start, frame)

        return span

    def proxy(self, program):
        """Wrap a thread-program factory so that every resume of
        workload code, program or transaction body, is a ``stamp`` span."""
        return lambda tid: _TimedGenerator(program(tid), self)

    def _count_edges(self, edges):
        def counted(detector, read_addrs, write_addrs, snapshot):
            self.edge_addrs += len(read_addrs) + len(write_addrs)
            return edges(detector, read_addrs, write_addrs, snapshot)

        return counted

    @contextlib.contextmanager
    def patched(self, problems: List[str]) -> Iterator[None]:
        """Wrap every :func:`layer_targets` entry point, and the handlers
        ``EventBus.subscribe`` registers, for the duration.  Afterwards
        append to *problems* each class attribute not restored
        identity-equal."""
        from repro.hw import ConflictDetector
        from repro.runtime import EventBus

        saved: List[Tuple[type, str, object]] = []

        def patch(owner: type, attr: str, make) -> None:
            original = owner.__dict__.get(attr, _MISSING)
            if original is _MISSING:
                raise TypeError(f"{owner.__name__} defines no {attr!r} of its own")
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

        def traced_subscribe(subscribe):
            def wrapper(bus, fn, kinds=None):
                owner = type(getattr(fn, "__self__", None)).__name__
                name = SUBSCRIBER_SPANS.get(owner, "events.subscriber")
                return subscribe(bus, self.wrap(fn, name), kinds)

            return wrapper

        try:
            for owner, attr, name in layer_targets():
                if (owner, attr) == (ConflictDetector, "edges"):
                    patch(owner, attr, lambda fn, name=name: self.wrap(self._count_edges(fn), name))
                else:
                    patch(owner, attr, lambda fn, name=name: self.wrap(fn, name))
            patch(EventBus, "subscribe", traced_subscribe)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            for owner, attr, original in saved:
                if owner.__dict__.get(attr, _MISSING) is not original:
                    problems.append(f"{owner.__name__}.{attr} was not restored")


class _TimedGenerator:
    """Stands in for a workload generator.  The simulator only calls
    ``send`` on programs and transaction bodies; each call here is a
    ``stamp`` span, and each yielded Transaction gets its body wrapped
    the same way."""

    __slots__ = ("_gen", "_trace")

    def __init__(self, gen, trace: LayerTrace):
        self._gen = gen
        self._trace = trace

    def send(self, value):
        trace = self._trace
        frame = trace._open()
        start = time.perf_counter()
        try:
            op = self._gen.send(value)
        finally:
            trace._close("stamp", start, frame)
        if isinstance(op, trace._transaction):
            make_body = op.body
            op = trace._transaction(lambda: _TimedGenerator(make_body(), trace), op.label)
        return op


def span_own_share(calls: int = 20000, repeats: int = 5) -> float:
    """The share of a wrapped call's tracer cost that lands in its own
    span's self time rather than its caller's, measured on a no-op (the
    least cost of *repeats* tries for each side).

    In a real run each span costs more than on a no-op in a tight loop
    (caches are colder), so only the split is taken from here."""

    def noop():
        return None

    clock = time.perf_counter
    inner = outer = float("inf")
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            pass
        loop_s = clock() - start
        start = clock()
        for _ in range(calls):
            noop()
        call_s = clock() - start - loop_s
        probe = LayerTrace()
        span = probe.wrap(noop, "callee")
        with probe.phase("caller"):
            for _ in range(calls):
                span()
        inner = min(inner, probe.self_s["callee"] - call_s)
        outer = min(outer, probe.self_s["caller"] - loop_s)
    inner, outer = max(inner, 0.0), max(outer, 0.0)
    return _ratio(inner, inner + outer)


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
def calibration_kernel() -> float:
    """Time about 100 ms of fixed interpreter work shaped like the
    simulator's inner loop (generator resumes picked off a heap, dict
    updates).  It shares no code with ``src/``, so no change there can
    move it.  It runs about as long as a typical cell: a host slowed in
    bursts of milliseconds slows a run of this length as it slows a
    cell, where a much shorter run could fit between the bursts."""

    def worker(seed: int):
        value = seed
        for _ in range(10000):
            value = (value * 1103515245 + 12345) & 0x7FFFFFFF
            yield value

    start = time.perf_counter()
    workers = [worker(tid) for tid in range(16)]
    ready = [(0, tid) for tid in range(16)]
    cells: Dict[int, int] = {}
    while ready:
        clock, tid = heapq.heappop(ready)
        try:
            value = workers[tid].send(None)
        except StopIteration:
            continue
        cells[value & 1023] = cells.get(value & 1023, 0) + 1
        heapq.heappush(ready, (clock + (value & 7) + 1, tid))
    return time.perf_counter() - start


class Calibration:
    """Host speed, sampled between cells.

    On a shared machine the same cell can take twice as long from one
    minute to the next, and every such disturbance only adds time.  So a
    cell's host time is the fastest of its runs, and it is scaled by
    ``CALIBRATION_S`` over the fastest :func:`calibration_kernel` run of
    the same pass: a slow spell that lasts the whole pass slows both
    alike and cancels, and shorter spells are skipped by taking the
    fastest runs.  On an undisturbed host the scale is close to 1.  Over
    ten seeds per workload on a shared 2-vCPU VM, the quartile spread of
    ``txn_per_s`` was 3-10 % unscaled and 3-4 % scaled.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._since = 0.0

    def before_cell(self) -> None:
        if not self.samples or self._since >= CALIBRATE_EVERY_S:
            self.samples.append(calibration_kernel())
            self._since = 0.0

    def after_cell(self, seconds: float) -> None:
        self._since += seconds

    @property
    def scale(self) -> float:
        return CALIBRATION_S / min(self.samples)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def _timed_rounds(specs, check: Checker, seconds: float):
    """Whole rounds until *seconds* have passed; returns per round its
    host and set-up seconds summed over the cells, per cell its host
    seconds in every round, and the pass's calibration."""
    round_s: List[float] = []
    round_setup_s: List[float] = []
    cell_s: Dict[str, List[float]] = defaultdict(list)
    calibration = Calibration()
    start = time.perf_counter()
    while len(round_s) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        total = setup = 0.0
        for spec in specs:
            gc.collect()
            calibration.before_cell()
            run = check.run(spec, "timed")
            if run is not None:
                cell_s[cell_key(spec)].append(run.total_s)
                total += run.total_s
                setup += run.setup_s
                calibration.after_cell(run.total_s)
            del run
        round_s.append(total)
        round_setup_s.append(setup)
    return round_s, round_setup_s, cell_s, calibration


def _memory_round(specs, check: Checker) -> float:
    """Largest per-cell tracemalloc peak above the post-collection
    baseline, in MB (10**6 bytes)."""
    peak = 0
    tracemalloc.start()
    try:
        for spec in specs:
            gc.collect()
            tracemalloc.reset_peak()
            baseline = tracemalloc.get_traced_memory()[0]
            run = check.run(spec, "memory")
            peak = max(peak, tracemalloc.get_traced_memory()[1] - baseline)
            del run
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _model_counts(run: CellRun) -> Counter:
    """Outcome counters of one cell: transactions, validation-manager
    decisions and signature mask-cache lookups."""
    from repro.cluster import ClusterTMBackend
    from repro.runtime import RococoTMBackend

    counts = Counter(
        commits=run.stats.commits,
        attempts=run.stats.attempts,
        steps=run.sched.get("picks", 0),
        stale_pops=run.sched.get("stale_pops", 0),
    )
    if isinstance(run.backend, ClusterTMBackend):
        nodes = run.backend.shards
    elif isinstance(run.backend, RococoTMBackend):
        nodes = [run.backend]
    else:
        nodes = []
    for node in nodes:
        counts["mask_hits"] += node.config.mask_cache_hits
        counts["mask_lookups"] += node.config.mask_cache_hits + node.config.mask_cache_misses
        manager = node.engine.manager
        counts["decisions"] += (
            manager.stats_commits + manager.stats_aborts + manager.stats_certifies
        )
        counts["accepted"] += (
            manager.stats_commits + manager.stats_certifies - manager.stats_certify_refusals
        )
    return counts


@dataclass
class TracedRound:
    trace: LayerTrace
    host_s: float
    #: the round's calibration scale.
    scale: float
    #: :func:`_model_counts`, summed over the cells.
    counts: Counter
    #: :func:`span_own_share`, measured just before the round.
    span_own_share: float


def _traced_round(specs, check: Checker, problems: List[str]) -> TracedRound:
    own_share = span_own_share()
    trace = LayerTrace()
    counts: Counter = Counter()
    traced_s = 0.0
    calibration = Calibration()
    with trace.patched(problems):
        for spec in specs:
            gc.collect()
            calibration.before_cell()
            run = check.run(spec, "traced", trace)
            if run is not None:
                traced_s += run.total_s
                counts.update(_model_counts(run))
                calibration.after_cell(run.total_s)
            del run
    return TracedRound(trace, traced_s, calibration.scale, counts, own_share)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _fastest_sum(samples: Dict[str, List[float]], keys) -> float:
    """Sum over *keys* of each cell's fastest sample."""
    return sum(min(samples[key]) for key in keys if samples.get(key))


def _layer_metrics(traced: TracedRound, untraced_s: float):
    """Per-layer metrics of the traced round against the same cells'
    calibrated untraced seconds *untraced_s*.

    The tracer's cost is the traced round's span time less the untraced
    time of the same cells.  It is spread evenly over the spans, split
    between each span and its caller as :func:`span_own_share` measures
    on a no-op, and taken out of the self times, which then sum to the
    untraced time.  Each leaf layer timed alone, with no other span in
    the run, matched its corrected share within 1.5 points on
    fig10-rococo (``hw.detector.edges`` 33.4 % alone, 33.1 % corrected;
    uncorrected 16 %).
    """
    trace, counts, traced_s = traced.trace, traced.counts, traced.host_s
    own_share = traced.span_own_share
    spans = sum(trace.calls.values())
    overhead_s = max(0.0, sum(trace.self_s.values()) - untraced_s / traced.scale)
    per_span_s = _ratio(overhead_s, spans)
    self_s = trace.self_times(own_share * per_span_s, (1.0 - own_share) * per_span_s)
    total = sum(self_s.values())

    def share(names: Sequence[str]) -> float:
        return 100.0 * _ratio(sum(self_s.get(name, 0.0) for name in names), total)

    calls = trace.calls
    picks = counts["steps"]
    stale = counts["stale_pops"]
    values = {f"{layer}.share": share((layer,)) for layer in SHARE_LAYERS}
    values.update({metric: calls[layer] for layer, metric in COUNTED.items()})
    values.update({
        "simulator.steps": picks,
        "simulator.host_ns_per_step": 1e9 * _ratio(untraced_s, picks),
        "sched.stale_pop_ratio": _ratio(stale, picks + stale),
        "txn.commit_ratio": _ratio(counts["commits"], counts["attempts"]),
        "hw.manager.commit_ratio": _ratio(counts["accepted"], counts["decisions"]),
        "hw.detector.edges.addrs_per_call": _ratio(trace.edge_addrs, calls["hw.detector.edges"]),
        "signatures.mask_cache_hit_ratio": _ratio(counts["mask_hits"], counts["mask_lookups"]),
        "cluster.xshard_share": _ratio(calls["cluster.coordinator"], calls["clustertm.commit"]),
        "validation.share": share(VALIDATION_LAYERS),
        "observability.share": share(OBSERVABILITY_LAYERS),
        "trace.overhead_ratio": _ratio(traced_s * traced.scale, untraced_s),
        "trace.unattributed_share": 100.0 * _ratio(traced_s - trace.root_s, traced_s),
    })
    units = per_layer_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    layers = {
        "traced_s": traced_s,
        "span_cost_ns": 1e9 * per_span_s,
        "span_cost_own_share": own_share,
        "self_s": dict(sorted(self_s.items(), key=lambda item: -item[1])),
        "uncorrected_self_s": dict(sorted(trace.self_s.items(), key=lambda item: -item[1])),
        "calls": dict(sorted(calls.items())),
        "hw.detector.edges.us_per_call": 1e6 * _ratio(
            self_s.get("hw.detector.edges", 0.0), calls["hw.detector.edges"]
        ),
    }
    return metrics, layers


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: Optional[int] = None,
    golden: Optional[Dict[str, str]] = None,
    scale: float = SCALE,
) -> dict:
    """Every pass over one workload; returns its result document.

    ``trace``: 0 runs the memory round, 1 the traced round, None both.
    """
    specs = specs_for(workload, seed, scale)
    # The memory and traced rounds cover the first input seed's cells;
    # running first, they also warm the process up for the timed rounds.
    first_specs = specs[: len(workload.cells)]
    check = Checker(load_golden() if golden is None else golden)
    problems: List[str] = []
    if trace != 1:
        peak_mb = _memory_round(first_specs, check)
    if trace != 0:
        traced = _traced_round(first_specs, check, problems)
    round_s, round_setup_s, cell_s, calibration = _timed_rounds(specs, check, seconds)
    commits = sum(check.commits.values())
    speed = calibration.scale
    untraced_s = speed * _fastest_sum(cell_s, cell_s)
    q1, _, q3 = statistics.quantiles([_ratio(commits, speed * s) for s in round_s], n=4)
    metrics = {
        "txn_per_s": {
            "value": _ratio(commits, untraced_s), "unit": END_TO_END["txn_per_s"],
            "q1": q1, "q3": q3, "n": len(round_s),
        },
        "setup_s": {
            "value": speed * statistics.median(round_setup_s), "unit": END_TO_END["setup_s"],
        },
    }
    result = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "commits": commits,
        "host_scale": speed,
        "rounds": {
            "host_s": round_s, "setup_s": round_setup_s, "calibration_s": calibration.samples,
        },
        "cell_host_s": dict(cell_s),
        "metrics": metrics,
    }
    if trace != 1:
        metrics["peak_mem_mb"] = {"value": peak_mb, "unit": END_TO_END["peak_mem_mb"]}
    if trace != 0:
        layer_metrics, result["layers"] = _layer_metrics(
            traced, speed * _fastest_sum(cell_s, map(cell_key, first_specs))
        )
        metrics.update(layer_metrics)
        uncovered = layer_metrics["trace.unattributed_share"]["value"] / 100.0
        if uncovered >= MAX_UNATTRIBUTED:
            problems.append(f"spans left {uncovered:.1%} of the traced round unattributed")
    result.update({
        "golden": check.golden_status,
        "attempted": len(specs),
        "failed": sorted(check.failed),
        "problems": problems,
        "correct": not check.failed and not problems,
    })
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _reported(trace: Optional[int]) -> List[str]:
    """The metrics the last output line carries for a ``--trace`` mode."""
    names = []
    if trace != 1:
        names += list(END_TO_END)
    if trace != 0:
        names += list(per_layer_units())
    return names


def report(results: Sequence[dict], trace: Optional[int], out: TextIO = sys.stdout) -> dict:
    """Print every metric as ``name unit value`` and return the object
    the last output line holds."""
    prefixed = len(results) > 1
    line_metrics = {}
    for result in results:
        print(
            f"# {result['workload']} seed={result['seed']} golden={result['golden']} "
            f"cells={result['attempted']} failed={len(result['failed'])} "
            f"commits={result['commits']} rounds={len(result['rounds']['host_s'])}",
            file=out,
        )
        for problem in result["problems"]:
            print(f"# PROBLEM {problem}", file=out)
        for name, metric in result["metrics"].items():
            extra = ""
            if "q1" in metric:
                extra = f"  q1={metric['q1']:.6g} q3={metric['q3']:.6g} n={metric['n']}"
            print(f"{name} {metric['unit']} {metric['value']:.6g}{extra}", file=out)
        layers = result.get("layers")
        if layers:
            print("# where the time goes (self time, tracer cost taken out)", file=out)
            total = sum(layers["self_s"].values())
            for name, seconds in list(layers["self_s"].items())[:10]:
                print(f"#   {name:24s} {seconds:8.3f} s {100 * seconds / total:5.1f} %", file=out)
        prefix = f"{result['workload']}." if prefixed else ""
        for name in _reported(trace):
            metric = result["metrics"][name]
            line_metrics[prefix + name] = {"value": metric["value"], "unit": metric["unit"]}
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(len(result["failed"]) for result in results),
        "metrics": line_metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end host-time benchmark with per-layer attribution."
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=1, help="workload input seed (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help=f"timed rounds run until this much time has passed (default {DEFAULT_SECONDS})",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics only; 1: per-layer metrics only; default: both",
    )
    parser.add_argument("--out", type=Path, help="write the full result document here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")

    # One thread: keep numpy's BLAS pools from starting workers.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    use_source_tree()
    golden = load_golden()
    results = [
        run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace, golden)
        for name in (args.workload or WORKLOADS)
    ]
    line = report(results, args.trace)
    if args.out is not None:
        document = {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            **{key: line[key] for key in ("correct", "attempted", "failed")},
            "workloads": {result["workload"]: result for result in results},
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
