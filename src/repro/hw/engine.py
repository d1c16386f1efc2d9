"""The assembled offload engine with pipeline timing (Fig. 5 / Fig. 6).

This is the component ROCoCoTM's runtime talks to: it wraps
:class:`ValidationManager` (the functional decision) with the timing
model of the fully-pipelined FPGA datapath and the CCI link:

1. the request (read+write addresses, one cacheline per 8 addresses)
   crosses the link (~200 ns + streaming beats);
2. the detector consumes one cacheline of addresses per cycle against
   all W signatures in parallel, so a transaction occupies the
   pipeline for ``ceil(n_addresses / 8)`` cycles — the initiation
   interval between back-to-back validations;
3. the manager adds two cycles (cycle test, matrix/bookkeeping
   update+broadcast);
4. the verdict crosses back (~400 ns).

Because the pipeline never back-pressures the pull queue (§5.1),
requests queue *inside* the engine when they arrive faster than the
initiation interval; the paper's claim quantified in Fig. 6(d)/Fig. 11
is that even then the amortized per-transaction validation time stays
well under a microsecond — which this model lets the benchmarks check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..core.footprint import Decision
from ..signatures import SignatureConfig
from .clock import ClockDomain
from .detector import ConflictDetector
from .link import ADDRESSES_PER_CACHELINE, InterconnectLink, harp2_cci_link
from .manager import ValidationManager, ValidationRequest

MANAGER_CYCLES = 2  # cycle test + matrix/bookkeeping update


@dataclass(frozen=True)
class ValidationResponse:
    """A verdict plus its complete timing breakdown (all ns)."""

    verdict: Decision
    sent_ns: float
    arrived_ns: float
    started_ns: float
    finished_ns: float
    ready_ns: float

    @property
    def round_trip_ns(self) -> float:
        return self.ready_ns - self.sent_ns

    @property
    def queueing_ns(self) -> float:
        return self.started_ns - self.arrived_ns


class FpgaValidationEngine:
    """Transaction-level model of the pipelined ROCoCo validator.

    ``manager``: drive this :class:`ValidationManager` instead of
    building one from *window* and *config* (which it then ignores) —
    how a failover engine shares the primary's decision state.
    """

    def __init__(
        self,
        window: int = 64,
        config: Optional[SignatureConfig] = None,
        clock: Optional[ClockDomain] = None,
        link: Optional[InterconnectLink] = None,
        manager: Optional[ValidationManager] = None,
    ):
        if manager is None:
            manager = ValidationManager(
                ConflictDetector(config or SignatureConfig(), window)
            )
        self.manager = manager
        self.clock = clock or ClockDomain()
        self.link = link or harp2_cci_link()
        #: the owning backend's emission surface, wired by
        #: ``RococoTMBackend.attach`` — anything satisfying
        #: :class:`repro.runtime.driver.Emitter` (an EventBus, a full
        #: Driver), or None when driven standalone.  The base engine
        #: publishes nothing itself; subclasses (the chaos engine) use
        #: it for their wants()-gated fault streams.
        self.bus = None
        self._pipeline_free_ns = 0.0
        self.stats_busy_cycles = 0
        self.stats_requests = 0
        self.total_round_trip_ns = 0.0
        self.total_queueing_ns = 0.0

    # ------------------------------------------------------------------
    def occupancy_cycles(self, request: ValidationRequest) -> int:
        """Initiation interval: detector cachelines for this request."""
        return max(1, math.ceil(request.n_addresses / ADDRESSES_PER_CACHELINE))

    def submit(self, request: ValidationRequest, now_ns: float) -> ValidationResponse:
        """Validate *request* sent from the CPU at *now_ns*.

        Requests must be submitted in non-decreasing time order (the
        pull queue is FIFO); the engine models queueing internally.
        """
        return self._through_pipeline(request, now_ns, self.manager.validate)

    def certify(self, request: ValidationRequest, now_ns: float) -> ValidationResponse:
        """Cross-shard prepare: same datapath timing as :meth:`submit`
        — link crossing, pipeline queueing, detector occupancy, manager
        cycles, verdict return — but the decision is the *non-mutating*
        :meth:`ValidationManager.certify` freshness check.  A prepare
        occupies the pipeline like any validation (the detector still
        streams the request's cachelines), so local single-shard
        traffic queues behind it exactly as Fig. 5 would."""
        return self._through_pipeline(request, now_ns, self.manager.certify)

    def _service(
        self, request: ValidationRequest, now_ns: float
    ) -> Tuple[float, float, float]:
        """(arrived, started, finished) of *request* sent at *now_ns*:
        the link crossing, queueing behind the pipeline, detector
        occupancy and manager cycles.  Reserves the pipeline."""
        lines = self.link.lines_for_addresses(max(1, request.n_addresses))
        arrived = now_ns + self.link.request_ns(lines)
        started = max(self.clock.align_up(arrived), self._pipeline_free_ns)

        occupancy = self.occupancy_cycles(request)
        self._pipeline_free_ns = started + self.clock.cycles_to_ns(occupancy)
        finished = started + self.clock.cycles_to_ns(occupancy + MANAGER_CYCLES)
        self.stats_busy_cycles += occupancy + MANAGER_CYCLES
        return arrived, started, finished

    def _through_pipeline(
        self,
        request: ValidationRequest,
        now_ns: float,
        decide: Callable[[ValidationRequest], Decision],
    ) -> ValidationResponse:
        """Time *request* through :meth:`_service` and the return
        link, taking the verdict from *decide*."""
        arrived, started, finished = self._service(request, now_ns)
        ready = finished + self.link.response_ns()

        verdict = decide(request)
        self.stats_requests += 1
        self.total_round_trip_ns += ready - now_ns
        self.total_queueing_ns += started - arrived

        return ValidationResponse(
            verdict=verdict,
            sent_ns=now_ns,
            arrived_ns=arrived,
            started_ns=started,
            finished_ns=finished,
            ready_ns=ready,
        )

    # ------------------------------------------------------------------
    @property
    def mask_cache_stats(self) -> dict:
        """Hit/miss/entry counters of the shared address→query-mask
        cache (see :class:`repro.signatures.SignatureConfig`).  The
        bit-sliced detector looks up each request address once in it
        for the k column indices its AND chain reads, so no address is
        re-hashed after first touch."""
        config = self.manager.detector.config
        return {
            "hits": config.mask_cache_hits,
            "misses": config.mask_cache_misses,
            "entries": config.mask_cache_entries,
        }

    @property
    def mean_round_trip_ns(self) -> float:
        return self.total_round_trip_ns / self.stats_requests if self.stats_requests else 0.0

    @property
    def mean_queueing_ns(self) -> float:
        return self.total_queueing_ns / self.stats_requests if self.stats_requests else 0.0

    @property
    def throughput_limit_per_us(self) -> float:
        """Upper bound on validations per microsecond for 8-address
        transactions — the pipelining headroom of Fig. 6(d)."""
        cycles = max(1, math.ceil(8 / ADDRESSES_PER_CACHELINE))
        return 1000.0 / self.clock.cycles_to_ns(cycles)
