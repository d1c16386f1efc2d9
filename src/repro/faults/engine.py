"""The chaos engine: a fault-injecting wrapper over the FPGA engine.

:class:`ChaosValidationEngine` presents the exact ``submit(request,
now_ns) -> ValidationResponse`` surface of
:class:`repro.hw.FpgaValidationEngine` (unknown attributes delegate to
the wrapped engine), so no call site changes.  Around each submission
it injects the plan's faults:

* link legs go through :class:`FaultyLink` (drops, spikes, CRC-failing
  verdicts, each with bounded retransmission + exponential backoff);
* during a **stall** window the pipeline accepts but does not service
  — arrivals queue behind the window's end;
* a **reset** instant wipes the manager's signature history and
  reachability matrix via :meth:`ValidationManager.reset`, whose
  conservative floor keeps every later verdict sound.

**Timeouts.** When ``timeout_ns`` is set and a response cannot reach
the CPU by ``now + timeout_ns`` (or the link gave up), ``submit``
raises :class:`ValidationTimeout` instead of blocking forever — the
hook the :class:`~repro.faults.degradation.DegradationManager` ladder
is built on.  The exception says whether the verdict was *applied*
(the engine decided; only the response was lost) so resubmission stays
exactly-once: decided labels are remembered and a resubmitted request
is served from the modeled response buffer, never re-validated.

**Determinism contract.** All draws come from ``random.Random``
streams seeded by the plan and consumed in submission order; health
probes draw from an independent stream so probing never perturbs the
data path.  With a null plan, ``submit`` is a direct pass-through —
bit-identical verdicts *and* timings.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Dict, Hashable, Optional

from ..core.footprint import Decision
from ..hw.engine import FpgaValidationEngine, ValidationResponse
from ..hw.manager import ValidationRequest
from .link import FaultyLink, LinkDown
from .plan import FaultPlan

#: cycles to look a decided label up in the modeled response buffer.
REPLAY_CYCLES = 1
#: stream separator for the probe RNG (golden-ratio constant).
_PROBE_STREAM = 0x9E3779B9


class ValidationTimeout(Exception):
    """No verdict reached the CPU in time for one submission attempt.

    ``at_ns`` is when the CPU gives up waiting; ``applied`` tells the
    caller whether the engine decided the request (resubmitting will
    replay the recorded verdict rather than re-validate).
    """

    def __init__(self, at_ns: float, applied: bool, label: Hashable):
        super().__init__(f"validation timeout at {at_ns:.0f} ns (applied={applied})")
        self.at_ns = at_ns
        self.applied = applied
        self.label = label


class ChaosValidationEngine:
    """Fault-injecting drop-in for :class:`FpgaValidationEngine`."""

    def __init__(
        self,
        inner: Optional[FpgaValidationEngine] = None,
        plan: Optional[FaultPlan] = None,
        timeout_ns: Optional[float] = None,
    ):
        self.inner = inner if inner is not None else FpgaValidationEngine()
        self.plan = plan if plan is not None else FaultPlan()
        #: emission surface for ``fault`` events — anything satisfying
        #: :class:`repro.runtime.driver.Emitter` (set by the owning
        #: backend's ``attach``; None outside a simulation).  Injections
        #: are published as per-kind count deltas around each submission.
        self.bus = None
        #: per-request CPU-side patience; None blocks forever (faults
        #: then only stretch latency, they never raise).
        self.timeout_ns = timeout_ns
        #: injected-fault tally by kind (drop/spike/corrupt/stall/reset).
        self.fault_counts: Counter = Counter()
        self.stats_timeouts = 0
        self._rng = random.Random(self.plan.seed)
        self._probe_rng = random.Random(self.plan.seed ^ _PROBE_STREAM)
        self.faulty_link = FaultyLink(
            self.inner.link, self.plan, self._rng, self.fault_counts
        )
        #: decided verdicts by label — the modeled response buffer that
        #: makes resubmission idempotent (exactly-once validation).
        self._decided: Dict[Hashable, Decision] = {}
        self._resets_fired = 0

    # ------------------------------------------------------------------
    @property
    def link_retries(self) -> int:
        return self.faulty_link.retries

    def recall(self, label: Hashable) -> Optional[Decision]:
        """The decided verdict for *label*, if the engine has one."""
        return self._decided.get(label)

    # ------------------------------------------------------------------
    def submit(self, request: ValidationRequest, now_ns: float) -> ValidationResponse:
        if self.plan.is_null:
            return self.inner.submit(request, now_ns)
        bus = self.bus
        if bus is None or not bus.wants("fault"):
            return self._submit(request, now_ns)
        before = dict(self.fault_counts)
        try:
            return self._submit(request, now_ns)
        finally:
            self._publish_faults(bus, before, now_ns)

    def _submit(self, request: ValidationRequest, now_ns: float) -> ValidationResponse:
        self._fire_resets(now_ns)
        deadline = now_ns + self.timeout_ns if self.timeout_ns is not None else math.inf

        if request.label in self._decided:
            return self._retransmit(request, now_ns, deadline)

        lines = self.inner.link.lines_for_addresses(max(1, request.n_addresses))
        try:
            request_leg = self.faulty_link.request_ns(lines)
        except LinkDown as down:
            self.stats_timeouts += 1
            raise ValidationTimeout(
                min(deadline, now_ns + down.elapsed_ns), applied=False, label=request.label
            ) from None

        # Feed the inner engine a send time late by exactly the injected
        # request-leg overhead: its own (pristine) link then lands the
        # arrival at now + request_leg, and its queueing model applies
        # unchanged.
        extra_request = request_leg - self.inner.link.request_ns(lines)
        arrival = now_ns + request_leg
        stall_end = self.plan.stall_end(arrival)
        if stall_end > arrival:
            self.fault_counts["stall"] += 1
            self.inner._pipeline_free_ns = max(self.inner._pipeline_free_ns, stall_end)

        response = self.inner.submit(request, now_ns + extra_request)
        self._decided[request.label] = response.verdict

        try:
            response_extra = self.faulty_link.response_ns(1) - self.inner.link.response_ns(1)
        except LinkDown:
            self.stats_timeouts += 1
            raise ValidationTimeout(deadline, applied=True, label=request.label) from None

        ready = response.ready_ns + response_extra
        if ready > deadline:
            self.stats_timeouts += 1
            raise ValidationTimeout(deadline, applied=True, label=request.label)
        if response_extra == 0.0 and extra_request == 0.0 and response.sent_ns == now_ns:
            return response
        return ValidationResponse(
            verdict=response.verdict,
            sent_ns=now_ns,
            arrived_ns=response.arrived_ns,
            started_ns=response.started_ns,
            finished_ns=response.finished_ns,
            ready_ns=ready,
        )

    # ------------------------------------------------------------------
    def _retransmit(
        self, request: ValidationRequest, now_ns: float, deadline: float
    ) -> ValidationResponse:
        """Serve a resubmitted label from the modeled response buffer.

        The retransmission still crosses the (faulty) link both ways
        and a stalled engine cannot answer it — only re-*validation*
        is skipped, keeping the manager exactly-once.
        """
        verdict = self._decided[request.label]
        try:
            arrival = now_ns + self.faulty_link.request_ns(1)
            arrival = self.plan.stall_end(arrival)
            served = self.inner.clock.align_up(arrival) + self.inner.clock.cycles_to_ns(
                REPLAY_CYCLES
            )
            ready = served + self.faulty_link.response_ns(1)
        except LinkDown as down:
            self.stats_timeouts += 1
            raise ValidationTimeout(
                min(deadline, now_ns + down.elapsed_ns), applied=True, label=request.label
            ) from None
        if ready > deadline:
            self.stats_timeouts += 1
            raise ValidationTimeout(deadline, applied=True, label=request.label)
        return ValidationResponse(
            verdict=verdict,
            sent_ns=now_ns,
            arrived_ns=arrival,
            started_ns=served,
            finished_ns=served,
            ready_ns=ready,
        )

    def _publish_faults(self, bus, before: Dict[str, int], now_ns: float) -> None:
        """Emit one ``fault`` event per kind injected since *before*.

        Lazily imported to keep the faults<->runtime import cycle
        one-directional; only runs when a subscriber wants faults.
        """
        from ..runtime.events import SimEvent

        for kind in sorted(self.fault_counts):
            delta = self.fault_counts[kind] - before.get(kind, 0)
            if delta:
                bus.emit(
                    SimEvent(
                        "fault", -1, now_ns, data={"kind": kind, "count": delta}
                    )
                )

    # ------------------------------------------------------------------
    def probe(self, now_ns: float) -> bool:
        """Would a 1-line health ping answer promptly at *now_ns*?

        Draws from an independent RNG stream so probing frequency never
        changes the data path's fault schedule.
        """
        bus = self.bus
        if bus is not None and bus.wants("fault"):
            before = dict(self.fault_counts)
            try:
                return self._probe(now_ns)
            finally:
                self._publish_faults(bus, before, now_ns)
        return self._probe(now_ns)

    def _probe(self, now_ns: float) -> bool:
        self._fire_resets(now_ns)
        arrival = now_ns + self.inner.link.request_ns(1)
        if self.plan.stall_end(arrival) > arrival:
            return False
        if self.plan.drop_rate and self._probe_rng.random() < self.plan.drop_rate:
            return False
        return True

    def _fire_resets(self, now_ns: float) -> None:
        schedule = self.plan.reset_at
        while self._resets_fired < len(schedule) and schedule[self._resets_fired] <= now_ns:
            self.inner.manager.reset()
            self._decided.clear()  # the response buffer reboots too
            self.fault_counts["reset"] += 1
            self._resets_fired += 1

    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        # Everything not overridden (manager, clock, stats_requests,
        # mean_round_trip_ns, ...) belongs to the wrapped engine.
        return getattr(self.inner, name)
