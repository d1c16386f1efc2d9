"""The degradation ladder: resubmission, failover, fail-back, last rung."""

import pytest

from repro.faults import (
    MODE_FPGA,
    MODE_SOFTWARE,
    ChaosValidationEngine,
    DegradationManager,
    DegradationPolicy,
    FaultPlan,
    ValidationTimeout,
    ValidationUnavailable,
    build_chaos_backend,
)
from repro.core import Decision
from repro.hw import FpgaValidationEngine, ValidationRequest, ValidationResponse
from repro.runtime import RococoTMBackend
from repro.runtime.stats import RunStats
from repro.stamp import KmeansWorkload, run_stamp


def request(label=1):
    return ValidationRequest(label=label, read_addrs=(1,), write_addrs=(2,), snapshot=0)


def response(verdict=None, at=100.0):
    return ValidationResponse(
        verdict=verdict or Decision(committed=True),
        sent_ns=at,
        arrived_ns=at,
        started_ns=at,
        finished_ns=at,
        ready_ns=at,
    )


class ScriptedEngine:
    """A primary whose submit follows a script of outcomes.

    Script entries: "ok" returns a committed response, "timeout" raises
    an applied ValidationTimeout 10 us later.  ``healthy`` drives
    probe(); ``buffer`` backs recall().
    """

    def __init__(self, script, healthy=True, buffer=None):
        self.script = list(script)
        self.healthy = healthy
        self.buffer = buffer or {}
        self.submits = 0
        self.probes = 0

    def submit(self, req, now_ns):
        self.submits += 1
        action = self.script.pop(0) if self.script else "ok"
        if action == "timeout":
            raise ValidationTimeout(now_ns + 10_000.0, applied=True, label=req.label)
        return response(at=now_ns + 500.0)

    def probe(self, now_ns):
        self.probes += 1
        return self.healthy

    def recall(self, label):
        return self.buffer.get(label)


class TestPassThrough:
    def test_clean_primary_is_untouched(self):
        primary = ScriptedEngine(["ok"])
        ladder = DegradationManager(primary, software=ScriptedEngine([]))
        out = ladder.submit(request(), 0.0)
        assert out.verdict.committed
        assert ladder.mode == MODE_FPGA
        assert (ladder.timeouts, ladder.resubmits, ladder.failovers) == (0, 0, 0)

    def test_real_engine_pass_through_is_exact(self):
        plain = FpgaValidationEngine()
        ladder = DegradationManager(FpgaValidationEngine())
        assert ladder.submit(request(), 0.0) == plain.submit(request(), 0.0)


class TestResubmission:
    def test_timeouts_within_budget_recover(self):
        primary = ScriptedEngine(["timeout", "timeout", "ok"])
        stats = RunStats()
        ladder = DegradationManager(
            primary, software=ScriptedEngine([]), policy=DegradationPolicy(max_resubmits=2)
        )
        out = ladder.submit(request(), 0.0, stats)
        assert out.verdict.committed
        assert ladder.mode == MODE_FPGA
        assert ladder.timeouts == 2 and ladder.resubmits == 2
        assert stats.validation_timeouts == 2 and stats.validation_resubmits == 2
        assert primary.submits == 3

    def test_each_resubmission_starts_after_the_timeout(self):
        primary = ScriptedEngine(["timeout", "ok"])
        ladder = DegradationManager(primary, software=ScriptedEngine([]))
        out = ladder.submit(request(), 0.0)
        # The retry was issued at the first attempt's give-up instant.
        assert out.ready_ns == 10_000.0 + 500.0


class TestFailover:
    def policy(self, **kw):
        kw.setdefault("max_resubmits", 1)
        return DegradationPolicy(**kw)

    def test_exhausted_budget_fails_over_to_software(self):
        primary = ScriptedEngine(["timeout"] * 5)
        software = ScriptedEngine(["ok"])
        stats = RunStats()
        ladder = DegradationManager(primary, software, self.policy())
        out = ladder.submit(request(), 0.0, stats)
        assert out.verdict.committed
        assert ladder.mode == MODE_SOFTWARE
        assert ladder.failovers == 1 and stats.failovers == 1
        assert ladder.software_validations == 1 and stats.software_validations == 1
        assert software.submits == 1

    def test_failover_honours_the_response_buffer(self):
        # The primary decided the verdict before its response was lost:
        # failover must replay it, not re-validate.
        recorded = Decision(committed=False, reason="cycle")
        primary = ScriptedEngine(["timeout"] * 5, buffer={1: recorded})
        software = ScriptedEngine(["ok"])
        ladder = DegradationManager(primary, software, self.policy())
        out = ladder.submit(request(1), 0.0)
        assert out.verdict is recorded
        assert software.submits == 0

    def test_software_mode_skips_the_primary(self):
        primary = ScriptedEngine(["timeout"] * 5, healthy=False)
        software = ScriptedEngine([])
        ladder = DegradationManager(primary, software, self.policy())
        ladder.submit(request(1), 0.0)
        submits_at_failover = primary.submits
        ladder.submit(request(2), 1_000.0)
        assert primary.submits == submits_at_failover
        assert software.submits == 2

    def test_no_software_raises_unavailable(self):
        primary = ScriptedEngine(["timeout"] * 5)
        ladder = DegradationManager(primary, software=None, policy=self.policy())
        with pytest.raises(ValidationUnavailable) as outage:
            ladder.submit(request(), 0.0)
        # Both attempts' waits are charged before giving up.
        assert outage.value.at_ns == 20_000.0

    def test_disabled_failover_raises_despite_software(self):
        primary = ScriptedEngine(["timeout"] * 5)
        ladder = DegradationManager(
            primary,
            software=ScriptedEngine([]),
            policy=self.policy(software_failover=False),
        )
        with pytest.raises(ValidationUnavailable):
            ladder.submit(request(), 0.0)


class TestFailback:
    def test_green_probes_restore_the_fpga_path(self):
        # Two timeouts exhaust the budget; the primary then recovers.
        primary = ScriptedEngine(["timeout"] * 2)
        software = ScriptedEngine([])
        policy = DegradationPolicy(
            max_resubmits=1, probe_interval_ns=10_000.0, probe_successes=2
        )
        stats = RunStats()
        ladder = DegradationManager(primary, software, policy)
        ladder.submit(request(1), 0.0, stats)
        assert ladder.mode == MODE_SOFTWARE
        # Probes fire only once the interval elapses; two greens flip back.
        ladder.submit(request(2), ladder.failover_at[0] + 11_000.0, stats)
        assert ladder.mode == MODE_SOFTWARE  # one green is not enough
        ladder.submit(request(3), ladder.failover_at[0] + 23_000.0, stats)
        assert ladder.mode == MODE_FPGA
        assert ladder.failbacks == 1 and stats.failbacks == 1
        # The next submission uses the (recovered) primary again.
        out = ladder.submit(request(4), ladder.failover_at[0] + 30_000.0, stats)
        assert out.verdict.committed and primary.submits > 2

    def test_red_probe_resets_the_streak(self):
        primary = ScriptedEngine(["timeout"] * 2, healthy=False)
        policy = DegradationPolicy(
            max_resubmits=1, probe_interval_ns=10_000.0, probe_successes=1
        )
        ladder = DegradationManager(primary, ScriptedEngine([]), policy)
        ladder.submit(request(1), 0.0)
        ladder.submit(request(2), 50_000.0)
        assert ladder.mode == MODE_SOFTWARE
        primary.healthy = True
        ladder.submit(request(3), 100_000.0)
        assert ladder.mode == MODE_FPGA


class TestBackendIntegration:
    """The ladder wired into RococoTMBackend, end to end."""

    def test_sustained_stall_fails_over_and_recovers(self):
        backend = build_chaos_backend("stall", fault_seed=0)
        stats = run_stamp(KmeansWorkload, backend, 4, scale=0.25, seed=1)
        clean = run_stamp(KmeansWorkload, RococoTMBackend(), 4, scale=0.25, seed=1)
        # Progress: the whole workload still commits.
        assert stats.commits == clean.commits
        assert stats.failovers >= 1 and stats.software_validations > 0
        # Recovery: failed back after the stall window ended.
        window_end = backend.engine.plan.stall_windows[0][1]
        assert stats.failbacks >= 1
        assert backend.degradation.failback_at[0] > window_end
        assert backend.degradation.mode == MODE_FPGA

    def test_exhausted_ladder_goes_irrevocable(self):
        backend = build_chaos_backend(
            "stall", fault_seed=0, policy=DegradationPolicy(software_failover=False)
        )
        stats = run_stamp(KmeansWorkload, backend, 4, scale=0.25, seed=1)
        clean = run_stamp(KmeansWorkload, RococoTMBackend(), 4, scale=0.25, seed=1)
        assert stats.commits == clean.commits  # the last rung keeps progress
        assert stats.irrevocable_fallbacks >= 1
        assert stats.aborts_by_cause.get("fpga-unavailable", 0) >= 1
        assert backend.stats_irrevocable_commits >= 1
        # A commit the engine applied but the CPU never learned about
        # occupies a ghost slot on both sides — the counters must stay
        # aligned or the window stops sliding (livelock).
        assert stats.phantom_commits >= 1
        assert backend.global_ts == backend.engine.manager.total_commits

    def test_fault_aborts_back_off_harder(self):
        backend = RococoTMBackend()
        scale = backend.degradation.policy.fault_backoff_scale
        assert backend.abort_backoff_scale("fpga-unavailable") == scale > 1.0
        assert backend.abort_backoff_scale("cpu-miss") == 1.0

    def test_run_finished_harvests_engine_counters(self):
        backend = build_chaos_backend("drop", fault_seed=0)
        stats = run_stamp(KmeansWorkload, backend, 4, scale=0.25, seed=1)
        assert stats.faults_injected["drop"] == backend.engine.fault_counts["drop"] > 0
        assert stats.link_retries == backend.engine.link_retries > 0

    def test_determinism_under_chaos(self):
        def one():
            backend = build_chaos_backend("mixed", fault_seed=3)
            stats = run_stamp(KmeansWorkload, backend, 4, scale=0.25, seed=1)
            return (
                stats.makespan_ns,
                stats.commits,
                dict(stats.aborts_by_cause),
                dict(stats.faults_injected),
                stats.failovers,
            )

        assert one() == one()
