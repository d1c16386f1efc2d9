"""Framework behaviors: rule selection, suppressions, the baseline
round trip, the fingerprint cache, and the registry contracts the
runtime asserts on."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    analyze_paths,
    analyze_paths_cached,
    analyze_source,
    apply_baseline,
    baseline_from,
    parse_rules,
    suppressed_rules,
)
from repro.analysis import registry
from repro.analysis.framework import RULE_IDS

REPO = Path(__file__).resolve().parents[2]

BAD_ENTROPY = "import secrets\n\nTOKEN = secrets.token_hex(4)\n"


class TestRuleSelection:
    def test_range_expands(self):
        assert parse_rules("TM001-TM004") == {
            "TM001", "TM002", "TM003", "TM004",
        }

    def test_combo(self):
        assert parse_rules("TM101, TM103-TM104") == {
            "TM101", "TM103", "TM104",
        }

    def test_all_is_none(self):
        assert parse_rules(None) is None
        assert parse_rules("all") is None

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            parse_rules("TM999")

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            parse_rules("TM001-banana")

    def test_catalogue_is_complete(self):
        assert RULE_IDS == (
            "TM000", "TM001", "TM002", "TM003", "TM004",
            "TM101", "TM102", "TM103", "TM104", "TM105", "TM106",
        )


class TestSuppressions:
    def test_syntax_error_is_tm000(self):
        findings = analyze_source("def broken(:\n", "x.py")
        assert [f.rule for f in findings] == ["TM000"]

    def test_targeted_suppression(self):
        source = "import secrets  # tm: ignore[TM101]\n"
        assert analyze_source(source, "x.py") == []

    def test_wrong_rule_id_does_not_suppress(self):
        source = "import secrets  # tm: ignore[TM102]\n"
        assert [f.rule for f in analyze_source(source, "x.py")] == ["TM101"]

    def test_bare_ignore_suppresses_all(self):
        assert analyze_source("import secrets  # tm: ignore\n", "x.py") == []

    def test_parser(self):
        assert suppressed_rules("x = 1") is None
        assert suppressed_rules("x  # tm: ignore") == set()
        assert suppressed_rules("x  # tm: ignore[TM101, TM102]") == {
            "TM101", "TM102",
        }


class TestBaseline:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(BAD_ENTROPY)
        findings, _ = analyze_paths([target])
        assert len(findings) == 1  # the secrets import

        baseline_file = tmp_path / "baseline.json"
        baseline_from(findings).dump(baseline_file)
        reloaded = Baseline.load(baseline_file)
        new, baselined = apply_baseline(findings, reloaded)
        assert new == [] and len(baselined) == 1

    def test_baseline_survives_line_shifts(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(BAD_ENTROPY)
        findings, _ = analyze_paths([target])
        baseline = baseline_from(findings)

        # Unrelated edits above the finding must not resurrect it.
        target.write_text("X = 1\nY = 2\n" + BAD_ENTROPY)
        findings, _ = analyze_paths([target])
        new, baselined = apply_baseline(findings, baseline)
        assert new == [] and len(baselined) == 1

    def test_second_identical_violation_is_new(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(BAD_ENTROPY)
        baseline = baseline_from(analyze_paths([target])[0])

        # A *new* copy of a baselined line still fails: entries are a
        # multiset consumed one-for-one, even when the source context
        # is byte-identical.
        target.write_text(BAD_ENTROPY + "import secrets\n")
        findings, _ = analyze_paths([target])
        new, baselined = apply_baseline(findings, baseline)
        assert len(baselined) == 1 and len(new) == 1

    def test_version_check(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            Baseline.load(bad)


class TestResultCache:
    def test_warm_run_hits(self, tmp_path):
        target = REPO / "src" / "repro" / "txlib"
        cache = tmp_path / "cache.json"
        cold, files, hit = analyze_paths_cached([target], cache_path=cache)
        assert not hit and files > 0
        warm, warm_files, warm_hit = analyze_paths_cached(
            [target], cache_path=cache
        )
        assert warm_hit and warm_files == files and warm == cold

    def test_paths_outside_package_bypass(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("X = 1\n")
        cache = tmp_path / "cache.json"
        _, _, hit = analyze_paths_cached([target], cache_path=cache)
        assert not hit
        _, _, hit = analyze_paths_cached([target], cache_path=cache)
        assert not hit  # fingerprint does not cover tmp_path: never cached

    def test_rule_selection_keys_cache(self, tmp_path):
        target = REPO / "src" / "repro" / "txlib"
        cache = tmp_path / "cache.json"
        analyze_paths_cached([target], {"TM101"}, cache_path=cache)
        _, _, hit = analyze_paths_cached([target], {"TM102"}, cache_path=cache)
        assert not hit


class TestRepoIsClean:
    def test_src_analyzes_clean(self):
        findings, files = analyze_paths([REPO / "src" / "repro"])
        assert findings == []
        assert files > 100


class TestRegistryContracts:
    def test_event_kinds_shared_with_runtime(self):
        from repro.runtime.events import EVENT_KINDS

        assert EVENT_KINDS is registry.EVENT_KINDS

    def test_history_kinds_shared_by_all_subscribers(self):
        from repro.runtime import recording
        from repro.sanitizer import dynamic, events

        assert set(registry.HISTORY_KINDS) <= set(registry.EVENT_KINDS)
        for module in (recording, dynamic, events):
            assert module.HISTORY_KINDS is registry.HISTORY_KINDS, module

    def test_check_event(self):
        assert registry.check_event("commit", None) is None
        assert registry.check_event(
            "fault", {"kind": "x", "count": 1}
        ) is None
        assert "undeclared" in registry.check_event("nope", None)
        assert "requires a data payload" in registry.check_event(
            "validate", None
        )
        assert "does not carry" in registry.check_event("commit", {"x": 1})
        assert "missing count" in registry.check_event("fault", {"kind": "x"})

    def test_check_metric(self):
        assert registry.check_metric("txn.commits", registry.COUNTER) is None
        assert registry.check_metric(
            "txn.aborts.fpga-cycle", registry.COUNTER
        ) is None
        assert "undeclared" in registry.check_metric(
            "txn.nope", registry.COUNTER
        )
        assert "histogram" in registry.check_metric(
            "hw.validation_ns", registry.GAUGE
        )

    def test_emit_asserts_on_contract_breach(self):
        from repro.runtime.events import EventBus, SimEvent

        bus = EventBus()
        bus.emit(SimEvent("commit", tid=0, time=0.0))  # fine
        with pytest.raises(AssertionError):
            bus.emit(SimEvent("comit", tid=0, time=0.0))
        with pytest.raises(AssertionError):
            bus.emit(SimEvent("commit", tid=0, time=0.0, data={"x": 1}))
        with pytest.raises(AssertionError):
            bus.emit(SimEvent("fault", tid=-1, time=0.0, data={"kind": "x"}))
