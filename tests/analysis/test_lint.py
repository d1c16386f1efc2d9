"""TM001-TM004, the scoped source rules: each on a negative fixture."""

from pathlib import Path

from repro.analysis import analyze_paths, analyze_source, parse_rules

FIXTURES = Path(__file__).parent / "fixtures"
RULES = parse_rules("TM001-TM004")


def codes(findings):
    return sorted({f.rule for f in findings})


class TestNegativeFixtures:
    def test_tm001_ambient_entropy(self):
        findings, _ = analyze_paths([FIXTURES / "cc" / "tm001_bad_entropy.py"], RULES)
        assert codes(findings) == ["TM001"]
        assert len(findings) >= 3  # import time, random.random, time.time
        assert any("random.random" in f.message for f in findings)

    def test_tm002_mutable_default(self):
        findings, _ = analyze_paths([FIXTURES / "misc" / "tm002_bad_default.py"], RULES)
        assert codes(findings) == ["TM002"]
        assert len(findings) == 2  # list literal + dict() call

    def test_tm003_undeclared_hot_path_mutation(self):
        findings, _ = analyze_paths([FIXTURES / "runtime" / "tm003_bad_backend.py"], RULES)
        assert codes(findings) == ["TM003"]
        roots = {f.message.split("'")[1] for f in findings}
        assert roots == {"self.global_clock", "self.readers"}

    def test_tm004_unfrozen_record(self):
        findings, _ = analyze_paths([FIXTURES / "cc" / "tm004_bad_record.py"], RULES)
        assert codes(findings) == ["TM004"]
        assert {f.message.split("'")[1] for f in findings} == {
            "LeakyView",
            "MutableTrace",
        }

    def test_suppression_marker(self):
        findings, _ = analyze_paths([FIXTURES / "cc" / "suppressed_ok.py"], RULES)
        assert findings == []


class TestScoping:
    def test_tm001_only_inside_validator_dirs(self):
        source = "import time\n\nSTAMP = time.time()\n"
        assert analyze_source(source, "src/repro/cc/clock.py", RULES)
        assert analyze_source(source, "src/repro/bench.py", RULES) == []

    def test_tm001_allows_injected_random(self):
        source = (
            "from random import Random\n\n"
            "def make(seed):\n    return Random(seed)\n"
        )
        assert analyze_source(source, "src/repro/cc/trace.py", RULES) == []

    def test_tm004_only_inside_record_dirs(self):
        source = (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass PlotView:\n    x: int\n"
        )
        assert analyze_source(source, "src/repro/cc/views.py", RULES)
        assert analyze_source(source, "src/repro/plots.py", RULES) == []

    def test_tm003_declaration_silences(self):
        bad = (
            "class CountingBackend:\n"
            "    def __init__(self):\n"
            "        self.hits = 0\n"
            "    def read(self, tid, addr, now):\n"
            "        self.hits += 1\n"
            "        return 0, now\n"
        )
        assert analyze_source(bad, "src/repro/runtime/x.py", RULES)
        declared = bad.replace(
            "class CountingBackend:\n",
            "class CountingBackend:\n    _sanitizer_locked = (\"hits\",)\n",
        )
        assert analyze_source(declared, "src/repro/runtime/x.py", RULES) == []

    def test_syntax_error_reported_not_raised(self):
        findings = analyze_source("def broken(:\n", "src/repro/cc/x.py", RULES)
        assert len(findings) == 1 and findings[0].rule == "TM000"


class TestRepoIsClean:
    def test_src_lints_clean(self):
        root = Path(__file__).resolve().parents[2] / "src"
        findings, _ = analyze_paths([root], RULES)
        assert findings == []
