"""The `repro analyze` command, and the TM001-TM004 rule set it runs in
place of the retired `repro lint` alias."""

import json
from pathlib import Path

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

SEEDED = "import secrets\n\nTOKEN = secrets.token_hex(4)\n"


class TestAnalyzeCli:
    def test_src_is_clean(self, capsys):
        assert main(["analyze", str(SRC)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_seeded_violation_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text(SEEDED)
        assert main(["analyze", str(bad)]) == 1
        assert "TM101" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text(SEEDED)
        assert main(["analyze", str(bad), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert report["files"] == 1
        assert {f["rule"] for f in report["findings"]} == {"TM101"}
        assert report["baselined"] == []

    def test_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text(SEEDED)
        assert main(["analyze", str(bad), "--rules", "TM102"]) == 0
        capsys.readouterr()

    def test_bad_rules_exit_two(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path), "--rules", "TM999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_update_baseline_then_pass(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "mod.py"
        bad.write_text(SEEDED)
        assert main(["analyze", str(bad), "--update-baseline"]) == 0
        assert (tmp_path / "analysis-baseline.json").is_file()
        capsys.readouterr()

        # Baselined debt tolerated (default baseline found in CWD)...
        assert main(["analyze", str(bad)]) == 0
        assert "baselined" in capsys.readouterr().out
        # ...but --no-baseline surfaces it again.
        assert main(["analyze", str(bad), "--no-baseline"]) == 1

    def test_explicit_baseline_missing_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text(SEEDED)
        assert main(
            ["analyze", str(bad), "--baseline", str(tmp_path / "nope.json")]
        ) == 2
        capsys.readouterr()


class TestLintAlias:
    """``analyze --rules TM001-TM004`` selects what ``repro lint`` ran."""

    def test_legacy_rules_only(self, tmp_path, capsys):
        # TM101-only material (entropy outside the TM001 directories)
        # must NOT fail the TM001-TM004 selection.
        bad = tmp_path / "mod.py"
        bad.write_text(SEEDED)
        assert main(["analyze", str(bad), "--rules", "TM001-TM004"]) == 0
        capsys.readouterr()

    def test_tm001_still_fires(self, tmp_path, capsys):
        bad = tmp_path / "cc" / "entropy.py"
        bad.parent.mkdir()
        bad.write_text("import time\nNOW = time.time()\n")
        assert main(["analyze", str(bad), "--rules", "TM001-TM004"]) == 1
        assert "TM001" in capsys.readouterr().out
