"""The command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "kmeans" in out and "ROCoCoTM" in out

    def test_fig7(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "m=512,k=4" in out

    def test_fig9_small(self, capsys):
        assert main(["fig9", "--threads", "4", "--seeds", "2", "--txns", "40"]) == 0
        out = capsys.readouterr().out
        assert "ROCoCo" in out and "collision" in out

    def test_fig10_small(self, capsys):
        assert (
            main(
                [
                    "fig10",
                    "--scale", "0.2",
                    "--threads", "1", "4",
                    "--workloads", "ssca2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Figure 10 - ssca2" in out
        assert "Geomean" in out

    def test_fig11_small(self, capsys):
        assert main(["fig11", "--threads", "4", "--scale", "0.2",
                     "--workloads", "kmeans"]) == 0
        out = capsys.readouterr().out
        assert "validation overhead" in out

    def test_resources(self, capsys):
        assert main(["resources", "--window", "64", "--bits", "512"]) == 0
        out = capsys.readouterr().out
        assert "249442" in out and "200 MHz" in out

    def test_stamp_run(self, capsys):
        assert main(["stamp", "ssca2", "ROCoCoTM", "--threads", "4",
                     "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "ssca2/ROCoCoTM@4t" in out

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["stamp", "ssca2", "NotATm"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestVersionAndExitCodes:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as bail:
            main(["--version"])
        assert bail.value.code == 0
        from repro import __version__

        assert __version__ in capsys.readouterr().out

    def test_unknown_workload_in_trace_exits_one(self, capsys):
        assert main(["trace", "not-a-workload", "ROCoCoTM"]) == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_unknown_backend_in_trace_exits_one(self, capsys):
        assert main(["trace", "vacation", "not-a-backend"]) == 1
        assert "unknown backend" in capsys.readouterr().err

    def test_faults_on_wrong_backend_exits_one(self, capsys):
        assert main(["metrics", "kmeans", "TinySTM", "--faults", "mixed"]) == 1
        assert "ROCoCoTM" in capsys.readouterr().err

    def test_unwritable_out_path_exits_one(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "t.json"
        assert main(["trace", "ssca2", "ROCoCoTM", "--threads", "2",
                     "--scale", "0.2", "--out", str(out)]) == 1
        assert "repro: error" in capsys.readouterr().err

    def test_runtime_errors_become_exit_one(self, capsys, monkeypatch):
        import argparse

        import repro.cli as cli_mod

        def boom(args):
            raise RuntimeError("kaput")

        def stub_parser():
            parser = argparse.ArgumentParser()
            sub = parser.add_subparsers(required=True)
            sub.add_parser("fig7").set_defaults(func=boom)
            return parser

        monkeypatch.setattr(cli_mod, "build_parser", stub_parser)
        assert cli_mod.main(["fig7"]) == 1
        assert "kaput" in capsys.readouterr().err


class TestTraceCli:
    def test_trace_normalizes_names(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["trace", "stamp-vacation-low", "rococotm",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "spans" in captured
        import json

        payload = json.loads(out.read_text())
        assert payload["otherData"]["workload"] == "vacation"
        assert payload["otherData"]["backend"] == "ROCoCoTM"

    def test_trace_with_faults(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        assert main(["trace", "kmeans", "ROCoCoTM", "--faults", "mixed",
                     "--threads", "2", "--scale", "0.2",
                     "--out", str(out)]) == 0
        import json

        payload = json.loads(out.read_text())
        faults = [
            e for e in payload["traceEvents"]
            if e["ph"] == "i" and e["name"].startswith("fault:")
        ]
        assert faults


class TestMetricsCli:
    def test_metrics_table(self, capsys):
        assert main(["metrics", "ssca2", "ROCoCoTM", "--threads", "2",
                     "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "txn.commits" in out and "hw.validations" in out

    def test_metrics_json(self, capsys):
        import json

        assert main(["metrics", "ssca2", "ROCoCoTM", "--threads", "2",
                     "--scale", "0.2", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) == {"counters", "gauges", "histograms"}

    def test_metrics_out_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        assert main(["metrics", "ssca2", "ROCoCoTM", "--threads", "2",
                     "--scale", "0.2", "--out", str(out)]) == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["counters"]["txn.commits"] > 0


class TestFig10Obs:
    def test_obs_metrics_land_in_stamp_json(self, tmp_path, capsys):
        import json

        stamp = tmp_path / "BENCH_stamp.json"
        assert main(["fig10", "--scale", "0.2", "--threads", "1", "2",
                     "--workloads", "ssca2", "--obs",
                     "--stamp-json", str(stamp)]) == 0
        payload = json.loads(stamp.read_text())
        assert payload["metrics"]["merged"]["counters"]["txn.commits"] > 0
        assert len(payload["metrics"]["cells"]) == payload["n_specs"]

    def test_malformed_source_date_epoch_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
        stamp = tmp_path / "BENCH_stamp.json"
        assert main(["fig10", "--scale", "0.1", "--threads", "1",
                     "--workloads", "ssca2", "--stamp-json", str(stamp)]) == 2
        assert "SOURCE_DATE_EPOCH='abc'" in capsys.readouterr().err
        assert not stamp.exists()


class TestSanitizeCli:
    def test_clean_workload_exits_zero(self, capsys):
        assert main(["sanitize", "ssca2", "ROCoCoTM", "--threads", "4",
                     "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_requires_workload_and_backend(self, capsys):
        assert main(["sanitize"]) == 2
        assert "required" in capsys.readouterr().err

    def test_self_check(self, capsys):
        assert main(["sanitize", "--self-check"]) == 0
        out = capsys.readouterr().out
        assert "write-skew" in out and "FAIL" not in out

    def test_dump_log(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        assert main(["sanitize", "ssca2", "ROCoCoTM", "--threads", "2",
                     "--scale", "0.2", "--dump-log", str(log)]) == 0
        from repro.sanitizer import EventLog

        events = EventLog.load_jsonl(log.read_text())
        assert len(events) > 0

    def test_diff_mode(self, capsys):
        assert main(["sanitize", "ssca2", "ROCoCoTM", "--diff", "global-lock",
                     "--threads", "4", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "vs" in out


class TestLintCli:
    """The TM001-TM004 source rules through ``analyze --rules``."""

    LINT = ["analyze", "--rules", "TM001-TM004"]

    def test_src_is_clean(self, capsys):
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        assert main(self.LINT + [str(src)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_bad_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "cc" / "entropy.py"
        bad.parent.mkdir()
        bad.write_text("import time\nNOW = time.time()\n")
        assert main(self.LINT + [str(bad)]) == 1
        assert "TM001" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(self.LINT + [str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err


class TestSupervisedCli:
    """The --timeout/--max-retries/--resume/--worker-faults flags on
    stamp/chaos/fig10, and the exit-3 quarantine convention."""

    def test_stamp_supervised_ok(self, capsys):
        assert main(["stamp", "kmeans", "TinySTM", "--threads", "2",
                     "--scale", "0.1", "--timeout", "120"]) == 0
        captured = capsys.readouterr()
        assert "supervised: 1 executed" in captured.err
        assert "kmeans/TinySTM@2t" in captured.out

    def test_stamp_poison_cell_exits_three(self, capsys):
        assert main(["stamp", "kmeans", "TinySTM", "--threads", "2",
                     "--scale", "0.1", "--worker-faults", "crash@0",
                     "--max-retries", "0"]) == 3
        captured = capsys.readouterr()
        assert "quarantined cell 0" in captured.err

    def test_stamp_resume_serves_from_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        args = ["stamp", "kmeans", "TinySTM", "--threads", "2",
                "--scale", "0.1", "--resume", journal]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == first  # same result, not re-derived
        assert "1 from journal" in captured.err

    def test_env_defaults_route_through_supervisor(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "120")
        assert main(["stamp", "kmeans", "TinySTM", "--threads", "2",
                     "--scale", "0.1"]) == 0
        assert "supervised:" in capsys.readouterr().err

    def test_bad_env_value_is_rejected(self, monkeypatch):
        # Env defaults are parsed while the parser is built, so a bad
        # value bails like any other usage error (through SystemExit).
        monkeypatch.setenv("REPRO_BENCH_RETRIES", "many")
        with pytest.raises(SystemExit) as bail:
            main(["stamp", "kmeans", "TinySTM", "--threads", "2",
                  "--scale", "0.1"])
        assert "REPRO_BENCH_RETRIES" in str(bail.value.code)

    def test_chaos_quarantine_row_and_exit(self, capsys):
        assert main(["chaos", "kmeans", "--schedule", "drop", "spike",
                     "--threads", "2", "--scale", "0.1",
                     "--worker-faults", "crash@0", "--max-retries", "0"]) == 3
        captured = capsys.readouterr()
        assert "QUARANTINED" in captured.out

    def test_fig10_partial_matrix_renders_dashes(self, tmp_path, capsys):
        stamp = tmp_path / "stamp.json"
        # Quarantine one non-baseline cell; the table shows "-" for it
        # and the sweep still exits 3 with a written stamp.
        assert main(["fig10", "--scale", "0.1", "--workloads", "kmeans",
                     "--threads", "1", "4", "--worker-faults", "crash@2",
                     "--max-retries", "0",
                     "--stamp-json", str(stamp)]) == 3
        captured = capsys.readouterr()
        assert "-" in captured.out
        import json

        payload = json.loads(stamp.read_text())
        assert len(payload["quarantined"]) == 1

    def test_fig10_resume_is_bit_identical(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        ref = tmp_path / "ref.json"
        out = tmp_path / "out.json"
        journal = str(tmp_path / "sweep.jsonl")
        # Both runs supervised (--timeout) so the stamp's runner field
        # matches; only the second also resumes from the journal.
        base = ["fig10", "--scale", "0.1", "--workloads", "kmeans",
                "--threads", "1", "4", "--timeout", "120"]
        assert main(base + ["--stamp-json", str(ref)]) == 0
        capsys.readouterr()
        # Interrupted run: only part of the grid reached the journal.
        assert main(["stamp", "kmeans", "sequential", "--scale", "0.1",
                     "--resume", journal]) == 0
        capsys.readouterr()
        assert main(base + ["--stamp-json", str(out), "--resume", journal]) == 0
        assert "from journal" in capsys.readouterr().err
        assert ref.read_bytes() == out.read_bytes()


class TestChaosSanitizeRefusals:
    """``chaos --sanitize`` replays through the single-node harness, which
    has no runner: flags it would silently ignore are refused instead."""

    BASE = ["chaos", "ssca2", "--sanitize", "--schedule", "drop", "--scale", "0.1"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--jobs", "2"],
            ["--cache", "unused-cache"],
            ["--timeout", "120"],
            ["--max-retries", "1"],
            ["--resume", "unused.jsonl"],
            ["--worker-faults", "crash@0"],
            ["--irrevocable-after", "3"],
            ["--shards", "2"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_flag_refused(self, flags, capsys):
        assert main(self.BASE + flags) == 1
        err = capsys.readouterr().err
        assert "single-node" in err and flags[0] in err

    def test_supervision_env_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "120")
        assert main(self.BASE) == 1
        assert "--timeout" in capsys.readouterr().err
