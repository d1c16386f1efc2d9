"""The CLI's golden: its option surface and the output of pinned runs.

``cli.json`` pins two things:

* ``surface`` — every verb's options as data: option strings, dest,
  default, type name, choices, nargs, metavar, help, and the
  ``REPRO_*`` variable (if any) that supplies the default.  Captured
  with every ``REPRO_*`` variable cleared.  Data, not ``--help`` text:
  argparse formats help differently across Python versions.
* ``commands`` — the exit code and the sha256 of stdout of the
  ``python -m repro`` invocations CI runs, in-process at scale 0.1.
  ``trace`` also pins its payload, parsed and re-dumped compactly with
  sorted keys, so the trace writer's formatting is free to change.

Regenerate only when the CLI is meant to change, and say why in the
same commit.  From the repository root::

    PYTHONPATH=src python -m tests.golden.test_cli_golden
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from repro.cli import build_parser, main

GOLDEN = Path(__file__).with_name("cli.json")

#: every REPRO_* name a user might expect the CLI to read.  The last
#: three are benchmark-only knobs: the surface pins that no CLI flag
#: takes its default from them.
ENV_PROBES = (
    "REPRO_SHARDS",
    "REPRO_BENCH_TIMEOUT",
    "REPRO_BENCH_RETRIES",
    "REPRO_BENCH_RESUME",
    "REPRO_BENCH_WORKER_FAULTS",
    "REPRO_BENCH_JOBS",
    "REPRO_BENCH_CACHE",
    "REPRO_BENCH_STAMP",
)

COMMANDS = (
    "stamp kmeans ROCoCoTM --threads 4 --scale 0.1",
    "stamp ssca2 ClusterTM --threads 8 --shards 2 --faults drop --scale 0.1",
    "chaos kmeans --threads 4 --scale 0.1",
    "chaos kmeans --sanitize --threads 4 --scale 0.1",
    "sanitize kmeans ROCoCoTM --faults stall --threads 4 --scale 0.1",
    "metrics ssca2 ClusterTM --threads 8 --shards 2 --scale 0.1 --json",
    "trace stamp-vacation-low rococotm --threads 4 --scale 0.1",
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _verbs(parser):
    yield "repro", None, parser
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    for name, verb in sub.choices.items():
        yield name, helps.get(name), verb


def _options(parser):
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        yield action


def _defaults():
    return {
        (name, action.dest): action.default
        for name, _, verb in _verbs(build_parser())
        for action in _options(verb)
    }


def cli_surface() -> dict:
    """Every verb's options as JSON-ready data (call with REPRO_* unset)."""
    base = _defaults()
    env_of = {}
    for env in ENV_PROBES:
        os.environ[env] = "3"
        try:
            probed = _defaults()
        finally:
            del os.environ[env]
        for key, default in probed.items():
            if default != base[key]:
                env_of.setdefault(key, []).append(env)
    surface = {}
    for name, help_text, verb in _verbs(build_parser()):
        surface[name] = {
            "help": help_text,
            "options": [
                {
                    "option_strings": list(action.option_strings),
                    "dest": action.dest,
                    "default": action.default,
                    "type": getattr(action.type, "__name__", None),
                    "choices": None if action.choices is None else list(action.choices),
                    "nargs": action.nargs,
                    "metavar": action.metavar,
                    "help": action.help,
                    "env": env_of.get((name, action.dest), []),
                }
                for action in _options(verb)
            ],
        }
    return json.loads(json.dumps(surface))


def _run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        exit_code = main(argv)
    return exit_code, out.getvalue()


def command_digests() -> dict:
    """Exit code and stdout digest of every pinned command."""
    digests = {}
    for command in COMMANDS:
        argv = command.split()
        if argv[0] != "trace":
            exit_code, stdout = _run(argv)
            digests[command] = {"exit": exit_code, "stdout": _sha256(stdout)}
            continue
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            exit_code, stdout = _run(argv + ["--out", path])
            with open(path) as fh:
                payload = json.load(fh)
        digests[command] = {
            "exit": exit_code,
            "stdout": _sha256(stdout.replace(path, "trace.json")),
            "payload": _sha256(
                json.dumps(payload, sort_keys=True, separators=(",", ":"))
            ),
        }
    return digests


def golden_text() -> str:
    document = {"commands": command_digests(), "surface": cli_surface()}
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def _clear_repro_env(delete):
    for name in sorted(os.environ):
        if name.startswith("REPRO_"):
            delete(name)


def test_surface_reproduced(monkeypatch):
    _clear_repro_env(monkeypatch.delenv)
    assert cli_surface() == json.loads(GOLDEN.read_text())["surface"]


def test_commands_reproduced(monkeypatch):
    _clear_repro_env(monkeypatch.delenv)
    assert command_digests() == json.loads(GOLDEN.read_text())["commands"]


if __name__ == "__main__":
    _clear_repro_env(os.environ.pop)
    GOLDEN.write_text(golden_text())
    print(f"wrote {GOLDEN}")
