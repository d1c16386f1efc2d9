"""The golden oracle: committed bytes every change must reproduce.

``golden.json`` pins the simulated machine's determinism in two parts:

* ``stamps`` — the fig10 mini-grid stamp (kmeans + ssca2, threads 1
  and 4, scale 0.1, shards 1 and 2), built by ``repro fig10
  --stamp-json`` itself (``matrix_specs`` -> ``SerialRunner`` ->
  ``bench_stamp_payload``).  Only ``version``/``n_specs``/``specs``/
  ``cells`` are kept: the provenance fields change with every source
  edit or interpreter.
* ``sched_digests`` — per (backend, seed) sha256 of the scheduler grid
  in tests/runtime/test_sched.py (:func:`grid_digest`).

Regenerate only when a change is meant to move simulated results, and
say why in the same commit.  From the repository root::

    PYTHONPATH=src python -m tests.golden.test_golden
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from repro.cli import main
from tests.runtime.test_sched import GRID_BACKENDS, grid_digest

GOLDEN = Path(__file__).with_name("golden.json")

STAMP_FIELDS = ("version", "n_specs", "specs", "cells")
SHARDS = (1, 2)
SEEDS = (0, 1)


def fig10_stamp(shards: int) -> dict:
    """The mini-grid stamp for one shard count, via the CLI."""
    argv = [
        "fig10", "--scale", "0.1", "--workloads", "kmeans", "ssca2",
        "--threads", "1", "4", "--shards", str(shards),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "BENCH_stamp.json")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            exit_code = main(argv + ["--stamp-json", out])
        assert exit_code == 0, f"repro {' '.join(argv)} exited {exit_code}"
        with open(out) as fh:
            stamp = json.load(fh)
    return {key: stamp[key] for key in STAMP_FIELDS}


def golden_text() -> str:
    document = {
        "sched_digests": {
            f"{factory.name}/seed={seed}": grid_digest(factory, seed)
            for factory in GRID_BACKENDS
            for seed in SEEDS
        },
        "stamps": {f"shards={shards}": fig10_stamp(shards) for shards in SHARDS},
    }
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def test_golden_reproduced(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    GOLDEN.write_text(golden_text())
    print(f"wrote {GOLDEN}")
