"""The trace-level validators' golden: Fig. 9, the window ablation and
batch validation.

``golden.json`` and ``commit_paths.json`` run the simulated machine;
neither reaches the trace-model ROCoCo validators behind Fig. 9 and the
window and batch ablations.  ``fig09_paths.json`` pins:

* ``fig9`` — every ``MicroPoint`` of
  ``figure9_sweep(threads=(4, 16), seeds=3, n_txns=60)``;
* ``window`` — commits, aborts and the sha256 of the per-transaction
  decision list of ``RococoCC(16, window=w)`` on
  ``generate_trace(n_txns=150, ops_per_txn=12, locations=256, seed=s)``
  for w in {2, 8, 0} (0 is unbounded) and s in {0, 1, 2};
* ``batch`` — ``bench_ablation_batch``'s generator at 64 transactions:
  per batch of 16, the committed and aborted labels of a
  ``BatchRococoValidator`` and the greedy ``RococoValidator``'s commit
  indices, plus the greedy validator's final ``serialization_order``.

Regenerate only when a change is meant to move these verdicts, and say
why in the same commit.  From the repository root::

    PYTHONPATH=src python -m tests.golden.test_fig09_paths
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.bench import figure9_sweep
from repro.cc import RococoCC, generate_trace
from repro.core import BatchRococoValidator, Footprint, RococoValidator

GOLDEN = Path(__file__).with_name("fig09_paths.json")

WINDOWS = (2, 8, 0)
WINDOW_SEEDS = (0, 1, 2)
CONCURRENCY = 16
BATCH_OPS = (8, 16, 24)
BATCH_SEEDS = (0, 1, 2)
BATCH_TXNS = 64


def _window_cell(window: int, seed: int) -> dict:
    trace = generate_trace(n_txns=150, ops_per_txn=12, locations=256, seed=seed)
    result = RococoCC(CONCURRENCY, window=window).run(trace)
    decisions = "".join("1" if ok else "0" for ok in result.decisions)
    return {
        "commits": result.commits,
        "aborts": result.aborts,
        "decisions": hashlib.sha256(decisions.encode("ascii")).hexdigest(),
    }


def _batch_cell(ops_per_txn: int, seed: int) -> dict:
    """The loop of ``bench_ablation_batch._run_pair`` for one trace."""
    txns = list(
        generate_trace(
            n_txns=BATCH_TXNS, ops_per_txn=ops_per_txn, locations=256, seed=seed
        )
    )
    greedy = RococoValidator()
    batched = BatchRococoValidator()
    batches = []
    for start in range(0, len(txns), CONCURRENCY):
        window = txns[start : start + CONCURRENCY]
        g_snapshot = greedy.committed_count
        greedy_indices = [
            greedy.submit(
                Footprint.of(t.read_set, t.write_set, g_snapshot, label=t.txn)
            ).commit_index
            for t in window
        ]
        b_snapshot = batched.committed_count
        outcome = batched.submit_batch(
            [Footprint.of(t.read_set, t.write_set, b_snapshot, label=t.txn) for t in window]
        )
        batches.append(
            {
                "greedy_commit_index": greedy_indices,
                "batch_committed": [fp.label for fp in outcome.committed],
                "batch_aborted": [fp.label for fp in outcome.aborted],
            }
        )
    return {"batches": batches, "greedy_order": greedy.serialization_order()}


def golden() -> dict:
    return {
        "fig9": [
            dataclasses.asdict(point)
            for point in figure9_sweep(threads=(4, 16), seeds=3, n_txns=60)
        ],
        "window": {
            f"window={window}/seed={seed}": _window_cell(window, seed)
            for window in WINDOWS
            for seed in WINDOW_SEEDS
        },
        "batch": {
            f"ops={ops}/seed={seed}": _batch_cell(ops, seed)
            for ops in BATCH_OPS
            for seed in BATCH_SEEDS
        },
    }


def test_fig09_paths_reproduced():
    assert golden() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
