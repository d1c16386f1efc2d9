"""The windowed validator's golden: exact-set and bloom decisions.

``fig09_paths.json`` pins the unbounded validators; neither it nor the
simulated-machine goldens pin every verdict field of the W-slot
window.  ``window_paths.json`` does:

* ``exact`` — the manager over an ``ExactDetector`` for window in
  {1, 2, 8, 64} and seed in {0, 1, 2}: 300 transactions over a
  24-address space with snapshot lag 0..W+2.  It records the sha256 of
  the per-transaction ``(committed, reason, commit_index, forward,
  backward)`` list and the commit/cycle/overflow/taint counters.
* ``bloom`` — a bloom-signature manager with the default
  ``SignatureConfig`` for window in {8, 64} and the same seeds, on a
  stream that interleaves ``validate``, ``certify``,
  ``record_external_commit`` and ``reset``.  It records the digest of
  the per-operation outcomes and every manager counter.

Regenerate only when a change is meant to move these verdicts, and say
why in the same commit.  From the repository root::

    PYTHONPATH=src python -m tests.golden.test_window_paths
"""

import hashlib
import json
import random
from pathlib import Path

from repro.hw import ConflictDetector, ExactDetector, ValidationManager, ValidationRequest
from repro.signatures import SignatureConfig

GOLDEN = Path(__file__).with_name("window_paths.json")

EXACT_WINDOWS = (1, 2, 8, 64)
BLOOM_WINDOWS = (8, 64)
SEEDS = (0, 1, 2)
TXNS = 300
SPACE = 24
BLOOM_OPS = (("validate", 72), ("certify", 15), ("external", 12), ("reset", 1))

STATS = ("commits", "cycle_aborts", "overflow_aborts", "taint_aborts")
BLOOM_STATS = STATS + ("certifies", "certify_refusals", "external_commits", "resets")


def _footprint(rng: random.Random):
    """(reads, writes) of one transaction; about one in ten is read-only."""
    reads = rng.sample(range(SPACE), rng.randint(0, 4))
    writes = [] if rng.random() < 0.1 else rng.sample(range(SPACE), rng.randint(1, 3))
    return reads, writes


def _outcome(decision) -> list:
    return [
        decision.committed,
        decision.reason,
        decision.commit_index,
        decision.forward,
        decision.backward,
    ]


def _digest(outcomes: list) -> str:
    return hashlib.sha256(json.dumps(outcomes).encode("ascii")).hexdigest()


def _exact_cell(window: int, seed: int) -> dict:
    rng = random.Random(1000 * window + seed)
    manager = ValidationManager(ExactDetector(window))
    outcomes = []
    for i in range(TXNS):
        reads, writes = _footprint(rng)
        snapshot = max(0, manager.total_commits - rng.randint(0, window + 2))
        request = ValidationRequest(i, tuple(reads), tuple(writes), snapshot)
        outcomes.append(_outcome(manager.validate(request)))
    cell = {name: getattr(manager, f"stats_{name}") for name in STATS}
    cell["outcomes"] = _digest(outcomes)
    return cell


def _bloom_cell(window: int, seed: int) -> dict:
    rng = random.Random(2000 * window + seed)
    manager = ValidationManager(ConflictDetector(SignatureConfig(), window))
    names = [name for name, _ in BLOOM_OPS]
    weights = [weight for _, weight in BLOOM_OPS]
    outcomes = []
    reasons = set()
    for i in range(TXNS):
        op = rng.choices(names, weights)[0]
        reads, writes = _footprint(rng)
        if op == "reset":
            manager.reset()
            outcomes.append([op, manager.reset_floor])
        elif op == "external":
            manager.record_external_commit(i, tuple(reads), tuple(writes))
            outcomes.append([op, manager.total_commits])
        else:
            snapshot = max(0, manager.total_commits - rng.randint(0, window + 2))
            request = ValidationRequest(i, tuple(reads), tuple(writes), snapshot)
            decision = getattr(manager, op)(request)
            reasons.add(decision.reason)
            outcomes.append([op] + _outcome(decision))
    cell = {name: getattr(manager, f"stats_{name}") for name in BLOOM_STATS}
    cell["outcomes"] = _digest(outcomes)
    cell["reasons"] = sorted(reason for reason in reasons if reason)
    return cell


def golden() -> dict:
    return {
        "exact": {
            f"window={window}/seed={seed}": _exact_cell(window, seed)
            for window in EXACT_WINDOWS
            for seed in SEEDS
        },
        "bloom": {
            f"window={window}/seed={seed}": _bloom_cell(window, seed)
            for window in BLOOM_WINDOWS
            for seed in SEEDS
        },
    }


def test_window_paths_reproduced():
    assert golden() == json.loads(GOLDEN.read_text())


def test_every_abort_kind_is_pinned():
    """The golden is only as strong as the paths its streams reach."""
    recorded = json.loads(GOLDEN.read_text())
    for kind in ("cycle_aborts", "overflow_aborts", "taint_aborts"):
        assert any(cell[kind] for cell in recorded["exact"].values()), kind
    for kind in ("cycle_aborts", "overflow_aborts", "certify_refusals", "resets"):
        assert any(cell[kind] for cell in recorded["bloom"].values()), kind
    reasons = set().union(*(cell["reasons"] for cell in recorded["bloom"].values()))
    assert reasons == {"cycle", "stale", "window-overflow"}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
