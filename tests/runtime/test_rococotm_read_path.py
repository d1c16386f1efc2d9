"""ROCoCoTM's CPU-side signatures: plain-int read/write path.

``hw.mask_cache.*`` reaches observed runs' metrics, so the mask-cache
counts are part of the output: every logical lookup of an address's
query mask (one per UpdateSet entry tested, one MissSet test, one
read-set insert, one sub-signature insert, one write-set insert)
counts, whether or not the backend reuses a mask it already holds.
The scripted sequence below pins the exact ``(hits, misses, entries)``
after each step.
"""

import pytest

from repro.runtime import RococoTMBackend, TransactionAborted
from repro.runtime.driver import ManualDriver


def _counts(config):
    return (config.mask_cache_hits, config.mask_cache_misses, config.mask_cache_entries)


def test_mask_cache_counts_are_logical():
    backend = RococoTMBackend()
    sim = ManualDriver(n_threads=4)
    backend.attach(sim)
    config = backend.config
    a = sim.memory.alloc(64)

    # A first-touch write interns its address; rewriting it looks
    # nothing up, and a redo-log hit on read looks nothing up either.
    backend.begin(0, 0.0)
    backend.write(0, a, 1, 0.0)
    backend.write(0, a, 2, 0.0)
    assert backend.read(0, a, 0.0)[0] == 2
    assert _counts(config) == (0, 1, 1)

    # An irrevocable read with an empty UpdateSet interns nothing.
    backend.hatch.forced.add(3)
    backend.begin(3, 0.0)
    backend.read(3, a + 50, 0.0)
    backend.commit(3, 10.0)
    assert _counts(config) == (0, 1, 1)

    # Two writers publish long write-backs.
    for tid, base in ((1, a + 10), (2, a + 30)):
        backend.begin(tid, 0.0)
        for addr in range(base, base + 20):
            backend.write(tid, addr, tid, 0.0)
        ready = backend.commit(tid, 100.0)
    assert _counts(config) == (20, 41, 41)

    # A read with two live UpdateSet entries tests both, then inserts.
    backend.begin(3, ready)
    assert [u.end_ns > ready for u in backend._updates] == [True, True]
    backend.read(3, a + 60, ready)
    assert _counts(config) == (23, 42, 42)
    # A read blocked by an entry backs off and re-tests what is live.
    _, at = backend.read(3, a + 10, ready)
    assert at > ready
    assert _counts(config) == (28, 42, 42)

    # A commit to a+60 freezes reader 3's snapshot at its next read;
    # the MissSet test passes for a+61 and aborts the read of a+60.
    backend.begin(1, at)
    backend.write(1, a + 60, 7, at)
    ready = backend.commit(1, at)
    later = ready + 1_000.0
    backend.read(3, a + 61, later)
    assert backend._txns[3].frozen
    assert _counts(config) == (32, 43, 43)
    with pytest.raises(TransactionAborted, match="cpu-miss"):
        backend.read(3, a + 60, later)
    backend.rollback(3, later, "cpu-miss")
    assert _counts(config) == (33, 43, 43)

    # Nine reads cross the 8-address sub-signature boundary.
    backend.begin(2, later)
    chunk = list(range(a + 51, a + 60))
    for addr in chunk:
        backend.read(2, addr, later)
    assert _counts(config) == (42, 52, 52)
    txn = backend._txns[2]
    assert len(txn.sub_raws) == 2
    assert txn.sub_raws[0] == config.of(chunk[:8]).raw
    assert txn.sub_raws[1] == config.of(chunk[8:]).raw
    assert txn.read_raw == config.raw_of(chunk)

    # A frozen reader blocked by a live UpdateSet entry aborts after
    # testing the live entries, without inserting.
    backend.begin(1, later)
    backend.write(1, a + 51, 8, later)
    ready = backend.commit(1, later)
    backend.read(2, a + 40, ready + 1_000.0)
    assert backend._txns[2].frozen
    ready = backend.commit(0, ready + 1_000.0)
    with pytest.raises(TransactionAborted, match="cpu-update-conflict"):
        backend.read(2, a, ready)
    assert _counts(config) == (67, 52, 52)
