"""Bit-sliced ring-buffer detector vs an array-shift reference.

:class:`ConflictDetector` stores its W slots transposed — one column
int per signature bit, write-set slots in the low W bits and read-set
slots in the next W — in a ring buffer (head index + modular slot
math), and computes edge masks in physical order, rotating only the
final integer.  These tests drive W + k commits — several full
wraparounds — against an independent array-shift model that keeps
slots physically oldest-first and queries each address with
*uncached* bit positions, asserting that ``edges()`` masks,
``oldest_commit_index``, and the resident entries agree bit-for-bit
at every step, across signature geometries, and that the columns stay
the exact transpose of the resident signatures.

The pre-vectorization boolean packing survives here as the reference
oracle for the observed-slot prefix mask (both the original per-bit
loop and the dot-against-powers-of-two formulation it briefly became).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import ConflictDetector, ExactDetector, ValidationManager
from repro.signatures import SignatureConfig


# ----------------------------------------------------------------------
# Reference model: physical oldest-first slots, per-address queries.
# ----------------------------------------------------------------------


class ArrayShiftDetector:
    """The pre-PR10 semantics: shift-down eviction, big-int queries."""

    def __init__(self, config, window):
        self.config = config
        self.window = window
        self.entries = []  # (commit_index, read_raw, write_raw), oldest first

    def _bit_positions(self, element):
        width = self.config.partition_bits
        return [i * width + h(element) for i, h in enumerate(self.config.hashes)]

    def _raw_of(self, addrs):
        raw = 0
        for addr in addrs:
            for pos in self._bit_positions(addr):
                raw |= 1 << pos
        return raw

    @property
    def oldest_commit_index(self):
        return self.entries[0][0] if self.entries else 0

    def record_commit(self, commit_index, read_addrs, write_addrs):
        if len(self.entries) == self.window:
            del self.entries[0]
        self.entries.append(
            (commit_index, self._raw_of(read_addrs), self._raw_of(write_addrs))
        )

    def edges(self, read_addrs, write_addrs, snapshot):
        read_masks = [self._raw_of([a]) for a in read_addrs]
        write_masks = [self._raw_of([a]) for a in write_addrs]
        forward = 0
        backward = 0
        for slot, (commit_index, read_raw, write_raw) in enumerate(self.entries):
            bit = 1 << slot
            if any(write_raw & m == m for m in read_masks):
                if commit_index < snapshot:
                    backward |= bit
                else:
                    forward |= bit
            if any(write_raw & m == m for m in write_masks) or any(
                read_raw & m == m for m in write_masks
            ):
                backward |= bit
        return forward, backward


def _stream(rng, txns, space=4096, n_reads=3, n_writes=2):
    out = []
    for _ in range(txns):
        addrs = rng.sample(range(space), n_reads + n_writes)
        out.append((tuple(addrs[:n_reads]), tuple(addrs[n_reads:])))
    return out


def _probe(rng, step, recent):
    """Request shapes in rotation: plain, read side empty, write side
    empty, an address repeated inside the request, and a re-read of a
    recently committed write set (so real hits occur at any W)."""
    reads, writes = _stream(rng, 1)[0]
    shape = step % 5
    if shape == 1:
        reads = ()
    elif shape == 2:
        writes = ()
    elif shape == 3:
        reads = (reads[0], reads[1], reads[0])
        writes = (writes[0], reads[0], writes[0])
    elif shape == 4 and recent:
        reads = reads + rng.choice(recent)
    return reads, writes


# ----------------------------------------------------------------------


@pytest.mark.parametrize("window", [1, 3, 8, 63, 64, 65, 100, 128])
def test_wraparound_matches_array_shift_reference(window):
    """W + k commits (several wraparounds) with a probe after each.
    Windows 63/64/65/128 straddle the 64-bit words of a 2W-bit column."""
    config = SignatureConfig()
    live = ConflictDetector(config, window)
    ref = ArrayShiftDetector(config, window)
    rng = random.Random(1234 + window)

    history = _stream(rng, 3 * window + 7)
    for commit_index, (reads, writes) in enumerate(history):
        probe_reads, probe_writes = _probe(
            rng, commit_index, [w for _, w in history[:commit_index][-window:]]
        )
        snapshot = rng.randint(max(0, commit_index - window), commit_index)
        assert live.edges(probe_reads, probe_writes, snapshot) == ref.edges(
            probe_reads, probe_writes, snapshot
        ), (window, commit_index)

        live.record_commit(commit_index, commit_index, reads, writes)
        ref.record_commit(commit_index, reads, writes)
        assert live.oldest_commit_index == ref.oldest_commit_index
        assert live.resident == len(ref.entries)
        assert [e.commit_index for e in live.entries()] == [
            e[0] for e in ref.entries
        ]


@pytest.mark.parametrize(
    "make",
    [lambda: ConflictDetector(SignatureConfig(), 4), lambda: ExactDetector(4)],
    ids=["bloom", "exact"],
)
def test_gapped_commit_index_raises(make):
    """Resident commit indices are one consecutive run (the manager
    numbers commits densely and a reset starts a fresh detector); a
    gapped or repeated record is refused and leaves the entries as
    they were."""
    detector = make()
    detector.record_commit("a", 5, [1], [2])
    for bad in (7, 5, 4):
        with pytest.raises(ValueError):
            detector.record_commit("b", bad, [3], [4])
    assert [e.commit_index for e in detector.entries()] == [5]
    detector.record_commit("b", 6, [3], [4])
    assert detector.oldest_commit_index == 5 and detector.resident == 2


def test_shipped_signatures_equal_rehash():
    """record_commit with incremental raws is bit-identical to the
    address-set fallback (the ValidationRequest.read_raw contract)."""
    config = SignatureConfig()
    with_sigs = ConflictDetector(config, 8)
    without = ConflictDetector(config, 8)
    rng = random.Random(7)
    for commit_index, (reads, writes) in enumerate(_stream(rng, 20)):
        read_raw = config.of(reads).raw
        write_raw = config.of(writes).raw
        with_sigs.record_commit(
            commit_index, commit_index, reads, writes,
            read_raw=read_raw, write_raw=write_raw,
        )
        without.record_commit(commit_index, commit_index, reads, writes)
        probe_reads, probe_writes = _stream(rng, 1)[0]
        snapshot = rng.randint(0, commit_index + 1)
        assert with_sigs.edges(
            probe_reads, probe_writes, snapshot
        ) == without.edges(probe_reads, probe_writes, snapshot)


@pytest.mark.parametrize("window", [1, 8])
def test_manager_reset_matches_fresh_reference(window):
    """After ``ValidationManager.reset()`` mid-stream the detector
    answers like a reference that only saw the post-reset commits."""
    config = SignatureConfig()
    manager = ValidationManager(ConflictDetector(config, window))
    rng = random.Random(31 + window)
    ref = ArrayShiftDetector(config, window)
    history = _stream(rng, 4 * window + 6)
    reset_at = 2 * window + 1
    for step, (reads, writes) in enumerate(history):
        if step == reset_at:
            manager.reset()
            ref = ArrayShiftDetector(config, window)
        commit_index = manager.total_commits
        manager.record_external_commit(step, reads, writes)
        ref.record_commit(commit_index, reads, writes)
        for _ in range(3):
            probe_reads, probe_writes = _probe(rng, step, [writes])
            snapshot = rng.randint(max(0, commit_index - window), commit_index + 1)
            assert manager.detector.edges(
                probe_reads, probe_writes, snapshot
            ) == ref.edges(probe_reads, probe_writes, snapshot), step


def test_edges_count_one_cache_lookup_per_address():
    """``hw.mask_cache.*`` reaches observed runs' metrics, so the
    detector's lookups are part of the output: one per request address
    (repeats included), none for an empty window, none when a commit
    ships its signatures."""
    config = SignatureConfig()
    det = ConflictDetector(config, 4)

    def lookups():
        return config.mask_cache_hits + config.mask_cache_misses

    before = lookups()
    assert det.edges([1, 2], [3], snapshot=0) == (0, 0)
    assert lookups() == before
    det.record_commit(
        0, 0, [1, 2], [3], read_raw=config.raw_of([1, 2]), write_raw=config.raw_of([3])
    )
    for reads, writes in (([3, 9, 9], [4]), ([], [1, 1]), ([5], []), ([], [])):
        before = lookups()
        det.edges(reads, writes, snapshot=1)
        assert lookups() - before == len(reads) + len(writes)
    before = lookups()
    det.record_commit(
        1, 1, [7], [8], read_raw=config.raw_of([7]), write_raw=config.raw_of([8])
    )
    det.record_commit(2, 2, [10], [11], read_raw=0, write_raw=0)
    assert lookups() - before == 2


def _transposed(det):
    """The columns the detector must hold: bit s of column p is bit p
    of the write signature at physical slot s, bit W + s the same for
    the read signature."""
    cols = [0] * det.config.bits
    for logical, entry in enumerate(det.entries()):
        slot = (det._head + logical) % det.window
        for p in range(det.config.bits):
            if entry.write_raw >> p & 1:
                cols[p] |= 1 << slot
            if entry.read_raw >> p & 1:
                cols[p] |= 1 << (det.window + slot)
    return cols


@pytest.mark.parametrize("window", [1, 5, 64])
def test_columns_are_the_transposed_signatures(window):
    """Eviction XORs only the columns where the outgoing and incoming
    signatures differ; no stale slot bit may survive a wraparound."""
    config = SignatureConfig()
    det = ConflictDetector(config, window)
    rng = random.Random(window)
    for commit_index, (reads, writes) in enumerate(
        _stream(rng, 2 * window + 3, space=256, n_reads=6, n_writes=4)
    ):
        det.record_commit(commit_index, commit_index, reads, writes)
        assert det._cols == _transposed(det), commit_index


geometries = st.sampled_from([(64, 2), (256, 4), (512, 4), (512, 8), (1024, 4)])


@given(
    geometries,
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=8, max_value=512),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_edges_match_reference_across_geometries(geo, window, space, rng):
    """Small address spaces saturate small signatures, so bloom false
    positives, empty read or write sets and full columns all occur."""
    bits, partitions = geo
    config = SignatureConfig(bits, partitions)
    live = ConflictDetector(config, window)
    ref = ArrayShiftDetector(config, window)
    for commit_index in range(2 * window + 2):
        probe_reads = tuple(rng.sample(range(space), rng.randint(0, 6)))
        probe_writes = tuple(rng.sample(range(space), rng.randint(0, 4)))
        snapshot = rng.randint(max(0, commit_index - window), commit_index)
        assert live.edges(probe_reads, probe_writes, snapshot) == ref.edges(
            probe_reads, probe_writes, snapshot
        )
        reads = tuple(rng.sample(range(space), rng.randint(0, 8)))
        writes = tuple(rng.sample(range(space), rng.randint(1, 8)))
        live.record_commit(commit_index, commit_index, reads, writes)
        ref.record_commit(commit_index, reads, writes)
    assert live._cols == _transposed(live)


def test_saturated_signatures_hit_every_slot():
    """All-ones signatures set every column bit; every address then
    conflicts with every resident slot."""
    config = SignatureConfig(64, 2)
    det = ConflictDetector(config, 3)
    full = (1 << config.bits) - 1
    for commit_index in range(5):
        det.record_commit(
            commit_index, commit_index, [1], [2], read_raw=full, write_raw=full
        )
    assert all(col == 0b111111 for col in det._cols)
    assert det.edges([7], [], snapshot=3) == (0b110, 0b001)
    assert det.edges([], [7], snapshot=0) == (0, 0b111)


# ----------------------------------------------------------------------
# Boolean packing oracles for the observed-slot mask.
# ----------------------------------------------------------------------


def _bools_to_mask_bit_loop(bools):
    """The original per-bit packing (pre-PR10)."""
    mask = 0
    for i in np.nonzero(bools)[0]:
        mask |= 1 << int(i)
    return mask


def _bools_to_mask_pow2_dot(bools):
    """The dot-against-powers-of-two formulation."""
    pow2 = np.uint64(1) << np.arange(64, dtype=np.uint64)
    mask = 0
    for base in range(0, bools.size, 64):
        chunk = bools[base : base + 64]
        mask |= int((chunk * pow2[: chunk.size]).sum(dtype=np.uint64)) << base
    return mask


@pytest.mark.parametrize("size", [1, 7, 63, 64, 65, 128, 200])
def test_bools_to_mask_matches_oracles(size):
    """The observed-slot mask (``commit_index < snapshot`` per logical
    slot) equals both packings of the boolean vector."""
    det = ConflictDetector(SignatureConfig(), size)
    for step in range(size + size // 2 + 1):
        det.record_commit(step, step, (), (), read_raw=0, write_raw=0)
    indices = np.array([e.commit_index for e in det.entries()])
    for snapshot in {0, int(indices[0]), int(indices[len(indices) // 2]),
                     int(indices[-1]), int(indices[-1]) + 1}:
        bools = indices < snapshot
        expected = _bools_to_mask_bit_loop(bools)
        assert det._observed_mask(snapshot) == expected
        assert _bools_to_mask_pow2_dot(bools) == expected
