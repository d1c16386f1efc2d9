"""The conflict Detector (left half of Fig. 5).

The detector holds the bloom-filter bookkeeping ``h_0 .. h_{W-1}`` of
the W most recent committed writing transactions — one read-set and
one write-set signature each, "so that an upper bound of required
resources can be determined a priori" (§5.3) — and compares an
incoming transaction's read/write *addresses* against all W entries
in parallel.  Addresses (not signatures) travel from the CPU so the
detector can use the *query* operation, whose false positivity is
orders of magnitude below set-intersection's (Fig. 7).

Slot numbering matches :class:`repro.core.window.WindowMatrix`:
oldest first, so the produced forward/backward masks feed the matrix
directly.

The W-way parallel compare is modelled **bit-sliced**, the RTL's own
layout: one memory row per signature bit, W slots wide.

* The store is transposed: ``m`` *column* ints, one per bloom bit
  position ``p``.  Bit ``s`` of column ``p`` is bit ``p`` of physical
  slot ``s``'s write-set signature; bit ``W + s`` the same for its
  read-set signature.
* An address's k bit positions are interned once in the shared
  :class:`SignatureConfig` cache.  The AND of its k columns is the
  set of slots whose signatures contain all k bits — the per-slot
  query for all W slots (both halves) at once, k-1 big-int ANDs.
  Reads keep the write-set half; writes fold both halves together.
* The W slots live in a **ring buffer** (head index + modular slot
  math).  A commit XORs its slot bit into the columns where the
  incoming and the evicted signatures differ — one list update per
  differing bit, never all W slots.  Logical (oldest-first) slot *i*
  lives at physical slot ``(head + i) % W``; hits are computed in
  physical order and only the final integer mask is rotated by
  ``head`` (two shifts and an OR) into logical numbering.  Vacant
  slots have no bit in any column, so they never match.

Cost: an ``edges`` call is about ``A * k`` list lookups and ANDs on
2W-bit ints, with no per-request allocation beyond the position list;
a ``record_commit`` is one walk over the set bits of two m-bit
differences.  The store is ``m`` ints whatever W is.

Commit-time bookkeeping takes the transaction's *incremental*
signatures when the request carries them (the CPU built both during
execution — Algorithm 1), falling back to hashing the address sets
through the mask cache otherwise.  Either way the recorded raws are
bit-identical, so verdicts cannot depend on which path ran.

:class:`ExactDetector` has the same surface over exact read and write
sets.  The manager takes either one, so the exact-set reference is the
same decision path with the other edge source.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..signatures import SignatureConfig

#: the set-bit offsets of every byte value.
_BYTE_BITS = tuple(
    tuple(j for j in range(8) if value >> j & 1) for value in range(256)
)


def _flip(cols: List[int], raw: int, nbytes: int, bit: int) -> None:
    """XOR *bit* into ``cols[p]`` for every set bit ``p`` of *raw*
    (a non-negative int below ``2 ** (8 * nbytes)``)."""
    base = 0
    for value in raw.to_bytes(nbytes, "little"):
        if value:
            for j in _BYTE_BITS[value]:
                cols[base + j] ^= bit
        base += 8


@dataclass(frozen=True)
class Bookkeeping:
    """One ``h_i`` entry: a committed transaction's two signatures."""

    label: Hashable
    commit_index: int
    read_raw: int
    write_raw: int


class _Window:
    """The resident ``h_i`` entries of an edge source, oldest first
    (logical slot order), at most W of them."""

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must hold at least one entry")
        self.window = window
        self._entries: Deque = deque()

    @property
    def resident(self) -> int:
        return len(self._entries)

    @property
    def oldest_commit_index(self) -> int:
        return self._entries[0].commit_index if self._entries else 0

    def entries(self) -> list:
        return list(self._entries)

    def _append(self, entry):
        """Make *entry* the newest slot; return the evicted oldest
        entry when the window was full, else None.

        Raises ValueError on a gapped commit index.  The manager
        numbers commits 0, 1, 2, ... and a reset starts a fresh
        detector, so the resident indices are one consecutive run and
        the snapshot-observed slots a logical-order prefix.
        """
        entries = self._entries
        if entries and entry.commit_index != entries[-1].commit_index + 1:
            raise ValueError(
                f"commit index {entry.commit_index} does not follow "
                f"{entries[-1].commit_index}"
            )
        entries.append(entry)
        return entries.popleft() if len(entries) > self.window else None


class ConflictDetector(_Window):
    """Parallel signature store with W-way conflict detection."""

    def __init__(self, config: SignatureConfig, window: int):
        super().__init__(window)
        self.config = config
        #: the bit-sliced store: bit ``s`` of ``_cols[p]`` is bit ``p``
        #: of physical slot ``s``'s write-set signature, bit
        #: ``W + s`` bit ``p`` of its read-set signature.
        self._cols: List[int] = [0] * config.bits
        #: physical slot of logical slot 0.  Stays 0 until the first
        #: eviction (the window fills in place), then advances mod W.
        self._head = 0
        self._full_mask = (1 << window) - 1

    def empty(self) -> "ConflictDetector":
        """A fresh detector of the same geometry (an engine reset)."""
        return ConflictDetector(self.config, self.window)

    # ------------------------------------------------------------------
    def _rotate(self, mask: int) -> int:
        """Rotate a *physical*-order slot bitmask into logical
        (oldest-first) numbering — logical slot i lives at physical
        slot ``(head + i) % W``."""
        head = self._head
        if head:
            mask = (
                (mask >> head) | (mask << (self.window - head))
            ) & self._full_mask
        return mask

    def edges(
        self,
        read_addrs: Sequence[int],
        write_addrs: Sequence[int],
        snapshot: int,
    ) -> Tuple[int, int]:
        """(forward, backward) slot bitmasks for a candidate.

        A read conflict against a slot the candidate *observed*
        (``commit_index < snapshot``) is a RAW backward edge; against
        an unobserved slot it is the stale-read forward edge.  Write
        conflicts (vs the slot's writes or reads) are always backward.

        Each address is answered for all W slots at once: the AND of
        the columns at its k bit positions has bit ``s`` (``W + s``)
        set exactly when slot ``s``'s write (read) signature contains
        every one of those bits.  A read only cares about the write
        half, so its chain starts from the W-bit all-ones mask; a
        write's chain covers both halves.  A chain stops at its first
        empty AND.  The per-address hits are ORed; the half split, the
        head rotation and the snapshot split are plain integer ops.
        """
        if not self._entries:
            return 0, 0
        n_read = len(read_addrs)
        cols = self._cols
        full = self._full_mask
        positions = self.config.query_positions((*read_addrs, *write_addrs))
        read_hits = 0
        for pos in positions[:n_read]:
            hit = full
            for p in pos:
                hit &= cols[p]
                if not hit:
                    break
            read_hits |= hit
        # ``-1`` has every bit set: both halves stay live.
        write_hits = 0
        for pos in positions[n_read:]:
            hit = -1
            for p in pos:
                hit &= cols[p]
                if not hit:
                    break
            write_hits |= hit

        forward = 0
        backward = 0
        if read_hits:
            read_mask = self._rotate(read_hits)
            observed_mask = self._observed_mask(snapshot)
            forward = read_mask & ~observed_mask
            backward = read_mask & observed_mask
        if write_hits:
            backward |= self._rotate((write_hits | write_hits >> self.window) & full)
        return forward, backward

    def _observed_mask(self, snapshot: int) -> int:
        """Logical-order bitmask of resident slots with
        ``commit_index < snapshot``: a prefix, since resident commit
        indices are consecutive (:meth:`_Window._append`)."""
        entries = self._entries
        t = min(snapshot - entries[0].commit_index, len(entries))
        return (1 << t) - 1 if t > 0 else 0

    # ------------------------------------------------------------------
    def record_commit(
        self,
        label: Hashable,
        commit_index: int,
        read_addrs: Iterable[int],
        write_addrs: Iterable[int],
        read_raw: Optional[int] = None,
        write_raw: Optional[int] = None,
    ) -> bool:
        """Append bookkeeping ``h_{-1}``; evicts ``h_{W-1}`` when full.

        ``read_raw``/``write_raw`` are the transaction's incremental
        signatures when the CPU shipped them; omitted, the address
        sets are folded through the mask cache (bit-identical result).
        Returns True when an eviction happened (the caller's matrix
        must shift in lock-step).  Raises ValueError when
        *commit_index* does not follow the newest resident's.
        """
        config = self.config
        if read_raw is None:
            read_raw = config.raw_of(tuple(read_addrs))
        if write_raw is None:
            write_raw = config.raw_of(tuple(write_addrs))
        old = self._append(Bookkeeping(label, commit_index, read_raw, write_raw))
        if old is not None:
            # The new entry takes the evicted one's physical slot: only
            # the columns where the two signatures differ change.
            slot = self._head
            self._head = (slot + 1) % self.window
            read_raw ^= old.read_raw
            write_raw ^= old.write_raw
        else:
            slot = len(self._entries) - 1
        nbytes = (config.bits + 7) // 8
        _flip(self._cols, write_raw, nbytes, 1 << slot)
        _flip(self._cols, read_raw, nbytes, 1 << (self.window + slot))
        return old is not None


@dataclass(frozen=True)
class ExactBookkeeping:
    """One ``h_i`` entry of :class:`ExactDetector`: the exact sets."""

    label: Hashable
    commit_index: int
    read_set: FrozenSet[int]
    write_set: FrozenSet[int]


class ExactDetector(_Window):
    """The reference edge source: exact read and write sets where
    :class:`ConflictDetector` holds signatures.

    Same surface, same slot numbering, no false positives.  A
    :class:`~repro.hw.manager.ValidationManager` built on it is ROCoCo
    over exact sets in a W-slot window: the oracle the bloom path is
    checked against, which differs from it only by the aborts that
    signature false positives add.
    """

    def empty(self) -> "ExactDetector":
        """A fresh detector of the same window (an engine reset)."""
        return ExactDetector(self.window)

    def edges(
        self,
        read_addrs: Sequence[int],
        write_addrs: Sequence[int],
        snapshot: int,
    ) -> Tuple[int, int]:
        """(forward, backward) slot bitmasks, by the rules of
        :meth:`ConflictDetector.edges` over exact intersections."""
        reads = frozenset(read_addrs)
        writes = frozenset(write_addrs)
        forward = 0
        backward = 0
        for slot, entry in enumerate(self._entries):
            bit = 1 << slot
            if not reads.isdisjoint(entry.write_set):
                if entry.commit_index < snapshot:
                    backward |= bit
                else:
                    forward |= bit
            if not (
                writes.isdisjoint(entry.write_set) and writes.isdisjoint(entry.read_set)
            ):
                backward |= bit
        return forward, backward

    def record_commit(
        self,
        label: Hashable,
        commit_index: int,
        read_addrs: Iterable[int],
        write_addrs: Iterable[int],
        read_raw: Optional[int] = None,
        write_raw: Optional[int] = None,
    ) -> bool:
        """Append bookkeeping; evicts the oldest entry when full.

        The signatures a request may carry (*read_raw*, *write_raw*)
        are not used.  Returns True when an eviction happened; raises
        ValueError on a gapped *commit_index*.
        """
        entry = ExactBookkeeping(
            label, commit_index, frozenset(read_addrs), frozenset(write_addrs)
        )
        return self._append(entry) is not None
