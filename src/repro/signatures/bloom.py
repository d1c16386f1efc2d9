"""Parallel (partitioned) bloom-filter signatures (§5.2, Fig. 7(a)).

A signature summarizes an unbounded address set in ``m`` bits split
into ``k`` partitions of ``m/k`` bits; each partition has its own hash
lane and receives exactly one bit per inserted element.  Supported
operations — insertion, membership query, set union, set intersection
— are all bit-wise, which is what makes them single-cycle on the FPGA
and a handful of AVX2 instructions on the CPU.

ROCoCoTM's configuration is ``m = 512``: one CPU cacheline, so a
signature ships to the FPGA in a single CCI transfer, and
"coincidentally" also exactly eight 64-bit addresses.

**The interned mask cache.**  Every operation on an element reduces to
the same k-bit *query mask* (one set bit per partition), and workloads
touch the same addresses over and over — every read re-inserts, every
commit re-hashes, every detector compare re-derives the very same
bits.  :class:`SignatureConfig` therefore interns each address once:
its k bit positions (a tuple, the conflict detector's column indices)
and the packed ``m``-bit mask (a Python int).  The cache is exact (no
eviction: an address's mask never changes), so insert/query/detector
all agree bit-for-bit with the uncached computation — the property
test in ``tests/signatures`` pins it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .hashing import hash_family

DEFAULT_BITS = 512
DEFAULT_PARTITIONS = 4


class SignatureConfig:
    """Shared (m, k, hash family) configuration for compatible signatures.

    Also the home of the interned address→query-mask cache shared by
    signature insert/query and the hardware model's conflict detector.
    """

    __slots__ = (
        "bits",
        "partitions",
        "partition_bits",
        "hashes",
        "_lanes",
        "_index",
        "_masks",
        "_positions",
        "mask_cache_hits",
        "mask_cache_misses",
    )

    def __init__(
        self,
        bits: int = DEFAULT_BITS,
        partitions: int = DEFAULT_PARTITIONS,
        seed: int = 0x5EED,
    ):
        if bits < 1 or partitions < 1:
            raise ValueError("bits and partitions must be positive")
        if bits % partitions:
            raise ValueError("partitions must evenly divide bits")
        partition_bits = bits // partitions
        if partition_bits & (partition_bits - 1):
            raise ValueError("partition size must be a power of two (hash range)")
        self.bits = bits
        self.partitions = partitions
        self.partition_bits = partition_bits
        self.hashes = hash_family(partitions, partition_bits.bit_length() - 1, seed)
        # One m-bit mask per partition, for the k-AND overlap test.
        lane = (1 << partition_bits) - 1
        self._lanes = tuple(lane << (i * partition_bits) for i in range(partitions))
        # addr -> row index into the interned mask/position lists.
        self._index: Dict[int, int] = {}
        self._masks: List[int] = []
        self._positions: List[Tuple[int, ...]] = []
        self.mask_cache_hits = 0
        self.mask_cache_misses = 0

    # ------------------------------------------------------------------
    # The interned mask cache
    # ------------------------------------------------------------------
    @property
    def mask_cache_entries(self) -> int:
        return len(self._masks)

    def _intern(self, element: int) -> int:
        row = self._index.get(element)
        if row is not None:
            self.mask_cache_hits += 1
            return row
        width = self.partition_bits
        positions = tuple(lane * width + h(element) for lane, h in enumerate(self.hashes))
        row = len(self._masks)
        self._index[element] = row
        # One bit per partition: the sum is the OR.
        self._masks.append(sum(1 << pos for pos in positions))
        self._positions.append(positions)
        self.mask_cache_misses += 1
        return row

    def intern_rows(self, elements: Sequence[int]) -> List[int]:
        """Row indices into the interned store for *elements*,
        interning any first-touch addresses one at a time."""
        index = self._index
        try:
            rows = [index[e] for e in elements]
        except KeyError:
            return [self._intern(e) for e in elements]
        self.mask_cache_hits += len(elements)
        return rows

    def mask(self, element: int, uses: int = 1) -> int:
        """The packed m-bit query mask of *element* (all k bits set),
        counted as *uses* lookups: interning a first-touch element is
        the first of them (a miss), every other one is a hit."""
        row = self._index.get(element)
        if row is None:
            row = self._intern(element)
            uses -= 1
        self.mask_cache_hits += uses
        return self._masks[row]

    def query_positions(self, elements: Sequence[int]) -> List[Tuple[int, ...]]:
        """The k bit positions of each address in a batch — the
        detector's per-request column indices."""
        positions = self._positions
        return [positions[row] for row in self.intern_rows(elements)]

    # ------------------------------------------------------------------
    def bit_positions(self, element: int) -> List[int]:
        """The k global bit positions of *element* (one per partition)."""
        return list(self._positions[self._intern(element)])

    def new(self) -> "BloomSignature":
        return BloomSignature(self)

    def of(self, elements: Iterable[int]) -> "BloomSignature":
        return BloomSignature(self, self.raw_of(tuple(elements)))

    def overlaps(self, a: int, b: int) -> bool:
        """Set-overlap test of two raw signatures, the operation whose
        false positivity Fig. 7(b) analyses.  A shared element sets one
        bit per partition in both, so their AND must be non-zero in
        **every** partition: k ANDs against the partition masks (a bare
        non-zero AND would make partitioned filters useless for
        intersection).  Sound: True for any real overlap; may be True
        spuriously."""
        both = a & b
        if not both:
            return False
        for lane in self._lanes:
            if not both & lane:
                return False
        return True

    def raw_of(self, elements: Sequence[int]) -> int:
        """The packed signature of an address batch, via the cache:
        a union of interned masks instead of per-element hashing."""
        raw = 0
        masks = self._masks
        for row in self.intern_rows(elements):
            raw |= masks[row]
        return raw


class BloomSignature:
    """One m-bit signature; bits held in a single Python int."""

    __slots__ = ("config", "raw")

    def __init__(self, config: SignatureConfig, raw: int = 0):
        self.config = config
        self.raw = raw

    # ------------------------------------------------------------------
    def insert(self, element: int) -> None:
        self.raw |= self.config.mask(element)

    def query(self, element: int) -> bool:
        """Membership test: no false negatives, tunable false positives.

        One cached-mask AND-compare — the common miss costs a single
        big-int AND instead of k per-bit probes.
        """
        mask = self.config.mask(element)
        return self.raw & mask == mask

    def is_empty(self) -> bool:
        return self.raw == 0

    def clear(self) -> None:
        self.raw = 0

    # ------------------------------------------------------------------
    def union(self, other: "BloomSignature") -> "BloomSignature":
        self._compatible(other)
        return BloomSignature(self.config, self.raw | other.raw)

    def unite(self, other: "BloomSignature") -> None:
        """In-place union (the paper's ``TempSet.unite``)."""
        self._compatible(other)
        self.raw |= other.raw

    def intersect(self, other: "BloomSignature") -> "BloomSignature":
        self._compatible(other)
        return BloomSignature(self.config, self.raw & other.raw)

    def intersects(self, other: "BloomSignature") -> bool:
        """Set-overlap test (:meth:`SignatureConfig.overlaps`)."""
        self._compatible(other)
        return self.config.overlaps(self.raw, other.raw)

    def copy(self) -> "BloomSignature":
        return BloomSignature(self.config, self.raw)

    def _compatible(self, other: "BloomSignature") -> None:
        if self.config is not other.config:
            raise ValueError("signatures from different configurations")

    # ------------------------------------------------------------------
    def popcount(self) -> int:
        return bin(self.raw).count("1")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomSignature):
            return NotImplemented
        return self.config is other.config and self.raw == other.raw

    def __hash__(self) -> int:
        return hash((id(self.config), self.raw))

    def __repr__(self) -> str:
        return (
            f"BloomSignature(m={self.config.bits}, k={self.config.partitions},"
            f" popcount={self.popcount()})"
        )
