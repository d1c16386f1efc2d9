"""The interned mask cache must be invisible.

Property tests pinning the cache-backed fast paths to the uncached
ground truth: every address's cached query mask and memoized bit
positions must equal what the raw hash lanes produce,
for random addresses and random (bits, partitions, seed) geometries —
the verdict-bit-identity invariant's foundation (DESIGN.md).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signatures import SignatureConfig

element = st.integers(min_value=0, max_value=2**64 - 1)
element_lists = st.lists(element, max_size=24)

geometries = st.sampled_from(
    [(512, 4, 0x5EED), (512, 8, 1), (256, 4, 11), (64, 2, 7), (1024, 4, 3)]
)


def _uncached_positions(config, e):
    width = config.partition_bits
    return [i * width + h(e) for i, h in enumerate(config.hashes)]


def _uncached_mask(config, e):
    mask = 0
    for pos in _uncached_positions(config, e):
        mask |= 1 << pos
    return mask


class TestMaskCacheTransparency:
    @given(geometries, element_lists)
    @settings(max_examples=60)
    def test_cached_query_equals_uncached_bit_positions(self, geo, elements):
        bits, partitions, seed = geo
        config = SignatureConfig(bits, partitions, seed=seed)
        sig = config.of(elements)
        for probe in elements + [0, 1, 2**63]:
            uncached = all(
                sig.raw >> pos & 1 for pos in _uncached_positions(config, probe)
            )
            assert sig.query(probe) == uncached

    @given(geometries, element_lists)
    @settings(max_examples=60)
    def test_cached_masks_equal_uncached(self, geo, elements):
        bits, partitions, seed = geo
        config = SignatureConfig(bits, partitions, seed=seed)
        for e in elements:
            assert config.mask(e) == _uncached_mask(config, e)
            assert config.bit_positions(e) == _uncached_positions(config, e)

    @given(geometries, element_lists)
    @settings(max_examples=60)
    def test_batch_and_scalar_intern_agree(self, geo, elements):
        """One config interns through ``intern_rows``, another one
        ``mask`` at a time; masks, rows, and positions must agree."""
        bits, partitions, seed = geo
        batched = SignatureConfig(bits, partitions, seed=seed)
        scalar = SignatureConfig(bits, partitions, seed=seed)
        batched.intern_rows(elements)
        for e in elements:
            scalar.mask(e)
        assert batched._masks == scalar._masks
        assert batched._index == scalar._index
        assert batched._positions == scalar._positions
        assert all(type(p) is int for pos in batched._positions for p in pos)

    @given(geometries, element_lists)
    @settings(max_examples=60)
    def test_query_positions_equal_uncached(self, geo, elements):
        """The detector's column indices: one tuple per element, in
        order, counted like any other cache lookup."""
        bits, partitions, seed = geo
        config = SignatureConfig(bits, partitions, seed=seed)
        positions = config.query_positions(elements)
        assert [list(p) for p in positions] == [
            _uncached_positions(config, e) for e in elements
        ]
        assert config.mask_cache_hits + config.mask_cache_misses == len(elements)

    @given(element_lists)
    @settings(max_examples=60)
    def test_raw_of_equals_insert_loop(self, elements):
        config = SignatureConfig()
        assert config.raw_of(elements) == config.of(elements).raw

    def test_hit_miss_accounting(self):
        config = SignatureConfig()
        config.intern_rows([1, 2, 3])
        assert config.mask_cache_misses == 3
        assert config.mask_cache_hits == 0
        config.intern_rows([1, 2, 4])
        assert config.mask_cache_misses == 4
        assert config.mask_cache_hits == 2
        config.mask(1)
        assert config.mask_cache_hits == 3
        assert config.mask_cache_entries == 4
        # A first touch repeated within one batch is one miss, one hit.
        config = SignatureConfig()
        config.intern_rows([5, 5, 6])
        assert config.mask_cache_misses == 2
        assert config.mask_cache_hits == 1

    def test_cache_grows_past_initial_capacity(self):
        config = SignatureConfig()
        elements = list(range(1000))
        rows = config.intern_rows(elements)
        assert list(rows) == list(range(1000))
        for e in (0, 500, 999):
            assert config.mask(e) == _uncached_mask(config, e)
