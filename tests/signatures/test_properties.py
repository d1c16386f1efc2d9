"""Property-based tests for bloom signatures (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signatures import BloomSignature, SignatureConfig

CONFIG = SignatureConfig(bits=256, partitions=4, seed=11)

element = st.integers(min_value=0, max_value=2**48)
element_sets = st.sets(element, max_size=24)


class TestSignatureLaws:
    @given(element_sets)
    def test_no_false_negatives(self, elements):
        sig = CONFIG.of(elements)
        assert all(sig.query(e) for e in elements)

    @given(element_sets, element_sets)
    def test_union_superset_queries(self, a, b):
        union = CONFIG.of(a).union(CONFIG.of(b))
        assert all(union.query(e) for e in a | b)

    @given(element_sets, element_sets)
    def test_union_commutative_and_raw_or(self, a, b):
        sa, sb = CONFIG.of(a), CONFIG.of(b)
        assert sa.union(sb) == sb.union(sa)
        assert sa.union(sb).raw == sa.raw | sb.raw

    @given(element_sets, element_sets)
    def test_intersection_sound(self, a, b):
        """A real overlap is always detected (no false negatives on
        the intersection test)."""
        sa, sb = CONFIG.of(a), CONFIG.of(b)
        if a & b:
            assert sa.intersects(sb)

    @given(element_sets, element_sets)
    def test_intersect_symmetric(self, a, b):
        sa, sb = CONFIG.of(a), CONFIG.of(b)
        assert sa.intersects(sb) == sb.intersects(sa)
        assert sa.intersect(sb) == sb.intersect(sa)

    @given(element_sets)
    def test_incremental_equals_bulk(self, elements):
        incremental = CONFIG.new()
        for e in elements:
            incremental.insert(e)
        assert incremental == CONFIG.of(elements)

    @given(element_sets)
    def test_empty_only_when_no_elements(self, elements):
        sig = CONFIG.of(elements)
        assert sig.is_empty() == (len(elements) == 0)

    @given(element_sets, element_sets)
    def test_unite_matches_union(self, a, b):
        sig = CONFIG.of(a)
        sig.unite(CONFIG.of(b))
        assert sig == CONFIG.of(a).union(CONFIG.of(b))

    @given(element_sets)
    def test_popcount_bounds(self, elements):
        sig = CONFIG.of(elements)
        n = len(elements)
        assert sig.popcount() <= CONFIG.partitions * n
        if n:
            # Every non-empty signature sets at least one bit in each
            # of the k partitions (one per element, possibly shared).
            assert sig.popcount() >= CONFIG.partitions


def _overlaps_reference(config, a, b):
    """Per-partition reference: every m/k-bit slice of ``a & b`` is non-zero."""
    width = config.partition_bits
    lane = (1 << width) - 1
    return all((a & b) >> (i * width) & lane for i in range(config.partitions))


@st.composite
def geometry_and_raws(draw):
    partitions = draw(st.integers(min_value=1, max_value=8))
    bits = partitions << draw(st.integers(min_value=1, max_value=7))
    raw = st.builds(
        lambda positions: sum(1 << p for p in positions),
        st.sets(st.integers(min_value=0, max_value=bits - 1), max_size=bits // 2),
    )
    return SignatureConfig(bits, partitions), draw(raw), draw(raw)


class TestOverlaps:
    @given(geometry_and_raws())
    @settings(max_examples=200)
    def test_overlaps_equals_per_partition_reference(self, case):
        config, a, b = case
        expected = _overlaps_reference(config, a, b)
        assert config.overlaps(a, b) == expected
        assert config.overlaps(b, a) == expected
        sa, sb = BloomSignature(config, a), BloomSignature(config, b)
        assert sa.intersects(sb) == expected
