"""Tests for 1-D and interleaved parity codes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding import DetectionOutcome, InterleavedParity, byte_parity_code, word_parity_code
from repro.errors import ConfigurationError
from repro.util import flip_bit, flip_bits

words = st.integers(min_value=0, max_value=(1 << 64) - 1)
bits = st.integers(min_value=0, max_value=63)


class TestConstruction:
    def test_word_parity_is_one_way(self):
        assert word_parity_code().ways == 1
        assert word_parity_code().check_bits == 1

    def test_byte_parity_is_eight_way(self):
        code = byte_parity_code()
        assert code.ways == 8
        assert code.check_bits == 8
        assert code.relative_overhead == 0.125

    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigurationError):
            InterleavedParity(ways=0)

    def test_rejects_non_dividing_ways(self):
        with pytest.raises(ConfigurationError):
            InterleavedParity(data_bits=64, ways=7)

    def test_cannot_self_correct(self):
        assert not byte_parity_code().can_correct()


class TestGroups:
    def test_group_of_bit_is_mod_ways(self):
        code = byte_parity_code()
        assert code.group_of_bit(0) == 0
        assert code.group_of_bit(9) == 1
        assert code.group_of_bit(63) == 7

    def test_bits_of_group_roundtrip(self):
        code = byte_parity_code()
        for g in range(8):
            for k in code.bits_of_group(g):
                assert code.group_of_bit(k) == g

    def test_group_mask_popcount(self):
        code = byte_parity_code()
        for g in range(8):
            assert bin(code.group_mask(g)).count("1") == 8

    def test_group_out_of_range(self):
        code = byte_parity_code()
        with pytest.raises(ConfigurationError):
            code.bits_of_group(8)
        with pytest.raises(ConfigurationError):
            code.group_mask(-1)
        with pytest.raises(ConfigurationError):
            code.group_of_bit(64)


class TestDetection:
    @given(words)
    def test_clean_word_passes(self, x):
        code = byte_parity_code()
        assert not code.inspect(x, code.encode(x)).detected

    @given(words, bits)
    def test_single_flip_detected_in_right_group(self, x, k):
        code = byte_parity_code()
        check = code.encode(x)
        inspection = code.inspect(flip_bit(x, k), check)
        assert inspection.outcome is DetectionOutcome.DETECTED
        assert inspection.faulty_parities == {k % 8}

    @given(words, st.integers(min_value=0, max_value=56),
           st.integers(min_value=1, max_value=8))
    def test_burst_up_to_ways_detected(self, x, start, length):
        """Any burst of <= 8 adjacent flipped bits is detected (Sec 3.6)."""
        code = byte_parity_code()
        check = code.encode(x)
        corrupted = flip_bits(x, range(start, start + length))
        inspection = code.inspect(corrupted, check)
        assert inspection.detected
        assert len(inspection.faulty_parities) == length

    @given(words, bits, bits)
    def test_even_flips_same_group_escape_word_parity_groups(self, x, a, b):
        """Two flips in one parity group are invisible to that group."""
        code = byte_parity_code()
        if a == b or a % 8 != b % 8:
            return
        corrupted = flip_bits(x, [a, b])
        inspection = code.inspect(corrupted, code.encode(x))
        assert not inspection.detected

    @given(words, bits, bits)
    def test_two_flips_different_groups_detected(self, x, a, b):
        code = byte_parity_code()
        if a % 8 == b % 8:
            return
        corrupted = flip_bits(x, [a, b])
        inspection = code.inspect(corrupted, code.encode(x))
        assert inspection.faulty_parities == {a % 8, b % 8}

    @given(words)
    def test_word_parity_detects_odd_flips_only(self, x):
        code = word_parity_code()
        check = code.encode(x)
        assert code.inspect(flip_bit(x, 3), check).detected
        assert not code.inspect(flip_bits(x, [3, 40]), check).detected

    def test_check_bit_corruption_detected(self):
        code = byte_parity_code()
        x = 0x0123456789ABCDEF
        check = code.encode(x) ^ 0b1
        assert code.inspect(x, check).detected

    def test_inspect_validates_widths(self):
        code = byte_parity_code()
        with pytest.raises(ConfigurationError):
            code.inspect(1 << 64, 0)
        with pytest.raises(ConfigurationError):
            code.inspect(0, 1 << 8)


class TestPaperExample:
    def test_parity_bit_definition_matches_section_3_6(self):
        """Parity[i] = XOR(bit[i], bit[i+8], ..., bit[i+56])."""
        code = byte_parity_code()
        # A word with only bit 8 set: parity group 0 must flag.
        x = flip_bit(0, 8)
        check = code.encode(x)
        inspection = code.inspect(0, check)  # data lost the bit
        assert inspection.faulty_parities == {0}


class TestLinearity:
    """encode(a ^ b) == encode(a) ^ encode(b) — the property the cache's
    partial-store delta update of check bits relies on."""

    @given(words, words)
    def test_interleaved_parity_is_linear(self, a, b):
        code = byte_parity_code()
        assert code.encode(a ^ b) == code.encode(a) ^ code.encode(b)

    @given(words)
    def test_zero_encodes_to_zero(self, a):
        code = byte_parity_code()
        assert code.encode(0) == 0
        assert code.encode(a) == code.encode(a ^ 0)


def _definition_mask(data_bits, ways, group):
    """Data-word mask of group ``group`` straight from the definition."""
    return sum(1 << (data_bits - 1 - k) for k in range(group, data_bits, ways))


def _definition_encode(data_bits, ways, data):
    """Check word by the per-group definition: ``parity(data & mask)``."""
    check = 0
    for i in range(ways):
        bit = bin(data & _definition_mask(data_bits, ways, i)).count("1") & 1
        check |= bit << (ways - 1 - i)
    return check


@st.composite
def geometries(draw):
    """Every width the constructor accepts, with one of its divisors."""
    data_bits = draw(st.integers(min_value=1, max_value=300))
    ways = draw(st.sampled_from([w for w in range(1, data_bits + 1)
                                 if data_bits % w == 0]))
    return data_bits, ways


NAMED_GEOMETRIES = [(64, 8), (256, 8), (64, 1), (24, 8), (48, 8), (40, 1),
                    (72, 9), (64, 64), (8, 8), (1, 1)]


class TestFoldMatchesDefinition:
    """``encode`` is an XOR-fold; it must equal the per-group definition
    on any int, including ints wider than the word and negative ints
    (the definition masks both through each group mask)."""

    @pytest.mark.parametrize("data_bits,ways", NAMED_GEOMETRIES)
    @given(data=st.data())
    def test_named_geometries(self, data_bits, ways, data):
        code = InterleavedParity(data_bits, ways)
        span = 1 << (data_bits + 20)
        x = data.draw(st.integers(min_value=-span, max_value=span))
        assert code.encode(x) == _definition_encode(data_bits, ways, x)

    @given(geometries(), st.data())
    def test_drawn_geometries(self, geometry, data):
        data_bits, ways = geometry
        code = InterleavedParity(data_bits, ways)
        span = 1 << (data_bits + 20)
        x = data.draw(st.integers(min_value=-span, max_value=span))
        assert code.encode(x) == _definition_encode(data_bits, ways, x)

    @given(geometries())
    def test_group_masks_match_definition(self, geometry):
        data_bits, ways = geometry
        code = InterleavedParity(data_bits, ways)
        for g in range(ways):
            assert code.group_mask(g) == _definition_mask(data_bits, ways, g)

    @given(geometries(), st.data())
    def test_inspect_reports_definition_syndrome(self, geometry, data):
        data_bits, ways = geometry
        code = InterleavedParity(data_bits, ways)
        x = data.draw(st.integers(min_value=0, max_value=(1 << data_bits) - 1))
        check = data.draw(st.integers(min_value=0, max_value=(1 << ways) - 1))
        syndrome = _definition_encode(data_bits, ways, x) ^ check
        inspection = code.inspect(x, check)
        if syndrome == 0:
            assert inspection.outcome is DetectionOutcome.CLEAN
            assert inspection.syndrome == 0
            assert inspection.faulty_parities == frozenset()
        else:
            assert inspection.outcome is DetectionOutcome.DETECTED
            assert inspection.syndrome == syndrome
            assert inspection.faulty_parities == {
                i for i in range(ways) if syndrome >> (ways - 1 - i) & 1
            }

    @given(geometries(), st.data())
    def test_inspect_rejects_out_of_range(self, geometry, data):
        data_bits, ways = geometry
        code = InterleavedParity(data_bits, ways)
        good_data = data.draw(st.integers(0, (1 << data_bits) - 1))
        good_check = data.draw(st.integers(0, (1 << ways) - 1))
        bad_data = data.draw(st.one_of(
            st.integers(max_value=-1), st.integers(min_value=1 << data_bits)))
        bad_check = data.draw(st.one_of(
            st.integers(max_value=-1), st.integers(min_value=1 << ways)))
        with pytest.raises(ConfigurationError):
            code.inspect(bad_data, good_check)
        with pytest.raises(ConfigurationError):
            code.inspect(good_data, bad_check)
