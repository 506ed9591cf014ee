"""Unit and property tests for repro.util.bitops."""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.util import bitops
from repro.util import (
    check_word,
    flip_bit,
    flip_bits,
    get_bit,
    get_byte,
    mask,
    parity,
    popcount,
    rotl_bytes,
    rotr_bytes,
    xor_reduce,
)

words = st.integers(min_value=0, max_value=(1 << 64) - 1)


def set_positions(x):
    """MSB-first indices of the set bits of a 64-bit word."""
    return [k for k in range(64) if get_bit(x, k)]


class TestMaskAndCheck:
    def test_mask_widths(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(8) == 0xFF
        assert mask(64) == (1 << 64) - 1

    def test_mask_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            mask(-1)

    def test_check_word_accepts_in_range(self):
        assert check_word(0xFF, 8) == 0xFF

    def test_check_word_rejects_too_wide(self):
        with pytest.raises(ConfigurationError):
            check_word(0x100, 8)

    def test_check_word_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_word(-1, 8)


class TestPopcountParity:
    def test_popcount_basics(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert popcount(mask(64)) == 64

    def test_popcount_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            popcount(-5)

    def test_parity_basics(self):
        assert parity(0) == 0
        assert parity(1) == 1
        assert parity(0b11) == 0

    def test_negative_errors_name_the_right_function(self):
        # parity() once raised popcount's copy-pasted message; pin both.
        with pytest.raises(ConfigurationError, match="popcount requires"):
            popcount(-1)
        with pytest.raises(ConfigurationError, match="parity requires"):
            parity(-1)

    @given(words, st.integers(min_value=0, max_value=63))
    def test_single_flip_changes_parity(self, x, k):
        assert parity(x) != parity(flip_bit(x, k))

    # ``int.bit_count`` exists only from Python 3.10 on; the primitives
    # pick it when present and ``bin(x).count("1")`` otherwise.  Check
    # both branches on every interpreter.
    @pytest.mark.parametrize("branch", ["native", "bin"])
    @given(x=st.integers(min_value=0, max_value=1 << 300))
    def test_primitives_match_bin_count(self, branch, x):
        if branch == "native" and not hasattr(int, "bit_count"):
            pytest.skip("int.bit_count needs Python 3.10+")
        bit_count = int.bit_count if branch == "native" else bitops._bin_count
        with mock.patch.object(bitops, "_bit_count", bit_count):
            assert popcount(x) == bin(x).count("1")
            assert parity(x) == bin(x).count("1") & 1

    def test_native_branch_chosen_when_available(self):
        expected = getattr(int, "bit_count", bitops._bin_count)
        assert bitops._bit_count is expected


class TestBitIndexing:
    def test_bit0_is_msb(self):
        assert get_bit(1 << 63, 0) == 1
        assert get_bit(1, 63) == 1

    def test_flip_bit_out_of_range(self):
        with pytest.raises(ConfigurationError):
            flip_bit(0, 64)

    @given(words, st.integers(min_value=0, max_value=63))
    def test_flip_twice_is_identity(self, x, k):
        assert flip_bit(flip_bit(x, k), k) == x

    @given(st.sets(st.integers(min_value=0, max_value=63)))
    def test_flip_bits_sets_exact_positions(self, positions):
        x = flip_bits(0, positions)
        assert set(set_positions(x)) == positions


class TestByteIndexing:
    def test_byte0_is_most_significant(self):
        assert get_byte(0xAB << 56, 0) == 0xAB
        assert get_byte(0xCD, 7) == 0xCD

    def test_get_byte_out_of_range(self):
        with pytest.raises(ConfigurationError):
            get_byte(0, 8)

class TestRotation:
    def test_rotl_bytes_moves_msb_byte(self):
        x = 0xAA << 56  # byte 0
        # After rotl by 1 the value at byte 0 comes from byte 1; 0xAA
        # moves to the last byte position.
        assert get_byte(rotl_bytes(x, 1), 7) == 0xAA

    def test_rotl_zero_is_identity(self):
        assert rotl_bytes(0x1234, 0) == 0x1234

    def test_rotl_full_period_is_identity(self):
        assert rotl_bytes(0x123456789ABCDEF0, 8) == 0x123456789ABCDEF0

    @given(words, st.integers(min_value=0, max_value=16))
    def test_rotr_inverts_rotl(self, x, c):
        assert rotr_bytes(rotl_bytes(x, c), c) == x

    @given(words, st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=7))
    def test_rotl_composes_additively(self, x, a, b):
        assert rotl_bytes(rotl_bytes(x, a), b) == rotl_bytes(x, a + b)

    @given(words, st.integers(min_value=0, max_value=7))
    def test_rotation_preserves_popcount(self, x, c):
        assert popcount(rotl_bytes(x, c)) == popcount(x)

    @given(words, st.integers(min_value=0, max_value=7))
    def test_byte_rotation_preserves_bit_in_byte_position(self, x, c):
        rotated = rotl_bytes(x, c)
        def groups(v):
            return sorted(k % 8 for k in set_positions(v))
        assert groups(rotated) == groups(x)

class TestWordPacking:
    @given(st.lists(words, min_size=0, max_size=10))
    def test_xor_reduce_matches_functools(self, ws):
        acc = 0
        for w in ws:
            acc ^= w
        assert xor_reduce(ws) == acc

    def test_xor_reduce_empty(self):
        assert xor_reduce([]) == 0
