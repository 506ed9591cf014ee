"""Tests for the sparse main memory."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AlignmentError, ConfigurationError
from repro.memsim import MainMemory


class TestBasics:
    def test_unwritten_reads_zero(self):
        mem = MainMemory(block_bytes=32)
        assert mem.read_block(0) == bytes(32)

    def test_write_then_read(self):
        mem = MainMemory(block_bytes=32)
        data = bytes(range(32))
        mem.write_block(64, data)
        assert mem.read_block(64) == data

    def test_rejects_non_pow2_block(self):
        with pytest.raises(ConfigurationError):
            MainMemory(block_bytes=24)

    def test_rejects_misaligned_read(self):
        with pytest.raises(AlignmentError):
            MainMemory(32).read_block(8)

    def test_rejects_short_write(self):
        with pytest.raises(AlignmentError):
            MainMemory(32).write_block(0, b"abc")

    def test_access_counters(self):
        mem = MainMemory(32)
        mem.read_block(0)
        mem.write_block(0, bytes(32))
        assert mem.reads == 1 and mem.writes == 1

    def test_resident_blocks(self):
        mem = MainMemory(32)
        mem.write_block(0, bytes(32))
        mem.write_block(32, bytes(32))
        mem.write_block(0, bytes(32))
        assert mem.resident_blocks == 2


class TestPeekPoke:
    def test_poke_crossing_blocks(self):
        mem = MainMemory(32)
        mem.poke(30, b"\x01\x02\x03\x04")
        assert mem.peek(30, 4) == b"\x01\x02\x03\x04"
        assert mem.resident_blocks == 2

    def test_peek_does_not_count_access(self):
        mem = MainMemory(32)
        mem.peek(0, 8)
        assert mem.reads == 0

    @given(st.integers(min_value=0, max_value=1000),
           st.binary(min_size=1, max_size=100))
    def test_poke_peek_roundtrip(self, addr, data):
        mem = MainMemory(32)
        mem.poke(addr, data)
        assert mem.peek(addr, len(data)) == data

    def test_poke_then_read_block_consistent(self):
        mem = MainMemory(32)
        mem.poke(4, b"\xff\xee")
        block = mem.read_block(0)
        assert block[4:6] == b"\xff\xee"
        assert block[:4] == bytes(4)


class TestFirstMismatch:
    @given(
        st.dictionaries(st.integers(0, 300), st.integers(0, 255), max_size=40),
        st.dictionaries(st.integers(0, 300), st.integers(0, 255), max_size=40),
    )
    def test_matches_the_byte_by_byte_scan(self, stored, image):
        mem = MainMemory(32)
        for addr, byte in stored.items():
            mem.poke(addr, bytes([byte]))
        expected = next(
            (addr for addr, byte in image.items() if mem.byte_at(addr) != byte), None
        )
        assert mem.first_mismatch(image.items()) == expected

    def test_reports_the_first_address_in_image_order(self):
        mem = MainMemory(32)
        mem.poke(0, b"\x01" * 96)
        image = {64: 2, 0: 2, 70: 1}
        assert mem.first_mismatch(image.items()) == 64
        assert mem.first_mismatch({70: 1, 5: 1}.items()) is None
        assert mem.first_mismatch({200: 0, 201: 7}.items()) == 201
