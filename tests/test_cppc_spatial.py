"""Spatial multi-bit error tests: the paper's Section 4 coverage claims.

These run end-to-end: a strike pattern is injected into a CPPC cache's
stored bits and a subsequent access must detect and (when within coverage)
correct every affected word via the locator.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UncorrectableError
from repro.faults import FaultInjector, SpatialFault

from conftest import make_cppc_cache


def _dirty_all_rows(cache, way, top_row, height, rng):
    """Make `height` consecutive rows of `way` dirty with random data.

    Returns {row: (loc, value_bytes)}.
    """
    geometry = cache.protection.geometry
    written = {}
    for row in range(top_row, top_row + height):
        loc = geometry.loc_of(way, row)
        addr = (
            loc.set_index * cache.block_bytes + loc.unit_index * cache.unit_bytes
        )
        # Address that maps to (set, unit); tag 0, way assignment follows
        # fill order: way 0 gets the first fill.
        value = rng.getrandbits(64).to_bytes(8, "big")
        cache.store(addr, value)
        written[row] = (loc, value)
    return written


def _assert_all_clean_and_correct(cache, written):
    for row, (loc, value) in written.items():
        stored, check, _dirty = cache.peek_unit(loc)
        assert not cache.protection.inspect(stored, check).detected
        assert stored.to_bytes(8, "big") == value


class TestVerticalFaults:
    def test_two_bit_vertical_fault_corrected(self):
        """The Figure 4/5 scenario: MSB of two vertically adjacent dirty
        words flips; byte shifting makes it separable."""
        cache, _ = make_cppc_cache()
        rng = random.Random(0)
        written = _dirty_all_rows(cache, 0, 0, 2, rng)
        fault = SpatialFault(way=0, top_row=0, left_col=0, height=2, width=1)
        FaultInjector(cache).inject_spatial(fault)
        loc0 = written[0][0]
        addr0 = cache.address_of(loc0)
        result = cache.load(addr0, 8)
        assert result.detected_fault
        _assert_all_clean_and_correct(cache, written)
        assert "spatial-locator" in cache.protection.recovery_log[-1].methods

    @pytest.mark.parametrize("height", [2, 3, 4, 5, 6, 7])
    def test_vertical_column_faults_up_to_seven_rows(self, height):
        cache, _ = make_cppc_cache()
        rng = random.Random(height)
        written = _dirty_all_rows(cache, 0, 0, height, rng)
        fault = SpatialFault(way=0, top_row=0, left_col=5, height=height, width=1)
        FaultInjector(cache).inject_spatial(fault)
        cache.load(cache.address_of(written[0][0]), 8)
        _assert_all_clean_and_correct(cache, written)

    def test_full_period_vertical_column_single_pair_is_due(self):
        """A column fault spanning all 8 rotation classes is rotationally
        symmetric — every byte alignment explains the evidence equally
        (the same character as the paper's 8x8 special case): DUE."""
        cache, _ = make_cppc_cache(num_pairs=1)
        rng = random.Random(8)
        written = _dirty_all_rows(cache, 0, 0, 8, rng)
        fault = SpatialFault(way=0, top_row=0, left_col=5, height=8, width=1)
        FaultInjector(cache).inject_spatial(fault)
        with pytest.raises(UncorrectableError):
            cache.load(cache.address_of(written[0][0]), 8)

    def test_full_period_vertical_column_two_pairs_corrected(self):
        """Two register pairs break the rotational symmetry (Sec 4.6)."""
        cache, _ = make_cppc_cache(num_pairs=2)
        rng = random.Random(9)
        written = _dirty_all_rows(cache, 0, 0, 8, rng)
        fault = SpatialFault(way=0, top_row=0, left_col=5, height=8, width=1)
        FaultInjector(cache).inject_spatial(fault)
        cache.load(cache.address_of(written[0][0]), 8)
        _assert_all_clean_and_correct(cache, written)


class TestHorizontalFaults:
    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7, 8])
    def test_horizontal_in_word_faults(self, width):
        """A horizontal burst inside one word: interleaved parity flags
        one group per bit; the single-word path corrects it."""
        cache, _ = make_cppc_cache()
        rng = random.Random(width)
        written = _dirty_all_rows(cache, 0, 0, 1, rng)
        fault = SpatialFault(way=0, top_row=0, left_col=20, height=1, width=width)
        FaultInjector(cache).inject_spatial(fault)
        cache.load(cache.address_of(written[0][0]), 8)
        _assert_all_clean_and_correct(cache, written)


class TestSquareFaults:
    @settings(max_examples=40, deadline=None)
    @given(
        top=st.integers(min_value=0, max_value=56),
        col=st.integers(min_value=0, max_value=56),
        h=st.integers(min_value=1, max_value=8),
        w=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_any_sub_8x8_square_recovered_or_due_never_sdc(
        self, top, col, h, w, seed
    ):
        """Coverage property: any strike within an 8x8 square over dirty
        rows is either fully corrected or flagged DUE — never silently
        miscorrected (no SDC)."""
        cache, _ = make_cppc_cache()
        rng = random.Random(seed)
        written = _dirty_all_rows(cache, 0, top, h, rng)
        fault = SpatialFault(way=0, top_row=top, left_col=col, height=h, width=w)
        record = FaultInjector(cache).inject_spatial(fault)
        if not record.flips:
            return
        addr = cache.address_of(record.flips[0].loc)
        try:
            cache.load(addr, 8)
        except UncorrectableError:
            return  # DUE is acceptable; silent corruption is not
        _assert_all_clean_and_correct(cache, written)

    def test_full_8x8_single_pair_is_due(self):
        """Section 4.6: a full 8x8 strike with one register pair floods
        every parity bit and every R3 byte — uncorrectable."""
        cache, _ = make_cppc_cache(num_pairs=1)
        rng = random.Random(42)
        _dirty_all_rows(cache, 0, 0, 8, rng)
        fault = SpatialFault(way=0, top_row=0, left_col=8, height=8, width=8)
        record = FaultInjector(cache).inject_spatial(fault)
        assert record.total_bits == 64
        with pytest.raises(UncorrectableError):
            cache.load(cache.address_of(record.flips[0].loc), 8)

    def test_full_8x8_two_pairs_corrected(self):
        """Section 4.6: two register pairs split the 8x8 into two 4x8
        strikes in different domains — correctable."""
        cache, _ = make_cppc_cache(num_pairs=2)
        rng = random.Random(43)
        written = _dirty_all_rows(cache, 0, 0, 8, rng)
        fault = SpatialFault(way=0, top_row=0, left_col=8, height=8, width=8)
        record = FaultInjector(cache).inject_spatial(fault)
        cache.load(cache.address_of(record.flips[0].loc), 8)
        _assert_all_clean_and_correct(cache, written)

    def test_eight_pairs_without_shifting_corrects_squares(self):
        """Section 4.11: 8 register pairs, no barrel shifters — adjacent
        rows are in different domains, so squares decompose into
        single-word faults."""
        cache, _ = make_cppc_cache(num_pairs=8, byte_shifting=False)
        rng = random.Random(44)
        written = _dirty_all_rows(cache, 0, 0, 8, rng)
        fault = SpatialFault(way=0, top_row=0, left_col=0, height=8, width=8)
        record = FaultInjector(cache).inject_spatial(fault)
        cache.load(cache.address_of(record.flips[0].loc), 8)
        _assert_all_clean_and_correct(cache, written)


class TestByteBoundaryFaults:
    def test_square_across_byte_boundary(self):
        """The Section 4.5 worked scenario: the strike straddles two
        adjacent bytes of four consecutive rows."""
        cache, _ = make_cppc_cache()
        rng = random.Random(45)
        written = _dirty_all_rows(cache, 0, 0, 4, rng)
        # Bits 5..12: last 3 bits of byte 0, first 5 bits of byte 1.
        fault = SpatialFault(way=0, top_row=0, left_col=5, height=4, width=8)
        record = FaultInjector(cache).inject_spatial(fault)
        cache.load(cache.address_of(record.flips[0].loc), 8)
        _assert_all_clean_and_correct(cache, written)


class TestSevenRowStrikes:
    """A strike of seven rows whose columns cross a byte boundary is a DUE
    with one register pair and corrected with two (EXPERIMENTS.md,
    deviation 5)."""

    def _strike(self, num_pairs):
        cache, _ = make_cppc_cache(num_pairs=num_pairs)
        written = _dirty_all_rows(cache, 0, 0, 7, random.Random(48))
        # Columns 7 and 8: the last bit of byte 0 and the first of byte 1.
        fault = SpatialFault(way=0, top_row=0, left_col=7, height=7, width=2)
        record = FaultInjector(cache).inject_spatial(fault)
        assert record.total_bits == 14
        return cache, written, cache.address_of(record.flips[0].loc)

    def test_seven_by_two_single_pair_is_due(self):
        """Seven byte alignments explain the evidence equally."""
        cache, _, addr = self._strike(num_pairs=1)
        with pytest.raises(UncorrectableError, match="7 distinct fault locations"):
            cache.load(addr, 8)

    def test_seven_by_two_two_pairs_corrected(self):
        cache, written, addr = self._strike(num_pairs=2)
        cache.load(addr, 8)
        _assert_all_clean_and_correct(cache, written)


class TestAliasingHazard:
    def test_temporal_pair_miscorrected_as_spatial(self):
        """Section 4.7: temporal faults at bit 56 of a class-0 word and
        bit 8 of the adjacent class-1 word forge a consistent vertical
        2-bit pattern at bit 0 — the locator miscorrects, producing an
        SDC instead of a DUE.  The reproduction must exhibit the hazard."""
        cache, _ = make_cppc_cache(num_pairs=1)
        rng = random.Random(46)
        written = _dirty_all_rows(cache, 0, 0, 2, rng)
        loc0, value0 = written[0]
        loc1, value1 = written[1]
        cache.corrupt_data(loc0, 1 << (63 - 56))
        cache.corrupt_data(loc1, 1 << (63 - 8))
        cache.load(cache.address_of(loc0), 8)  # triggers "recovery"
        stored0 = cache.peek_unit(loc0)[0].to_bytes(8, "big")
        stored1 = cache.peek_unit(loc1)[0].to_bytes(8, "big")
        # Both words now differ from their true values: a 4-bit SDC.
        assert stored0 != value0
        assert stored1 != value1

    def test_eight_pairs_eliminate_the_hazard(self):
        """Section 4.7/4.11: with 8 pairs the two faults fall in separate
        domains and are corrected exactly."""
        cache, _ = make_cppc_cache(num_pairs=8, byte_shifting=False)
        rng = random.Random(47)
        written = _dirty_all_rows(cache, 0, 0, 2, rng)
        loc0, _ = written[0]
        loc1, _ = written[1]
        cache.corrupt_data(loc0, 1 << (63 - 56))
        cache.corrupt_data(loc1, 1 << (63 - 8))
        cache.load(cache.address_of(loc0), 8)
        cache.load(cache.address_of(loc1), 8)
        _assert_all_clean_and_correct(cache, written)
