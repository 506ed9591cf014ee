"""Tests for CPPC recovery: single faults and temporal multi-word faults."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UncorrectableError

from conftest import fill_random, make_cppc_cache


def _dirty_locs(cache, n):
    locs = [loc for loc, _v in cache.iter_dirty_units()]
    assert len(locs) >= n, "test setup produced too few dirty units"
    return locs[:n]


class TestSingleBitRecovery:
    def test_load_triggers_and_corrects(self):
        cache, _ = make_cppc_cache()
        cache.store(0, b"\x5A" * 8)
        cache.corrupt_data(cache.locate(0), 1 << 63)
        result = cache.load(0, 8)
        assert result.detected_fault
        assert result.data == b"\x5A" * 8
        assert cache.protection.recoveries == 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=63))
    def test_every_bit_position_recoverable(self, bit):
        cache, _ = make_cppc_cache()
        rng = random.Random(bit)
        golden = fill_random(cache, cache.next_level, rng, n_stores=40)
        loc = next(iter(cache.iter_dirty_units()))[0]
        addr = cache.address_of(loc)
        cache.corrupt_data(loc, 1 << (63 - bit))
        data = cache.load(addr, 8).data
        if addr in golden:
            assert data == golden[addr]
        # Whatever the value history, the stored word must now pass parity.
        value, check, _ = cache.peek_unit(loc)
        assert not cache.protection.inspect(value, check).detected

    def test_store_to_faulty_dirty_word_recovers_first(self):
        """Read-before-write checks the old value, so a latent fault is
        repaired before it can pollute R2 (Section 3.1 + DESIGN.md)."""
        cache, _ = make_cppc_cache()
        cache.store(0, b"\x11" * 8)
        cache.store(64, b"\x22" * 8)
        cache.corrupt_data(cache.locate(0), 1 << 7)
        cache.store(0, b"\x33" * 8)  # overwrite the faulty dirty word
        assert cache.protection.recoveries == 1
        # The OTHER dirty word must still be recoverable afterwards.
        cache.corrupt_data(cache.locate(64), 1 << 3)
        assert cache.load(64, 8).data == b"\x22" * 8

    def test_eviction_of_faulty_dirty_word_recovers(self):
        cache, memory = make_cppc_cache()
        cache.store(0, b"\x44" * 8)
        cache.corrupt_data(cache.locate(0), 1 << 13)
        stride = cache.num_sets * 32
        cache.load(stride, 8)
        cache.load(2 * stride, 8)  # eviction verifies and recovers
        assert cache.protection.recoveries == 1
        assert memory.peek(0, 8) == b"\x44" * 8

    def test_odd_number_of_faults_in_one_parity_group_recovered(self):
        """Section 3.4: an odd number of flips in one byte group of one
        dirty word is corrected."""
        cache, _ = make_cppc_cache()
        cache.store(0, b"\x00" * 8)
        # Bits 0, 8, 16 are all in parity group 0.
        mask = (1 << 63) | (1 << 55) | (1 << 47)
        cache.corrupt_data(cache.locate(0), mask)
        assert cache.load(0, 8).data == b"\x00" * 8

    def test_multi_bit_fault_different_groups_single_word(self):
        cache, _ = make_cppc_cache()
        cache.store(0, b"\x77" * 8)
        cache.corrupt_data(cache.locate(0), 0b10110101)
        assert cache.load(0, 8).data == b"\x77" * 8


class TestCleanFaults:
    def test_clean_fault_refetches(self):
        cache, memory = make_cppc_cache()
        memory.poke(0, b"\x66" * 32)
        cache.load(0, 8)
        cache.corrupt_data(cache.locate(0), 1 << 22)
        result = cache.load(0, 8)
        assert result.detected_fault
        assert result.data == b"\x66" * 8
        assert cache.protection.recoveries == 0  # no register recovery

    def test_clean_fault_does_not_touch_registers(self):
        cache, memory = make_cppc_cache()
        cache.store(512, b"\x01" * 8)
        pair = cache.protection.registers.pairs[0]
        r1, r2 = pair.r1, pair.r2
        memory.poke(0, b"\x13" * 32)
        cache.load(0, 8)
        cache.corrupt_data(cache.locate(0), 1)
        cache.load(0, 8)
        assert (pair.r1, pair.r2) == (r1, r2)


class TestTemporalMultiWordFaults:
    def test_disjoint_parity_groups_both_corrected(self):
        """Recovery step 4: faults in different parity groups of two dirty
        words are separable."""
        cache, _ = make_cppc_cache()
        rng = random.Random(1)
        golden = fill_random(cache, cache.next_level, rng, n_stores=40)
        locs = _dirty_locs(cache, 2)
        cache.corrupt_data(locs[0], 1 << 63)  # group 0
        cache.corrupt_data(locs[1], 1 << 62)  # group 1
        addr0 = cache.address_of(locs[0])
        cache.load(addr0, 8)
        for loc in locs:
            value, check, _ = cache.peek_unit(loc)
            assert not cache.protection.inspect(value, check).detected
        for loc in locs:
            addr = cache.address_of(loc)
            if addr in golden:
                assert cache.load(addr, 8).data == golden[addr]

    def test_same_group_far_apart_is_due(self):
        """Two faults in the same parity group of dirty words in rows too
        far apart for a spatial strike: uncorrectable."""
        cache, _ = make_cppc_cache()
        geometry = cache.protection.geometry
        # Two dirty words in the same way, same rotation class (rows 0
        # and 8), same bit -> same parity group, inseparable.
        a = geometry.loc_of(0, 0)
        b = geometry.loc_of(0, 8)
        cache.store(cache.mapper.rebuild_address(0, a.set_index), b"\x01" * 8)
        addr_b = (
            b.set_index * 32 + b.unit_index * 8
        )
        cache.store(addr_b, b"\x02" * 8)
        cache.corrupt_data(cache.locate(0), 1 << 63)
        cache.corrupt_data(cache.locate(addr_b), 1 << 63)
        with pytest.raises(UncorrectableError):
            cache.load(0, 8)

    def test_faults_in_different_pairs_recover_independently(self):
        """With two register pairs, simultaneous faults in classes 0 and 4
        live in different domains and both recover (Section 4.6)."""
        cache, _ = make_cppc_cache(num_pairs=2)
        geometry = cache.protection.geometry
        loc_a = geometry.loc_of(0, 0)  # class 0 -> pair 0
        loc_b = geometry.loc_of(0, 4)  # class 4 -> pair 1
        addr_a = 0
        addr_b = 4 * 8  # row 4 = set 1 unit 0 for 4-unit blocks
        cache.store(addr_a, b"\x0A" * 8)
        cache.store(addr_b, b"\x0B" * 8)
        assert cache.peek_unit(loc_a)[2] and cache.peek_unit(loc_b)[2]
        cache.corrupt_data(loc_a, 1 << 63)
        cache.corrupt_data(loc_b, 1 << 63)
        assert cache.load(addr_a, 8).data == b"\x0A" * 8
        assert cache.load(addr_b, 8).data == b"\x0B" * 8

    def test_single_pair_same_bit_classes_0_and_4_is_due(self):
        """The same two faults with ONE pair alias in the locator
        (Section 4.6's second special case) and must raise a DUE."""
        cache, _ = make_cppc_cache(num_pairs=1)
        addr_a, addr_b = 0, 4 * 8
        cache.store(addr_a, b"\x0A" * 8)
        cache.store(addr_b, b"\x0B" * 8)
        cache.corrupt_data(cache.locate(addr_a), 1 << 63)
        cache.corrupt_data(cache.locate(addr_b), 1 << 63)
        with pytest.raises(UncorrectableError):
            cache.load(addr_a, 8)


class TestRecoveryBookkeeping:
    def test_recovery_report_records_corrections(self):
        cache, _ = make_cppc_cache()
        cache.store(0, b"\xEE" * 8)
        loc = cache.locate(0)
        cache.corrupt_data(loc, 1 << 63)
        cache.load(0, 8)
        report = cache.protection.recovery_log[-1]
        assert report.trigger == loc
        assert loc in report.corrections
        old, new = report.corrections[loc]
        assert old != new
        assert report.methods == ["single"]

    def test_corrected_faults_counter(self):
        cache, _ = make_cppc_cache()
        cache.store(0, b"\xEE" * 8)
        cache.corrupt_data(cache.locate(0), 1)
        cache.load(0, 8)
        assert cache.stats.corrected_faults == 1
        assert cache.stats.detected_faults == 1


class TestRecoveryCost:
    def test_report_counts_scanned_units(self):
        cache, _ = make_cppc_cache()
        for i in range(10):
            cache.store(i * 64, bytes([i]) * 8)
        cache.corrupt_data(cache.locate(0), 1)
        cache.load(0, 8)
        report = cache.protection.recovery_log[-1]
        # Ten resident lines of four units each.
        assert report.units_scanned == 40 == len(list(cache.iter_units()))
        assert report.estimated_cycles() == 4 * report.units_scanned

    def test_flush_recovery_counts_the_lines_still_resident(self):
        cache, _ = make_cppc_cache()
        for i in range(10):
            cache.store(i * 64, bytes([i]) * 8)  # even sets; sets 0, 2 twice
        for i in range(8):
            cache.load(32 + i * 64, 8)  # one clean line in each odd set
        loc = cache.locate(4 * 64)
        assert (loc.set_index, loc.way) == (8, 0)
        cache.corrupt_data(loc, 1)
        cache.flush()
        report = cache.protection.recovery_log[-1]
        assert report.trigger == loc
        # The flush has removed every line of sets 0-7; sets 8-15 still
        # hold eight lines of four units each.
        assert report.units_scanned == 32

    def test_amortized_overhead_is_negligible(self):
        """Section 5: recovery cost can be ignored.  At 0.001 FIT/bit over
        a fully dirty 32KB cache, even a 100k-cycle software recovery
        consumes a vanishing fraction of all cycles."""
        from repro.cppc.recovery import amortized_recovery_overhead

        fault_rate = 0.001 * 32 * 1024 * 8 / 1e9  # faults per hour
        overhead = amortized_recovery_overhead(fault_rate, 100_000)
        assert overhead < 1e-12

    def test_amortized_overhead_validation(self):
        from repro.cppc.recovery import amortized_recovery_overhead
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            amortized_recovery_overhead(-1.0, 10)
