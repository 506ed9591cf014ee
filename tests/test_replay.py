"""Tests for golden memory and the trace replayer."""

import pytest

from repro.errors import SimulationError
from repro.memsim import AccessType
from repro.workloads import (
    GoldenMemory,
    TraceRecord,
    TraceReplayer,
    make_workload,
)


class TestGoldenMemory:
    def test_unwritten_reads_zero(self):
        assert GoldenMemory().read(100, 4) == bytes(4)

    def test_store_read(self):
        g = GoldenMemory()
        g.store(10, b"\x01\x02")
        assert g.read(10, 2) == b"\x01\x02"
        assert g.read(9, 4) == b"\x00\x01\x02\x00"

    def test_overlapping_stores(self):
        g = GoldenMemory()
        g.store(0, b"\xAA" * 4)
        g.store(2, b"\xBB")
        assert g.read(0, 4) == b"\xaa\xaa\xbb\xaa"

    def test_len_and_items(self):
        g = GoldenMemory()
        g.store(0, b"\x01\x02")
        assert len(g) == 2
        assert dict(g.items()) == {0: 1, 1: 2}


class TestReplayer:
    def test_counts(self, tiny_hierarchy):
        records = [
            TraceRecord(AccessType.STORE, 0, 8, 2, b"\x11" * 8),
            TraceRecord(AccessType.LOAD, 0, 8, 3),
        ]
        result = TraceReplayer(tiny_hierarchy).run(records)
        assert result.references == 2
        assert result.loads == 1 and result.stores == 1
        assert result.instructions == 7

    def test_check_loads_requires_golden(self, tiny_hierarchy):
        with pytest.raises(SimulationError):
            TraceReplayer(tiny_hierarchy, check_loads=True)

    def test_clean_replay_has_no_mismatches(self, tiny_hierarchy):
        golden = GoldenMemory()
        replayer = TraceReplayer(tiny_hierarchy, golden=golden, check_loads=True)
        result = replayer.run(make_workload("gzip").records(600))
        assert result.mismatches == 0

    def test_mismatch_detected_after_manual_corruption(self, tiny_hierarchy):
        golden = GoldenMemory()
        replayer = TraceReplayer(tiny_hierarchy, golden=golden, check_loads=True)
        store = TraceRecord(AccessType.STORE, 0, 8, 0, b"\x11" * 8)
        load = TraceRecord(AccessType.LOAD, 0, 8, 0)
        replayer.step(store)
        # Corrupt the hierarchy behind the replayer's back.
        loc = tiny_hierarchy.l1d.locate(0)
        tiny_hierarchy.l1d.corrupt_data(loc, 1)
        assert replayer.step(load) is True
        assert replayer.result.mismatches == 1

    def test_cycle_advances_with_instructions(self, tiny_hierarchy):
        golden = GoldenMemory()
        replayer = TraceReplayer(tiny_hierarchy, golden=golden)
        replayer.step(TraceRecord(AccessType.LOAD, 0, 8, 9))
        assert replayer.cycle == 10
