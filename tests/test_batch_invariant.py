"""The CPPC R1 ^ R2 invariant under randomized batch/scalar replay.

These tests drive both engines through randomized store / evict /
overwrite interleavings (seeded via :func:`repro.util.make_rng`) and
assert, word-for-word, that the batch fast path reproduces the scalar
simulator — including that R1 ^ R2 always equals the XOR of the rotated
resident dirty words, the equality CPPC's recovery (paper Section 3)
depends on.
"""

import pytest

from repro.memsim import AccessType
from repro.util import WORD_BYTES, make_rng, rotl_bytes
from repro.workloads import FastReplay, TraceRecord

BLOCK = 32
UNITS_PER_BLOCK = BLOCK // WORD_BYTES


def random_records(rng, n, *, blocks=64, store_fraction=0.6):
    """A trace over few blocks, dense enough to force dirty evictions."""
    records = []
    for _ in range(n):
        base = BLOCK * rng.randrange(blocks)
        size = rng.choice([1, 2, 4, 8])
        offset = size * rng.randrange(BLOCK // size)
        gap = rng.randrange(4)
        if rng.random() < store_fraction:
            value = bytes(rng.randrange(256) for _ in range(size))
            records.append(
                TraceRecord(AccessType.STORE, base + offset, size, gap, value)
            )
        else:
            records.append(TraceRecord(AccessType.LOAD, base + offset, size, gap))
    return records


def expected_dirty_xor(result, *, num_pairs, byte_shifting, num_classes=8):
    """Recompute the invariant directly from the final line states."""
    expected = {i: 0 for i in range(num_pairs)}
    classes_per_pair = num_classes // num_pairs
    for set_index, way in result.cache.resident_lines():
        line = result.cache.line(set_index, way)
        for unit, dirty in enumerate(line.dirty):
            if not dirty:
                continue
            word = line.data[unit * WORD_BYTES : (unit + 1) * WORD_BYTES]
            value = int.from_bytes(word, "big")
            cls = (set_index * UNITS_PER_BLOCK + unit) % num_classes
            if byte_shifting:
                value = rotl_bytes(value, cls)
            expected[cls // classes_per_pair] ^= value
    return expected


class TestRandomizedInvariant:
    @pytest.mark.parametrize("num_pairs", [1, 2, 4, 8])
    @pytest.mark.parametrize("byte_shifting", [True, False])
    def test_interleavings_match_scalar(self, num_pairs, byte_shifting):
        rng = make_rng(("batch-invariant", num_pairs, byte_shifting))
        records = random_records(rng, 600)
        replay = FastReplay(
            1024,
            2,
            BLOCK,
            num_pairs=num_pairs,
            byte_shifting=byte_shifting,
            equivalence="always",
        )
        # "always" cross-checks lines, stats, R1/R2 and parities
        # word-for-word against the scalar Cache (raises on divergence).
        result = replay.run(records)
        assert result.checked
        # The trace must actually exercise eviction and overwrite paths.
        assert result.stats.evictions_dirty > 0
        assert result.stats.stores_to_dirty_units > 0
        dirty_xor = {i: p.dirty_xor for i, p in enumerate(result.registers.pairs)}
        assert dirty_xor == expected_dirty_xor(
            result, num_pairs=num_pairs, byte_shifting=byte_shifting
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_seed_sweep_single_pair(self, seed):
        rng = make_rng(("batch-invariant-sweep", seed))
        records = random_records(rng, 400, blocks=48, store_fraction=0.75)
        result = FastReplay(1024, 2, BLOCK, equivalence="always").run(records)
        assert result.checked
        assert result.stats.evictions_dirty > 0


class TestRotationClasses:
    @pytest.mark.parametrize("rotation_class", range(8))
    def test_single_class_store_rotates_into_r1(self, rotation_class):
        # Pick (set, unit) so that set*units_per_block + unit lands in
        # the requested rotation class, then store one word there.
        set_index = rotation_class // UNITS_PER_BLOCK
        unit = rotation_class % UNITS_PER_BLOCK
        addr = set_index * BLOCK + unit * WORD_BYTES
        value = bytes(range(0x10, 0x18))
        records = [TraceRecord(AccessType.STORE, addr, 8, 0, value)]
        result = FastReplay(
            1024,
            2,
            BLOCK,
            num_pairs=8,
            equivalence="always",
        ).run(records)
        rotated = rotl_bytes(int.from_bytes(value, "big"), rotation_class)
        for pair_index, pair in enumerate(result.registers.pairs):
            if pair_index == rotation_class:
                assert pair.r1 == rotated
                assert pair.r1_parity == bin(rotated).count("1") & 1
            else:
                assert pair.r1 == 0
            assert pair.r2 == 0

    @pytest.mark.parametrize("rotation_class", range(8))
    def test_overwrite_moves_old_value_to_r2(self, rotation_class):
        set_index = rotation_class // UNITS_PER_BLOCK
        unit = rotation_class % UNITS_PER_BLOCK
        addr = set_index * BLOCK + unit * WORD_BYTES
        first = b"\xaa" * 8
        second = b"\x5b" * 8
        records = [
            TraceRecord(AccessType.STORE, addr, 8, 0, first),
            TraceRecord(AccessType.STORE, addr, 8, 0, second),
        ]
        result = FastReplay(
            1024,
            2,
            BLOCK,
            num_pairs=8,
            equivalence="always",
        ).run(records)
        pair = result.registers.pairs[rotation_class]
        rot_first = rotl_bytes(int.from_bytes(first, "big"), rotation_class)
        rot_second = rotl_bytes(int.from_bytes(second, "big"), rotation_class)
        assert pair.r1 == rot_first ^ rot_second
        assert pair.r2 == rot_first
        # The invariant holds: R1 ^ R2 is the rotated resident word.
        assert pair.r1 ^ pair.r2 == rot_second
