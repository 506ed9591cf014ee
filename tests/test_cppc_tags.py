"""Tests for CPPC-style tag-array protection (paper Section 7)."""

import gc
import random
import weakref

import pytest

from repro.cppc import TagCppc
from repro.errors import ConfigurationError, UncorrectableError
from repro.memsim import Cache, MainMemory


def make_tag_protected_cache(parity_ways=1):
    memory = MainMemory(block_bytes=32)
    cache = Cache(
        "L1D", 1024, 2, 32,
        next_level=memory,
        tag_protection=TagCppc(tag_bits=40, parity_ways=parity_ways),
    )
    return cache, memory


class TestTagCppcUnit:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TagCppc(tag_bits=0)
        with pytest.raises(ConfigurationError):
            TagCppc(tag_bits=40, parity_ways=3)

    def test_insert_remove_cancel(self):
        tp = TagCppc(tag_bits=40)
        tp.on_insert(0x123)
        tp.on_remove(0x123)
        assert tp.valid_tag_xor == 0

    def test_oversized_tag_rejected(self):
        tp = TagCppc(tag_bits=8)
        with pytest.raises(ConfigurationError):
            tp.on_insert(0x100)

    def test_double_attach_rejected(self):
        tp = TagCppc()
        def make_cache():
            return Cache(
                "L1D", 1024, 2, 32, next_level=MainMemory(32), tag_protection=tp
            )
        make_cache()
        with pytest.raises(ConfigurationError):
            make_cache()


class TestTagInvariant:
    def test_register_tracks_valid_tags(self):
        cache, _ = make_tag_protected_cache()
        rng = random.Random(2)
        for _ in range(200):
            cache.load(rng.randrange(0, 1 << 16) & ~7, 8)
        expected = 0
        for set_index in range(cache.num_sets):
            for way in range(cache.ways):
                line = cache.line(set_index, way)
                if line.valid:
                    expected ^= line.tag
        assert cache.tag_protection.valid_tag_xor == expected

    def test_invariant_survives_evictions_and_flush(self):
        cache, _ = make_tag_protected_cache()
        rng = random.Random(3)
        for _ in range(300):
            addr = rng.randrange(0, 1 << 18) & ~7
            if rng.random() < 0.5:
                cache.store(addr, b"\x01" * 8)
            else:
                cache.load(addr, 8)
        cache.flush()
        assert cache.tag_protection.valid_tag_xor == 0


class TestTagRecovery:
    def test_corrupted_tag_recovered_on_lookup(self):
        cache, _ = make_tag_protected_cache()
        cache.store(0x2000, b"\x9A" * 8)
        set_index = cache.mapper.set_index(0x2000)
        true_tag = cache.mapper.tag(0x2000)
        # Find the way and break its tag.
        way = next(
            w for w in range(cache.ways)
            if cache.line(set_index, w).valid
            and cache.line(set_index, w).tag == true_tag
        )
        cache.corrupt_tag(set_index, way, 0b1)
        result = cache.load(0x2000, 8)
        assert result.hit, "a recovered tag must restore the hit"
        assert result.data == b"\x9A" * 8
        assert cache.tag_protection.recoveries == 1
        assert cache.line(set_index, way).tag == true_tag

    def test_dirty_data_saved_by_tag_recovery(self):
        """Without tag protection a corrupted tag strands dirty data; with
        it, the write-back later reaches the right address."""
        cache, memory = make_tag_protected_cache()
        cache.store(0x2000, b"\x77" * 8)
        set_index = cache.mapper.set_index(0x2000)
        way = next(
            w for w in range(cache.ways) if cache.line(set_index, w).valid
        )
        cache.corrupt_tag(set_index, way, 0b10)
        cache.load(0x2000, 8)  # recovery fixes the tag in place
        cache.flush()
        assert memory.peek(0x2000, 8) == b"\x77" * 8

    def test_two_concurrent_tag_faults_are_due(self):
        cache, _ = make_tag_protected_cache()
        cache.store(0x2000, b"\x01" * 8)
        cache.store(0x2020, b"\x02" * 8)  # a different set
        s0 = cache.mapper.set_index(0x2000)
        s1 = cache.mapper.set_index(0x2020)
        assert s0 != s1
        w0 = next(w for w in range(cache.ways) if cache.line(s0, w).valid)
        w1 = next(w for w in range(cache.ways) if cache.line(s1, w).valid)
        cache.corrupt_tag(s0, w0, 0b1)
        cache.corrupt_tag(s1, w1, 0b1)
        with pytest.raises(UncorrectableError):
            cache.load(0x2000, 8)

    def test_multibit_tag_fault_with_interleaved_parity(self):
        cache, _ = make_tag_protected_cache(parity_ways=8)
        cache.store(0x2000, b"\x55" * 8)
        set_index = cache.mapper.set_index(0x2000)
        way = next(
            w for w in range(cache.ways) if cache.line(set_index, w).valid
        )
        cache.corrupt_tag(set_index, way, 0b101)  # 2 bits, different groups
        result = cache.load(0x2000, 8)
        assert result.hit
        assert cache.tag_protection.recoveries == 1


class TestLifetime:
    def test_tag_protected_cache_is_freed_without_the_collector(self):
        """The cache and its tag scheme hold no reference cycle, so
        dropping the cache frees both by reference counting alone."""
        gc.collect()
        gc.disable()
        try:
            cache, _ = make_tag_protected_cache()
            cache.store(0x2000, b"\x9A" * 8)
            set_index = cache.mapper.set_index(0x2000)
            way = next(
                w for w in range(cache.ways) if cache.line(set_index, w).valid
            )
            cache.corrupt_tag(set_index, way, 0b1)
            cache.load(0x2000, 8)
            assert cache.tag_protection.recoveries == 1
            refs = [
                weakref.ref(obj)
                for obj in (cache, cache.tag_protection, cache.protection)
            ]
            del cache
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()
