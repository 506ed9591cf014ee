"""The dirty-line flush drain against the line-by-line flush it replaced.

``Cache.flush`` evicts only the lines holding a dirty unit and drops the
clean lines between them in bulk.  The reference here is the old loop,
``_evict`` on every valid line in line order.  Both run on identically
built caches with faults planted in dirty and clean units, so recovery,
refetch and DUEs fire inside the flush, and must leave identical caches,
statistics, registers, recovery logs and memory, return the same
write-back count and raise the same DUE text.
"""

import collections
import dataclasses
import random

import pytest

from repro.cppc import TagCppc
from repro.errors import UncorrectableError
from repro.faults import (
    CampaignConfig,
    FaultInjector,
    TemporalFault,
    build_warm_state,
    scheme_factory,
)
from repro.memsim import (
    Cache,
    CacheGeometry,
    HierarchyConfig,
    MainMemory,
    MemoryHierarchy,
)
from repro.memsim.types import UnitLocation
from repro.util import make_rng

from conftest import TINY_CONFIG, ListSink

SCHEMES = ("cppc", "parity", "secded", "twod", "none")

#: (size, ways, block, unit) of a scaled-down L1D (64-bit units) and L2
#: (units of one L1 block).
GEOMETRIES = {"L1D": (1024, 2, 32, 8), "L2": (4096, 4, 32, 32)}

SEEDS = range(16)


def line_by_line_flush(cache):
    """The reference flush: ``_evict`` on every valid line, in order."""
    count = 0
    for set_index, way in cache.resident_lines():
        if cache._evict(set_index, way):
            count += 1
    return count


def cache_state(cache):
    """Everything a flush can change in one cache, as comparable values."""
    state = {
        "valid": bytes(cache._valid),
        "tags": list(cache._tags),
        "tag_checks": cache._tag_checks and list(cache._tag_checks),
        "data": bytes(cache._data),
        "dirty": list(cache._dirty),
        "check": list(cache._check),
        "last_dirty": list(cache._last_dirty),
        "order": getattr(cache.policy, "_order", None),
        "clock": cache._access_counter,
        "stats": dataclasses.asdict(cache.stats),
    }
    scheme = cache.protection
    if scheme.name == "cppc":
        state["pairs"] = [vars(pair) for pair in scheme.registers.pairs]
        state["recoveries"] = scheme.recoveries
        state["register_repairs"] = scheme.register_repairs
        state["recovery_log"] = list(scheme.recovery_log)
    if scheme.name == "2d-parity":
        state["vertical"] = scheme.vertical_register.value
    if cache.tag_protection is not None:
        tags = cache.tag_protection
        state["tag_registers"] = (tags.r1, tags.r2, tags.recoveries)
    return state


def memory_state(memory):
    return dict(memory._blocks), memory.reads, memory.writes


def run_flush(flush, caches):
    """Flush ``caches`` in order; the return values, or the DUE text."""
    try:
        return [flush(cache) for cache in caches]
    except UncorrectableError as exc:
        return f"DUE: {exc}"


def random_trace(target, rng, span, steps=400):
    """Loads and stores over ``span`` bytes through ``target``."""
    for _ in range(steps):
        addr = rng.randrange(span // 8) * 8
        if rng.random() < 0.4:
            target.store(addr, rng.getrandbits(64).to_bytes(8, "big"))
        else:
            target.load(addr, 8)


def plant_faults(cache, rng):
    """Flip one or two bits in one to three units, dirty or clean."""
    dirty = [loc for loc, _value in cache.iter_dirty_units()]
    resident = cache.resident_locations()
    for _ in range(rng.randrange(1, 4)):
        pool = dirty if dirty and rng.random() < 0.5 else resident
        bit = rng.randrange(cache.unit_bits)
        mask = 1 << bit
        if rng.random() < 0.3:
            mask |= 1 << (bit ^ 1)
        cache.corrupt_data(rng.choice(pool), mask)


def build_cache(scheme, geometry, seed, *, tags=False, observed=False):
    size, ways, block, unit = GEOMETRIES[geometry]
    memory = MainMemory(block_bytes=block)
    cache = Cache(
        geometry,
        size,
        ways,
        block,
        unit_bytes=unit,
        protection=scheme_factory(scheme)(geometry, unit * 8),
        next_level=memory,
        tag_protection=TagCppc(tag_bits=40) if tags else None,
    )
    sink = ListSink() if observed else None
    cache.set_observer(sink)
    rng = random.Random(seed)
    random_trace(cache, rng, span=4 * size)
    plant_faults(cache, rng)
    return cache, memory, sink


def assert_same_flush(build):
    """Flush two identical builds both ways; compare everything."""
    drained, drained_memory, drained_sink = build()
    reference, reference_memory, reference_sink = build()
    outcome = run_flush(Cache.flush, [drained])
    assert outcome == run_flush(line_by_line_flush, [reference])
    assert cache_state(drained) == cache_state(reference)
    assert memory_state(drained_memory) == memory_state(reference_memory)
    if drained_sink is not None:
        assert drained_sink.events == reference_sink.events
    return drained, outcome


def fired(cache, outcome):
    """Which fault paths a flush exercised."""
    stats = cache.stats
    return {
        "recovery": getattr(cache.protection, "recoveries", 0) > 0,
        "refetch": stats.refetch_corrections > 0,
        "corrected": stats.corrected_faults > stats.refetch_corrections,
        "due": isinstance(outcome, str),
    }


#: Fault paths each scheme must reach across the seeds and geometries.
EXPECTED_PATHS = {
    "cppc": {"recovery", "refetch", "corrected", "due"},
    "parity": {"refetch", "due"},
    "secded": {"corrected", "due"},
    "twod": {"refetch", "corrected", "due"},
    "none": set(),
}


class TestDrainMatchesLineByLine:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_standalone_caches(self, scheme):
        seen = collections.Counter()
        for geometry in GEOMETRIES:
            for seed in SEEDS:
                cache, outcome = assert_same_flush(
                    lambda: build_cache(scheme, geometry, seed)
                )
                seen.update(k for k, v in fired(cache, outcome).items() if v)
        assert EXPECTED_PATHS[scheme] <= set(seen)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_tag_protected_cache(self, geometry):
        for seed in SEEDS:
            cache, outcome = assert_same_flush(
                lambda: build_cache("cppc", geometry, seed, tags=True)
            )
            if not isinstance(outcome, str):
                assert cache.tag_protection.valid_tag_xor == 0

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_observed_cache(self, geometry):
        for seed in SEEDS:
            assert_same_flush(
                lambda: build_cache("cppc", geometry, seed, observed=True)
            )

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_hierarchy(self, scheme):
        """The L1 drain writes back into the L2 before the L2 drains."""

        def build(seed):
            hierarchy = MemoryHierarchy(
                TINY_CONFIG, protection_factory=scheme_factory(scheme)
            )
            rng = random.Random(seed)
            random_trace(hierarchy, rng, span=4 * TINY_CONFIG.l2.size_bytes)
            plant_faults(hierarchy.l1d, rng)
            plant_faults(hierarchy.l2, rng)
            return hierarchy

        for seed in SEEDS:
            drained, reference = build(seed), build(seed)
            levels = [drained.l1d, drained.l2]
            outcome = run_flush(Cache.flush, levels)
            reference_levels = [reference.l1d, reference.l2]
            assert outcome == run_flush(line_by_line_flush, reference_levels)
            for mine, theirs in zip(levels, reference_levels):
                assert cache_state(mine) == cache_state(theirs)
            assert memory_state(drained.memory) == memory_state(reference.memory)

    def test_campaign_warm_state(self):
        """A batch-warmed campaign hierarchy, as a trial flushes it."""
        config = CampaignConfig(
            scheme_factory=scheme_factory("cppc"),
            benchmark="mcf",
            trials=1,
            warmup_references=3000,
            post_fault_references=0,
            target_level="L2",
            shared_warmup=True,
        )
        warm = build_warm_state(config)
        drained, _golden, _replayer = warm.fork()
        reference, _golden, _replayer = warm.fork()
        for cache in (drained.l2, reference.l2):
            plant_faults(cache, random.Random(7))
        outcome = run_flush(Cache.flush, drained.levels())
        assert outcome == run_flush(line_by_line_flush, reference.levels())
        for mine, theirs in zip(drained.levels(), reference.levels()):
            assert cache_state(mine) == cache_state(theirs)
        assert memory_state(drained.memory) == memory_state(reference.memory)


class TestFlushLines:
    """``Cache.flush_lines`` evicts the lines ``Cache.flush`` reads, through
    the same per-line routine, and returns what each wrote back."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_line_drains_as_the_flush_does(self, scheme):
        for geometry in GEOMETRIES:
            for seed in SEEDS:
                drained, drained_memory, _ = build_cache(scheme, geometry, seed)
                reference, reference_memory, _ = build_cache(scheme, geometry, seed)
                written = {}

                def flush_every_line(cache):
                    lines = range(cache.num_sets * cache.ways)
                    written.update(cache.flush_lines(lines))
                    return len(written)

                outcome = run_flush(flush_every_line, [drained])
                assert outcome == run_flush(Cache.flush, [reference])
                assert memory_state(drained_memory) == memory_state(reference_memory)
                if isinstance(outcome, str):
                    continue
                assert drained.dirty_unit_count() == 0
                for line, block in written.items():
                    set_index, way = divmod(line, drained.ways)
                    base = drained.address_of(UnitLocation(set_index, way, 0))
                    assert drained_memory.peek(base, drained.block_bytes) == block

    @pytest.mark.parametrize("scheme,evicted", [("cppc", 2), ("twod", 3)])
    def test_only_the_lines_the_flush_reads_leave(self, scheme, evicted):
        cache = Cache(
            "L2",
            4096,
            4,
            32,
            unit_bytes=32,
            protection=scheme_factory(scheme)("L2", 256),
            next_level=MainMemory(block_bytes=32),
        )
        # One line in each of sets 0-3, the second and fourth dirty; the
        # flush reads no empty line (40).
        for addr in (0, 32, 64, 96):
            cache.load(addr, 8)
        cache.store(32, bytes(8))
        cache.store(96, bytes(8))
        lines = [cache._line_of(addr) for addr in (0, 32, 64, 96)]
        written = cache.flush_lines(lines[1:] + [40])
        assert sorted(written) == [lines[1], lines[3]]
        assert sum(not cache._valid[line] for line in lines) == evicted
        assert cache._valid[lines[0]]


class TestDirtyWalk:
    #: A three-level hierarchy: the tiny L1D/L2 over a small L3 whose
    #: unit is an L2 block.
    CONFIG = HierarchyConfig(
        l1d=TINY_CONFIG.l1d,
        l2=TINY_CONFIG.l2,
        l3=CacheGeometry(
            size_bytes=16384, ways=8, block_bytes=32, unit_bytes=32, latency_cycles=24
        ),
    )

    @pytest.mark.parametrize("seed", range(6))
    def test_iter_dirty_units_is_the_filtered_unit_walk(self, seed):
        hierarchy = MemoryHierarchy(
            self.CONFIG, protection_factory=scheme_factory("cppc")
        )
        random_trace(hierarchy, random.Random(seed), span=65536, steps=3000)
        for cache in hierarchy.levels():
            walk = list(cache.iter_units())
            expected = [(loc, value) for loc, value, dirty in walk if dirty]
            assert expected, cache.name
            assert list(cache.iter_dirty_units()) == expected
            upb = cache.units_per_block
            for line, valid in enumerate(cache._valid):
                units = range(line * upb, (line + 1) * upb)
                if not valid:
                    assert not any(cache._dirty[ui] for ui in units)
                # The bulk drop relies on clean units carrying no stamp.
                for ui in units:
                    if not cache._dirty[ui]:
                        assert cache._last_dirty[ui] is None


class TestResidentLocations:
    @staticmethod
    def old_list(cache):
        """The list ``resident_locations`` returned before the view."""
        return [loc for loc, _value, _dirty in cache.iter_units()]

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_view_matches_the_old_list(self, geometry):
        cache, _memory, _sink = build_cache("cppc", geometry, 3)
        view = cache.resident_locations()
        expected = self.old_list(cache)
        assert len(view) == len(expected) > 0
        assert list(view) == expected
        assert [view[i] for i in range(len(view))] == expected
        for i in range(1, len(expected) + 1):
            assert view[-i] == expected[-i]
        for index in (len(expected), len(expected) + 5, -len(expected) - 1):
            with pytest.raises(IndexError):
                view[index]

    def test_empty_cache_is_falsy(self):
        cache, _memory, _sink = build_cache("none", "L1D", 0)
        cache.flush()
        view = cache.resident_locations()
        assert not view
        assert len(view) == 0
        with pytest.raises(IndexError):
            view[0]

    def test_random_temporal_draws_the_old_site(self):
        """Sampling from the view draws what the old list drew."""
        cache, _memory, _sink = build_cache("cppc", "L1D", 5)
        sites = self.old_list(cache)
        for seed in range(200):
            rng = make_rng((seed, cache.name, "faults"))
            loc = rng.choice(sites)
            fault = TemporalFault(loc, rng.randrange(cache.unit_bits))
            record = FaultInjector(cache, seed=seed).random_temporal()
            assert record.flips == fault.flips(cache.unit_bits)
