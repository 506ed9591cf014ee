"""The whole-line L2 kernel against the per-access path it replaces.

``Cache.absorb_line_traffic`` replays the block traffic a batch-replayed
L1 returns.  The reference here is the loop it replaced: one
``read_block``/``write_block`` call per event.  Both run on twin
hierarchies whose L2 is small enough that dirty evictions, stores to
dirty lines and re-reads of written-back blocks all happen, and must
leave identical caches (with their scheme state), identical next-level
traffic and identical memory, down to its block insertion order.
"""

import dataclasses

import pytest

from repro.cppc import TagCppc
from repro.errors import AlignmentError, ConfigurationError, SimulationError
from repro.faults import scheme_factory
from repro.memsim import (
    Cache,
    CacheGeometry,
    HierarchyConfig,
    MainMemory,
    MemoryHierarchy,
)
from repro.memsim.batch import BatchReplayEngine, BatchTrace
from repro.memsim.snapshot import snapshot_cache, snapshot_memory
from repro.memsim.types import UnitLocation
from repro.obs.sinks import TraceSink
from repro.workloads import make_workload

from conftest import TINY_CONFIG

SCHEMES = ("cppc", "parity", "secded", "twod", "none")

#: The tiny L1D over a 4KB L2, small enough to evict dirty lines often.
CONFIG = HierarchyConfig(
    l1d=TINY_CONFIG.l1d,
    l2=CacheGeometry(
        size_bytes=4096, ways=4, block_bytes=32, unit_bytes=32, latency_cycles=8
    ),
)
#: The same with a small L3 behind the L2.
CONFIG_WITH_L3 = dataclasses.replace(
    CONFIG,
    l3=CacheGeometry(
        size_bytes=16384, ways=8, block_bytes=32, unit_bytes=32, latency_cycles=24
    ),
)


@pytest.fixture(scope="module")
def traffic():
    """The L2 traffic of 3,000 gcc references through a batch CPPC L1."""
    l1 = CONFIG.l1d
    engine = BatchReplayEngine(
        l1.size_bytes, l1.ways, l1.block_bytes, num_pairs=1, byte_shifting=True
    )
    records = list(make_workload("gcc", seed=1).records(3000))
    return engine.replay(BatchTrace.from_records(records), traffic=True).traffic


def columns(traffic, start=0, stop=None):
    """The traffic columns without ``slot_addr``, events ``start`` to
    ``stop``."""
    return [
        column[start:stop]
        for column in (traffic.kinds, traffic.slots, traffic.cycles, traffic.words)
    ]


def per_event(cache, kinds, slots, cycles, words, slot_addr):
    """The reference: each event through ``read_block``/``write_block``."""
    for kind, slot, cycle, block_words in zip(kinds, slots, cycles, words):
        addr = slot_addr[slot]
        if kind == 0:
            cache.read_block(addr, cycle=cycle)
        else:
            data = b"".join(word.to_bytes(8, "big") for word in block_words)
            cache.write_block(addr, data, cycle=cycle)


def absorb(cache, *traffic):
    cache.absorb_line_traffic(*traffic)


class TrafficLog:
    """Records every ``read_block``/``write_block`` call a level serves."""

    def __init__(self, level):
        self.calls = []
        read_block, write_block = level.read_block, level.write_block

        def logged_read(addr, cycle=None):
            self.calls.append(("read", addr, cycle))
            return read_block(addr, cycle=cycle)

        def logged_write(addr, data, cycle=None):
            self.calls.append(("write", addr, cycle, bytes(data)))
            write_block(addr, data, cycle=cycle)

        level.read_block = logged_read
        level.write_block = logged_write

    def rereads(self):
        """Reads of blocks the level above had written back earlier."""
        written = set()
        count = 0
        for call in self.calls:
            if call[0] == "write":
                written.add(call[1])
            elif call[1] in written:
                count += 1
        return count


def replay(replayer, scheme, config, traffic):
    hierarchy = MemoryHierarchy(config, protection_factory=scheme_factory(scheme))
    log = TrafficLog(hierarchy.l2.next_level)
    replayer(hierarchy.l2, *columns(traffic), traffic.slot_addr)
    return hierarchy, log


def assert_same(kernel, reference):
    """Cache snapshots (which carry the CPPC registers and the 2-D
    vertical parity), every level's traffic, and memory in insertion
    order."""
    (mine, my_log), (theirs, their_log) = kernel, reference
    for cache, twin in zip(mine.levels()[1:], theirs.levels()[1:]):
        assert snapshot_cache(cache) == snapshot_cache(twin), cache.name
    assert my_log.calls == their_log.calls
    assert snapshot_memory(mine.memory) == snapshot_memory(theirs.memory)
    assert list(mine.memory._blocks) == list(theirs.memory._blocks)


class TestMatchesPerEventReplay:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_l2_over_memory(self, scheme, traffic):
        kernel = replay(absorb, scheme, CONFIG, traffic)
        reference = replay(per_event, scheme, CONFIG, traffic)
        assert_same(kernel, reference)
        l2, log = kernel[0].l2, kernel[1]
        assert l2.stats.evictions_dirty > 0
        assert l2.stats.stores_to_dirty_units > 0
        assert log.rereads() > 0
        if scheme == "cppc":
            assert any(pair.r1 for pair in l2.protection.registers.pairs)
        if scheme == "twod":
            assert l2.protection.vertical_register.value
            assert l2.stats.read_before_writes > 0

    @pytest.mark.parametrize("scheme", ("cppc", "twod"))
    def test_l2_over_l3(self, scheme, traffic):
        kernel = replay(absorb, scheme, CONFIG_WITH_L3, traffic)
        reference = replay(per_event, scheme, CONFIG_WITH_L3, traffic)
        assert_same(kernel, reference)
        l3 = kernel[0].l3
        assert l3.stats.write_hits + l3.stats.write_misses > 0
        assert kernel[1].rereads() > 0

    def test_chunks_compose(self, traffic):
        """Absorbing the traffic in pieces equals absorbing it at once."""
        whole = replay(absorb, "cppc", CONFIG, traffic)

        def in_chunks(cache, kinds, slots, cycles, words, slot_addr):
            for start in range(0, len(kinds), 500):
                cache.absorb_line_traffic(
                    kinds[start : start + 500],
                    slots[start : start + 500],
                    cycles[start : start + 500],
                    words[start : start + 500],
                    slot_addr,
                )

        assert_same(replay(in_chunks, "cppc", CONFIG, traffic), whole)


def single_unit_cache(**options):
    return Cache(
        "L2",
        4096,
        4,
        32,
        unit_bytes=32,
        protection=scheme_factory("cppc")("L2", 256),
        next_level=MainMemory(block_bytes=32),
        **options,
    )


class TestPreconditions:
    def test_multi_unit_lines(self):
        cache = Cache("L1D", 1024, 2, 32, next_level=MainMemory(block_bytes=32))
        with pytest.raises(ConfigurationError, match="4 units per line"):
            cache.absorb_line_traffic([], [], [], [], [])

    def test_observer(self):
        cache = single_unit_cache()
        cache.set_observer(TraceSink())
        with pytest.raises(ConfigurationError, match="trace observer"):
            cache.absorb_line_traffic([], [], [], [], [])

    def test_tag_protection(self):
        cache = single_unit_cache(tag_protection=TagCppc(tag_bits=40))
        with pytest.raises(ConfigurationError, match="tag protection"):
            cache.absorb_line_traffic([], [], [], [], [])

    def test_write_through(self):
        cache = single_unit_cache(write_through=True)
        with pytest.raises(ConfigurationError, match="write-through"):
            cache.absorb_line_traffic([], [], [], [], [])

    def test_write_no_allocate(self):
        cache = single_unit_cache(allocate_on_write=False)
        with pytest.raises(ConfigurationError, match="write-no-allocate"):
            cache.absorb_line_traffic([], [], [], [], [])


def checked_unit(cache, kind, addr, site):
    """The resident unit the event ``(kind, addr)`` inspects at ``site``
    ("read", "store" to a dirty unit, or dirty "victim"), else None."""
    loc = cache.locate(addr)
    if site == "read":
        return loc if kind == 0 else None
    if site == "store":
        return loc if kind == 1 and loc and cache.peek_unit(loc)[2] else None
    set_index = cache.mapper.set_index(addr)
    base = set_index * cache.ways
    if loc is not None or 0 in cache._valid[base : base + cache.ways]:
        return None
    victim = UnitLocation(set_index, cache.policy.victim(set_index), 0)
    return victim if cache.peek_unit(victim)[2] else None


class TestFaults:
    @pytest.mark.parametrize("replayer", (absorb, per_event))
    @pytest.mark.parametrize("addr", (16, -32))
    def test_bad_address_raises_like_the_access_path(self, replayer, addr):
        cache = single_unit_cache()
        with pytest.raises(AlignmentError):
            replayer(cache, [0], [0], [1], [None], [addr])

    @pytest.mark.parametrize("site", ("read", "store", "victim"))
    def test_planted_bit_raises(self, site, traffic):
        """A bit flipped in a resident line that an event checks makes
        the kernel raise instead of recovering."""
        hierarchy = MemoryHierarchy(CONFIG, protection_factory=scheme_factory("cppc"))
        l2 = hierarchy.l2
        slot_addr = traffic.slot_addr
        for index, (kind, slot) in enumerate(zip(traffic.kinds, traffic.slots)):
            event = columns(traffic, index, index + 1)
            loc = checked_unit(l2, kind, slot_addr[slot], site)
            if loc is not None:
                break
            l2.absorb_line_traffic(*event, slot_addr)
        else:
            pytest.fail(f"no event checks a {site} unit")
        l2.corrupt_data(loc, 1 << 7)
        with pytest.raises(SimulationError, match="fault detected at"):
            l2.absorb_line_traffic(*event, slot_addr)
        assert l2.protection.recoveries == 0
