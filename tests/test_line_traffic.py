"""The whole-line L2 kernel against the per-event path it replaced.

``BatchReplayEngine.replay`` of a :class:`LineTraffic` replays the block
traffic a batch-replayed L1 returns into an L2 whose protection unit is
its whole line.  The reference here is one ``read_block``/``write_block``
call per event on a scalar L2 over main memory.  Both run from an empty
L2 and must leave equal ``snapshot_cache`` of the L2 (with its CPPC
registers) and equal ``snapshot_memory``, down to memory's block order:
on an L2 small enough that dirty evictions, stores to dirty lines and
re-reads of written-back blocks all happen, and on seeded random traffic
over small L2s.
"""

import random

import numpy as np
import pytest

from repro.cppc import CppcProtection
from repro.errors import AlignmentError, ConfigurationError
from repro.faults import scheme_factory
from repro.memsim import (
    Cache,
    CacheGeometry,
    HierarchyConfig,
    MainMemory,
    MemoryHierarchy,
)
from repro.memsim.batch import BatchReplayEngine, BatchTrace, LineTraffic, _rotl_unit
from repro.memsim.snapshot import (
    restore_cache,
    restore_memory,
    snapshot_cache,
    snapshot_memory,
)
from repro.obs.sinks import TraceSink
from repro.util import rotl_bytes
from repro.workloads import TraceReplayer, make_workload

from conftest import TINY_CONFIG

#: The tiny L1D over a 4KB L2, small enough to evict dirty lines often.
CONFIG = HierarchyConfig(
    l1d=TINY_CONFIG.l1d,
    l2=CacheGeometry(
        size_bytes=4096, ways=4, block_bytes=32, unit_bytes=32, latency_cycles=8
    ),
)

#: CPPC L2 configurations: the paper's (one pair, byte shifting) and the
#: Section 4.11 variants.
SCHEMES = {
    "cppc": {},
    "cppc-2-pairs": {"num_pairs": 2},
    "cppc-8-pairs-unshifted": {"num_pairs": 8, "byte_shifting": False},
}


@pytest.fixture(scope="module")
def traffic():
    """The L2 traffic of 3,000 gcc references through a batch CPPC L1."""
    l1 = CONFIG.l1d
    engine = BatchReplayEngine(
        l1.size_bytes, l1.ways, l1.block_bytes, num_pairs=1, byte_shifting=True
    )
    records = list(make_workload("gcc", seed=1).records(3000))
    return engine.replay(BatchTrace.from_records(records), traffic=True).traffic


def l2_cache(size=4096, ways=4, block=32, **options):
    """A scalar CPPC L2 of one unit per line over main memory."""
    return Cache(
        "L2",
        size,
        ways,
        block,
        unit_bytes=block,
        protection=CppcProtection(data_bits=8 * block, **options),
        next_level=MainMemory(block_bytes=block),
    )


def per_event(cache, moved):
    """The reference: each event through ``read_block``/``write_block``,
    at the cycle the L1 issued it."""
    words = iter(np.asarray(moved.words).tolist())
    slot_addr = np.asarray(moved.slot_addr).tolist()
    for kind, slot, cycle in zip(
        np.asarray(moved.kinds).tolist(),
        np.asarray(moved.slots).tolist(),
        np.asarray(moved.cycles).tolist(),
    ):
        addr = slot_addr[slot]
        if kind == 0:
            cache.read_block(addr, cycle=cycle)
        else:
            data = b"".join(word.to_bytes(8, "big") for word in next(words))
            cache.write_block(addr, data, cycle=cycle)


def engine_for(cache):
    """The batch engine of a scalar CPPC cache's level."""
    prot = cache.protection
    return BatchReplayEngine(
        cache.size_bytes,
        cache.ways,
        cache.block_bytes,
        unit_bytes=cache.unit_bytes,
        num_pairs=prot.registers.num_pairs,
        byte_shifting=prot.rotation.enabled,
        num_classes=prot.registers.num_classes,
    )


def absorb(cache, moved):
    """The kernel: the engine's replay, loaded into ``cache`` and its
    memory."""
    result = engine_for(cache).replay(moved)
    restore_cache(result.cache, cache)
    restore_memory(result.memory, cache.next_level)


class MemoryLog:
    """Records every block read and write main memory serves."""

    def __init__(self, memory):
        self.calls = []
        read_block, write_block = memory.read_block, memory.write_block

        def logged_read(addr, cycle=None):
            self.calls.append(("read", addr))
            return read_block(addr, cycle=cycle)

        def logged_write(addr, data, cycle=None):
            self.calls.append(("write", addr))
            write_block(addr, data, cycle=cycle)

        memory.read_block = logged_read
        memory.write_block = logged_write

    def rereads(self):
        """Reads of blocks the L2 had written back earlier."""
        written = set()
        count = 0
        for kind, addr in self.calls:
            if kind == "write":
                written.add(addr)
            elif addr in written:
                count += 1
        return count


def assert_same(make_cache, moved):
    """The kernel's L2 and memory against the per-event reference's.

    Returns the reference L2 and the :class:`MemoryLog` of its memory.
    """
    reference = make_cache()
    log = MemoryLog(reference.next_level)
    per_event(reference, moved)
    result = engine_for(reference).replay(moved)
    assert result.cache == snapshot_cache(reference)
    memory = snapshot_memory(reference.next_level)
    assert result.memory == memory
    assert list(result.memory.blocks) == list(memory.blocks)
    return reference, log


class TestMatchesPerEventReplay:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_l2_over_memory(self, scheme, traffic):
        l2, log = assert_same(lambda: l2_cache(**SCHEMES[scheme]), traffic)
        assert l2.stats.evictions_dirty > 0
        assert l2.stats.stores_to_dirty_units > 0
        assert log.rereads() > 0
        assert any(pair.r1 for pair in l2.protection.registers.pairs)

    def test_snapshot_restores_into_a_live_l2(self, traffic):
        # The kernel's state, loaded into a live L2, goes on exactly as
        # the reference's does.
        kernel, reference = l2_cache(), l2_cache()
        absorb(kernel, traffic)
        per_event(reference, traffic)
        for cache in (kernel, reference):
            cache.flush()
        assert snapshot_cache(kernel) == snapshot_cache(reference)
        assert snapshot_memory(kernel.next_level) == snapshot_memory(
            reference.next_level
        )

    def test_matches_the_scalar_hierarchy_l2(self):
        # The engine's L2 is the scalar L2 of the hierarchy replaying the
        # same references through its scalar L1.
        records = list(make_workload("mcf", seed=2).records(4000))
        hierarchy = MemoryHierarchy(CONFIG, protection_factory=scheme_factory("cppc"))
        TraceReplayer(hierarchy).run(records)
        l1 = engine_for(hierarchy.l1d).replay(
            BatchTrace.from_records(records), traffic=True
        )
        l2 = engine_for(hierarchy.l2).replay(l1.traffic)
        assert l1.cache == snapshot_cache(hierarchy.l1d)
        # The L1's write-backs are the L2's traffic, not a memory image.
        assert l1.memory is None
        assert l2.cache == snapshot_cache(hierarchy.l2)
        assert l2.memory == snapshot_memory(hierarchy.memory)
        assert list(l2.memory.blocks) == list(hierarchy.memory._blocks)

    def test_observed_replay_spans_its_phases(self, traffic):
        engine = engine_for(l2_cache())
        plain = engine.replay(traffic)
        engine.obs = SpanNames()
        assert engine.replay(traffic) == plain
        assert engine.obs.names == ["decompose", "resolve", "accumulate"]


class SpanNames(TraceSink):
    """Keeps the name of every span."""

    def __init__(self):
        self.names = []

    def span(self, category, name, start, duration, args=None):
        self.names.append(name)


def random_traffic(rng, ways, sets, block, events):
    """Random read and write-back events over a few times the L2's
    lines, with cycles that often repeat."""
    pool = rng.sample(range(64 * ways * sets), min(3 * ways * sets + 1, 40))
    kinds = [rng.random() < 0.4 for _ in range(events)]
    cycles, cycle = [], 0
    for _ in range(events):
        cycle += rng.choice((0, 0, 1, 2, 7))
        cycles.append(cycle)
    return LineTraffic(
        kinds=np.array(kinds, dtype=np.int8),
        slots=np.array([rng.randrange(len(pool)) for _ in range(events)], dtype=int),
        cycles=np.array(cycles, dtype=np.int64),
        words=np.array(
            [
                [rng.getrandbits(64) for _ in range(block // 8)]
                for _ in range(sum(kinds))
            ],
            dtype=np.uint64,
        ).reshape(-1, block // 8),
        slot_addr=np.array(pool, dtype=np.int64) * block,
    )


class TestRandomL2s:
    """Seeded random traffic over small L2s: 1-8 ways, 1-64 sets, lines
    of one to eight words, CPPC with 1, 2, 4 and 8 pairs, shifting on
    and off.  Seed 0 replays no event at all."""

    @pytest.mark.parametrize("seed", range(48))
    def test_matches_per_event_replay(self, seed):
        rng = random.Random(seed)
        ways = rng.randint(1, 8)
        sets = 1 << rng.randint(0, 6)
        block = rng.choice((8, 16, 32, 64))
        options = {
            "num_pairs": (1, 2, 4, 8)[seed % 4],
            "byte_shifting": seed % 8 < 4,
        }
        moved = random_traffic(rng, ways, sets, block, 0 if seed == 0 else 300)
        assert_same(
            lambda: l2_cache(ways * sets * block, ways, block, **options), moved
        )

    def test_read_and_write_back_share_a_cycle(self):
        # An L1 miss reads its block and writes its dirty victim back in
        # one cycle (events 1-2 and 4-5), two write-backs land on dirty
        # lines, and a read evicts a dirty line.
        moved = LineTraffic(
            kinds=np.array([1, 0, 1, 1, 0, 1], dtype=np.int8),
            slots=np.array([0, 1, 0, 2, 3, 2]),
            cycles=np.array([3, 5, 5, 5, 9, 9]),
            words=np.arange(1, 17, dtype=np.uint64).reshape(4, 4),
            slot_addr=np.array([0, 64, 128, 192]),
        )
        l2, _log = assert_same(lambda: l2_cache(64, 2, 32), moved)
        assert l2.stats.stores_to_dirty_units == 2
        assert l2.stats.evictions_dirty == 1
        assert l2.stats.dirty_interval_count == 2


class TestRotation:
    @pytest.mark.parametrize("words", (1, 2, 4, 8))
    def test_unit_rotation_is_rotl_bytes(self, words):
        rng = random.Random(words)
        for count in range(8 * words):
            unit = [rng.getrandbits(64) for _ in range(words)]
            value = int.from_bytes(b"".join(w.to_bytes(8, "big") for w in unit), "big")
            rotated = _rotl_unit(np.array(unit, dtype=np.uint64), count)
            assert int.from_bytes(rotated.astype(">u8").tobytes(), "big") == (
                rotl_bytes(value, count, 8 * words)
            )


def empty_traffic(slot_addr=(), words=4):
    return LineTraffic(
        kinds=np.zeros(len(slot_addr), dtype=np.int8),
        slots=np.arange(len(slot_addr)),
        cycles=np.ones(len(slot_addr), dtype=np.int64),
        words=np.zeros((0, words), dtype=np.uint64),
        slot_addr=np.array(slot_addr, dtype=np.int64),
    )


class TestPreconditions:
    def test_multi_unit_lines(self):
        engine = BatchReplayEngine(1024, 2, 32)
        with pytest.raises(ConfigurationError, match="one protection unit per line"):
            engine.replay(empty_traffic())


class TestFaults:
    @pytest.mark.parametrize("replayer", (absorb, per_event))
    @pytest.mark.parametrize("addr", (16, -32))
    def test_bad_address_raises_like_the_access_path(self, replayer, addr):
        with pytest.raises(AlignmentError):
            replayer(l2_cache(), empty_traffic([addr]))

    @pytest.mark.parametrize("shape", ((1, 3), (1, 5), (0, 4), (2, 4)))
    def test_write_back_of_other_than_one_line_raises(self, shape):
        moved = LineTraffic(
            kinds=np.array([1], dtype=np.int8),
            slots=np.array([0]),
            cycles=np.array([1]),
            words=np.zeros(shape, dtype=np.uint64),
            slot_addr=np.array([64]),
        )
        with pytest.raises(AlignmentError, match="one whole 32B line"):
            absorb(l2_cache(), moved)
