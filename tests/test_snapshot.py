"""Snapshot/restore round-trip properties for the memsim state API.

The campaign fast path depends on one guarantee: a hierarchy restored
from a snapshot is *indistinguishable* from the hierarchy the snapshot
was taken from.  These tests state that as a replay property — take a
snapshot mid-trace, restore it into a fresh hierarchy, replay the same
suffix on both, and demand bit-for-bit identical final state — across
replacement policies, protection schemes and randomized traces.
"""

import pytest

from repro.errors import SnapshotError
from repro.faults.schemes import scheme_factory
from repro.memsim import (
    PAPER_CONFIG_WITH_L3,
    MemoryHierarchy,
    restore_hierarchy,
    snapshot_hierarchy,
)
from repro.memsim import snapshot
from repro.memsim.snapshot import apply_delta, diff_hierarchy, same_state
from repro.workloads import make_workload, materialize
from repro.workloads.replay import TraceReplayer

SCHEMES = ("cppc", "secded", "parity")
POLICIES = ("lru", "fifo", "random")


def _scheme_factory(name):
    return scheme_factory(name)


def _trace(benchmark, seed, n):
    return materialize(make_workload(benchmark, seed=seed).records(n))


def _fresh(scheme, policy="lru"):
    return MemoryHierarchy(protection_factory=_scheme_factory(scheme), policy=policy)


class TestRoundTrip:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_restored_hierarchy_replays_identically(self, scheme, policy):
        records = _trace("gcc", (scheme, policy), 900)
        prefix, suffix = records[:600], records[600:]

        original = _fresh(scheme, policy)
        TraceReplayer(original).run(prefix)
        snap = snapshot_hierarchy(original)

        restored = _fresh(scheme, policy)
        restore_hierarchy(snap, restored)
        assert snapshot_hierarchy(restored) == snap

        start = sum(r.instructions for r in prefix)
        TraceReplayer(original, start_cycle=start).run(suffix)
        TraceReplayer(restored, start_cycle=start).run(suffix)
        assert snapshot_hierarchy(restored) == snapshot_hierarchy(original)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_traces_round_trip(self, seed):
        records = _trace("mcf", seed, 700)
        original = _fresh("cppc")
        TraceReplayer(original).run(records[:500])
        snap = snapshot_hierarchy(original)
        restored = _fresh("cppc")
        restore_hierarchy(snap, restored)
        TraceReplayer(original, start_cycle=500).run(records[500:])
        TraceReplayer(restored, start_cycle=500).run(records[500:])
        assert snapshot_hierarchy(restored) == snapshot_hierarchy(original)

    def test_cppc_register_invariant_survives_restore(self):
        records = _trace("gzip", 7, 800)
        original = _fresh("cppc")
        TraceReplayer(original).run(records)
        restored = _fresh("cppc")
        restore_hierarchy(snapshot_hierarchy(original), restored)

        src = original.l1d.protection
        dst = restored.l1d.protection
        for i, (a, b) in enumerate(zip(src.registers.pairs, dst.registers.pairs)):
            assert (b.r1, b.r2, b.r1_parity, b.r2_parity) == (
                a.r1,
                a.r2,
                a.r1_parity,
                a.r2_parity,
            )
            # The restored cache satisfies the paper's R1^R2 invariant:
            # the register pair XOR equals the XOR of rotated dirty words.
            assert b.r1 ^ b.r2 == dst.dirty_xor_expected(i)
            assert dst.dirty_xor_expected(i) == src.dirty_xor_expected(i)

    def test_twod_parity_cache_round_trips(self):
        from repro.memsim import Cache, MainMemory
        from repro.memsim.protection import TwoDParityProtection
        from repro.memsim.snapshot import (
            restore_cache,
            restore_memory,
            snapshot_cache,
            snapshot_memory,
        )

        def build():
            return Cache(
                "L1D",
                4096,
                2,
                32,
                unit_bytes=8,
                protection=TwoDParityProtection(data_bits=64),
                next_level=MainMemory(block_bytes=32),
            )

        original = build()
        for i in range(200):
            original.store(8 * (i * 37 % 600), bytes([i & 0xFF] * 8), cycle=i)
        snap = snapshot_cache(original)
        restored = build()
        restore_cache(snap, restored)
        restore_memory(snapshot_memory(original.next_level), restored.next_level)
        assert snapshot_cache(restored) == snap
        assert (
            restored.protection.vertical_register.value
            == original.protection.vertical_register.value
        )
        for i in range(200, 260):
            addr = 8 * (i * 37 % 600)
            a = original.load(addr, 8, cycle=i)
            b = restored.load(addr, 8, cycle=i)
            assert a.data == b.data
        assert snapshot_cache(restored) == snapshot_cache(original)

    @pytest.mark.parametrize("scheme", SCHEMES + ("twod",))
    def test_restore_overwrites_a_used_hierarchy(self, scheme):
        records = _trace("gcc", (scheme, "used"), 900)
        original = _fresh(scheme)
        TraceReplayer(original).run(records[:300])
        snap = snapshot_hierarchy(original)

        # The target replayed a different, longer trace first: more
        # resident lines, other tags, dirty data and register contents.
        used = _fresh(scheme)
        TraceReplayer(used).run(_trace("mcf", (scheme, "other"), 1200))
        assert snapshot_hierarchy(used) != snap
        restore_hierarchy(snap, used)
        assert snapshot_hierarchy(used) == snap

        start = sum(r.instructions for r in records[:300])
        TraceReplayer(original, start_cycle=start).run(records[300:])
        TraceReplayer(used, start_cycle=start).run(records[300:])
        assert snapshot_hierarchy(used) == snapshot_hierarchy(original)

    def test_golden_checked_suffix_replay_is_clean(self):
        records = _trace("gcc", 11, 600)
        from repro.workloads.replay import GoldenMemory
        from repro.memsim.types import AccessType

        original = _fresh("secded")
        TraceReplayer(original).run(records[:400])
        golden = GoldenMemory()
        for r in records[:400]:
            if r.op is AccessType.STORE:
                golden.store(r.addr, r.value)

        restored = _fresh("secded")
        restore_hierarchy(snapshot_hierarchy(original), restored)
        golden2 = GoldenMemory()
        golden2.restore(golden.snapshot())
        replayer = TraceReplayer(
            restored, golden=golden2, check_loads=True, start_cycle=400
        )
        result = replayer.run(records[400:])
        assert result.mismatches == 0


class _SetsReached:
    """Trace sink: the sets each level's loads and stores reach."""

    enabled = True

    def __init__(self, hierarchy):
        self.levels = {level.name: level for level in hierarchy.levels()}
        self.sets = {name: set() for name in self.levels}

    def emit(self, category, name, args=None, ts=None):
        if category == "cache" and name in ("load", "store"):
            level = self.levels[args["level"]]
            self.sets[level.name].add(level.mapper.set_index(args["addr"]))

    def take(self):
        """The sets reached since the last call, innermost level first."""
        sets = [set(self.sets[name]) for name in self.levels]
        for reached in self.sets.values():
            reached.clear()
        return sets


class TestDelta:
    @pytest.mark.parametrize("scheme", ("cppc", "twod", "secded"))
    def test_delta_brought_up_to_date_equals_a_full_diff(self, scheme):
        records = _trace("mcf", scheme, 1600)
        hierarchy = _fresh(scheme)
        TraceReplayer(hierarchy).run(records[:1000])
        base = snapshot_hierarchy(hierarchy)
        reached = _SetsReached(hierarchy)
        hierarchy.set_observer(reached)
        replayer = TraceReplayer(hierarchy, start_cycle=1000)
        delta, everywhere = None, [set(), set()]
        for start in range(1000, 1600, 150):
            replayer.run(records[start : start + 150])
            sets = reached.take()
            delta = diff_hierarchy(base, hierarchy, sets, previous=delta)
            for level_sets, window in zip(everywhere, sets):
                level_sets |= window
            full = diff_hierarchy(base, hierarchy, everywhere)
            for carried, whole in zip(delta.caches, full.caches):
                assert carried.lines == whole.lines
                assert carried.units == whole.units
                assert carried.orders == whole.orders
            assert same_state(delta, full)
        hierarchy.set_observer(None)

        restored = _fresh(scheme)
        restore_hierarchy(base, restored)
        apply_delta(delta, restored)
        assert snapshot_hierarchy(restored) == snapshot_hierarchy(hierarchy)

    def test_same_state_leaves_out_statistics_only(self):
        records = _trace("mcf", "same", 1500)
        hierarchy = _fresh("cppc")
        TraceReplayer(hierarchy).run(records[:1000])
        base = snapshot_hierarchy(hierarchy)
        TraceReplayer(hierarchy, start_cycle=1000).run(records[1000:])
        every = [range(level.num_sets) for level in hierarchy.levels()]
        delta = diff_hierarchy(base, hierarchy, every)
        assert delta.caches[0].units and delta.caches[0].orders

        def changed(edit):
            other = diff_hierarchy(base, hierarchy, every)
            edit(other)
            return not same_state(delta, other)

        def bump_stats(d):
            d.caches[0].stats["read_hits"] += 1
            d.caches[0].protection["recoveries"] += 1
            d.memory.reads += 1

        def flip_unit(d):
            ui, data, *rest = d.caches[0].units[0]
            d.caches[0].units[0] = (ui, bytes([data[0] ^ 1]) + data[1:], *rest)

        def swap_order(d):
            set_index, order = d.caches[0].orders[0]
            d.caches[0].orders[0] = (set_index, order[::-1])

        def bump_register(d):
            r1, *rest = d.caches[0].protection["pairs"][0]
            d.caches[0].protection["pairs"][0] = (r1 ^ 1, *rest)

        def write_memory(d):
            d.memory.blocks[1 << 20] = bytes(hierarchy.memory.block_bytes)

        def tick(d):
            d.caches[1].access_counter += 1

        assert not changed(bump_stats)
        for edit in (flip_unit, swap_order, bump_register, write_memory, tick):
            assert changed(edit), edit.__name__


class TestRestoreSets:
    """``restore_hierarchy(..., sets=...)`` resets a hierarchy restored
    from a snapshot over the sets a run changed since."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scheme", ("cppc", "twod", "secded"))
    def test_restoring_the_sets_reached_undoes_a_run(self, scheme, policy):
        records = _trace("mcf", (scheme, policy, "sets"), 1150)
        original = _fresh(scheme, policy)
        TraceReplayer(original).run(records[:1000])
        base = snapshot_hierarchy(original)
        hierarchy = _fresh(scheme, policy)
        restore_hierarchy(base, hierarchy)
        reached = _SetsReached(hierarchy)
        hierarchy.set_observer(reached)
        TraceReplayer(hierarchy, start_cycle=1000).run(records[1000:])
        hierarchy.set_observer(None)
        sets = reached.take()
        changed = diff_hierarchy(base, hierarchy, sets).caches[1]
        assert changed.lines

        # The L2's reached sets are few enough to restore one run at a
        # time, so a changed set left out keeps its change.
        l2 = hierarchy.l2
        missed = changed.lines[0][0] // l2.ways
        assert snapshot._set_runs(sets[1], l2.num_sets) is not None
        restore_hierarchy(base, hierarchy, sets=[sets[0], sets[1] - {missed}])
        assert snapshot_hierarchy(hierarchy) != base
        restore_hierarchy(base, hierarchy, sets=[(), {missed}])
        assert snapshot_hierarchy(hierarchy) == base
        assert list(hierarchy.memory._blocks) == list(base.memory.blocks)

    def test_dense_sets_restore_the_whole_level(self):
        runs = snapshot._set_runs({5, 6, 7, 9, 20}, 512)
        assert runs == [[5, 8], [9, 10], [20, 21]]
        assert snapshot._set_runs(range(0, 512, 2), 512) is None


class TestValidation:
    def test_restore_rejects_level_count_mismatch(self):
        snap = snapshot_hierarchy(_fresh("parity"))
        three_level = MemoryHierarchy(
            PAPER_CONFIG_WITH_L3, protection_factory=_scheme_factory("parity")
        )
        with pytest.raises(SnapshotError):
            restore_hierarchy(snap, three_level)

    def test_restore_rejects_scheme_mismatch(self):
        snap = snapshot_hierarchy(_fresh("parity"))
        with pytest.raises(SnapshotError):
            restore_hierarchy(snap, _fresh("secded"))
