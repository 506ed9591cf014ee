"""Batch replay engine: packing, configuration, scalar equivalence."""

import numpy as np
import pytest

from repro.errors import (
    DEFAULT_EQUIVALENCE_LIMIT,
    AlignmentError,
    ConfigurationError,
    EquivalenceError,
    TraceFormatError,
)
from repro.memsim import (
    AccessType,
    BatchReplayEngine,
    BatchTrace,
    CacheStats,
    snapshot_cache,
    snapshot_memory,
)
from repro.memsim.batch import ResolvedStream
from repro.util import make_rng
from repro.workloads import (
    FastReplay,
    TraceRecord,
    TraceReplayer,
    make_workload,
    materialize,
)
from repro.workloads.replay import replay_mismatches


def store(addr, value, gap=0):
    return TraceRecord(AccessType.STORE, addr, len(value), gap=gap, value=value)


def load(addr, size=8, gap=0):
    return TraceRecord(AccessType.LOAD, addr, size, gap=gap)


def workload_records(name="gcc", n=1500, seed=7):
    return materialize(make_workload(name, seed=seed).records(n))


class TestBatchTrace:
    def test_packs_fields(self):
        trace = BatchTrace.from_records(
            [
                store(0, b"\x11" * 8),
                load(8, 4, gap=3),
                store(16, b"\xab\xcd", gap=1),
            ]
        )
        assert len(trace) == 3
        assert trace.is_store.tolist() == [True, False, True]
        assert trace.gap.tolist() == [0, 3, 1]
        assert trace.instructions == 3 + 4

    def test_positions_store_bytes_inside_unit(self):
        # A 2-byte store at byte offset 6 of its unit lands in the two
        # least-significant bytes of the big-endian word.
        trace = BatchTrace.from_records([store(6, b"\xab\xcd")])
        assert int(trace.value_word[0]) == 0xABCD
        assert int(trace.value_mask[0]) == 0xFFFF
        # At offset 0 it occupies the most-significant bytes.
        trace = BatchTrace.from_records([store(0, b"\xab\xcd")])
        assert int(trace.value_word[0]) == 0xABCD << 48
        assert int(trace.value_mask[0]) == 0xFFFF << 48

    def test_loads_have_empty_mask(self):
        trace = BatchTrace.from_records([load(0), load(20, 4)])
        assert trace.value_mask.tolist() == [0, 0]

    def test_rejects_misaligned_access(self):
        with pytest.raises(AlignmentError):
            BatchTrace.from_records([load(3, 2)])

    def test_rejects_wide_access(self):
        with pytest.raises(AlignmentError):
            BatchTrace.from_records([load(0, 16)])

    def test_rejects_non_power_of_two_size(self):
        with pytest.raises(AlignmentError):
            BatchTrace.from_records([load(0, 3)])

    def test_empty_trace_replays(self):
        engine = BatchReplayEngine(1024, 2, 32)
        result = engine.replay(BatchTrace.from_records([]))
        assert result.cache.stats["fills"] == 0
        assert result.cache.valid == bytes(32)
        assert result.memory.blocks == {}
        assert result.traffic is None


class TestEngineConfiguration:
    def test_rejects_wide_units(self):
        # Units wider than a word are whole lines or nothing, and a
        # trace replays into 64-bit units only.
        with pytest.raises(ConfigurationError) as excinfo:
            BatchReplayEngine(1024, 2, 64, unit_bytes=32)
        assert excinfo.value.reason == "unit_bytes"
        lines = BatchReplayEngine(1024, 2, 32, unit_bytes=32)
        with pytest.raises(ConfigurationError) as excinfo:
            lines.replay(BatchTrace.from_records([load(0, 8)]))
        assert excinfo.value.reason == "unit_bytes"

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            BatchReplayEngine(1000, 3, 32)

    def test_rejects_bad_register_geometry(self):
        with pytest.raises(ConfigurationError):
            BatchReplayEngine(1024, 2, 32, num_pairs=3)


class TestScalarEquivalence:
    @pytest.mark.parametrize("workload_name", ["gcc", "mcf", "art"])
    def test_workload_matches_scalar(self, workload_name):
        records = workload_records(workload_name)
        replay = FastReplay(4096, 2, 32, equivalence="always")
        result = replay.run(records)
        assert result.checked
        assert result.replay.references == len(records)
        stats = result.stats
        assert stats.read_hits + stats.read_misses == result.replay.loads

    def test_directed_eviction_sequence(self):
        # Three blocks aliasing into one set of a 2-way cache: the third
        # fill must evict, writing dirty words back through R2.
        spread = 1024 // 2  # one set's worth of address stride
        records = [
            store(0, b"\x01" * 8),
            store(spread, b"\x02" * 8),
            store(2 * spread, b"\x03" * 8),
            load(0),
            store(8, b"\xff" * 4 + b"\x00" * 4),
            store(8, b"\x55" * 8),
        ]
        result = FastReplay(1024, 2, 32, equivalence="always").run(records)
        assert result.checked
        assert result.stats.evictions_dirty >= 1
        assert result.stats.stores_to_dirty_units >= 1

    def test_cross_check_flags_tampered_registers(self):
        records = workload_records(n=400)
        replay = FastReplay(1024, 2, 32, equivalence="never")
        batch = replay.engine.replay(BatchTrace.from_records(records))
        r1, r2, r1_parity, r2_parity = batch.cache.protection["pairs"][0]
        batch.cache.protection["pairs"][0] = (r1 ^ 1, r2, r1_parity, r2_parity)
        cache = replay.scalar_cache()
        TraceReplayer(cache).run(records)
        problems = replay_mismatches(batch, cache)
        assert any(p.startswith("protection['pairs']") for p in problems)
        assert any("R1^R2" in p for p in problems)

    def test_batch_memory_matches_scalar_writebacks(self):
        records = workload_records(n=800)
        replay = FastReplay(1024, 2, 32, equivalence="never")
        batch = replay.engine.replay(BatchTrace.from_records(records))
        cache = replay.scalar_cache()
        TraceReplayer(cache).run(records)
        assert batch.memory.writes > 0
        assert replay_mismatches(batch, cache) == []

    @pytest.mark.parametrize("field", ["last_dirty_access", "policy.order"])
    def test_cross_check_flags_state_beyond_lines(self, field):
        # Dirty-cycle stamps and LRU orders are compared too: one changed
        # field is one mismatch, named after it.
        records = workload_records(n=400)
        replay = FastReplay(1024, 2, 32, equivalence="never")
        batch = replay.engine.replay(BatchTrace.from_records(records))
        cache = replay.scalar_cache()
        TraceReplayer(cache).run(records)
        if field == "policy.order":
            order = batch.cache.policy.order
            order[0], order[1] = order[1], order[0]
        else:
            stamps = batch.cache.last_dirty_access
            i = next(k for k, cycle in enumerate(stamps) if cycle is not None)
            stamps[i] += 1
        problems = replay_mismatches(batch, cache)
        assert len(problems) == 1
        assert problems[0].startswith(f"{field}: ")


def random_trace(rng, n, blocks):
    """``n`` random loads and stores over ``blocks`` 64-byte blocks."""
    records = []
    store_fraction = rng.uniform(0.2, 0.9)
    for _ in range(n):
        size = rng.choice([1, 2, 4, 8])
        addr = 64 * rng.randrange(blocks) + size * rng.randrange(64 // size)
        gap = rng.randrange(4)
        if rng.random() < store_fraction:
            value = bytes(rng.randrange(256) for _ in range(size))
            records.append(TraceRecord(AccessType.STORE, addr, size, gap, value))
        else:
            records.append(TraceRecord(AccessType.LOAD, addr, size, gap))
    return records


class TestSnapshotEquivalence:
    """The engine's two snapshots are the scalar cache's and memory's."""

    @pytest.mark.parametrize("case", range(64))
    def test_random_geometry_matches_scalar_snapshots(self, case):
        rng = make_rng(("batch-snapshot", case))
        ways = rng.randint(1, 8)
        block = rng.choice([8, 16, 32, 64])
        sets = rng.choice([1, 2, 4, 8, 16])
        pairs = rng.choice([1, 2, 4, 8])
        n = 0 if case == 0 else rng.randrange(1, 2000)
        records = random_trace(rng, n, rng.randint(1, 4) * sets * ways)
        replay = FastReplay(
            sets * ways * block,
            ways,
            block,
            num_pairs=pairs,
            byte_shifting=rng.random() < 0.5,
            equivalence="never",
        )
        batch = replay.engine.replay(BatchTrace.from_records(records))
        cache = replay.scalar_cache()
        TraceReplayer(cache).run(records)
        scalar, memory = snapshot_cache(cache), snapshot_memory(cache.next_level)
        assert batch.cache == scalar
        assert batch.memory == memory
        # Memory keeps its blocks in the order of their first write-back,
        # and the clock, stamps and cycle bookkeeping keep their types.
        assert list(batch.memory.blocks) == list(memory.blocks)
        clock = "_last_event_cycle"
        for mine, theirs in [
            (batch.cache.access_counter, scalar.access_counter),
            (batch.cache.stats[clock], scalar.stats[clock]),
            *zip(batch.cache.last_dirty_access, scalar.last_dirty_access),
        ]:
            assert type(mine) is type(theirs)
        assert replay_mismatches(batch, cache) == []


class TestFastReplay:
    def test_auto_mode_checks_small_traces(self):
        records = workload_records(n=DEFAULT_EQUIVALENCE_LIMIT)
        result = FastReplay(equivalence="auto").run(records)
        assert result.checked

    def test_auto_mode_skips_long_traces(self):
        records = workload_records(n=DEFAULT_EQUIVALENCE_LIMIT + 1)
        result = FastReplay(equivalence="auto").run(records)
        assert not result.checked

    def test_never_mode_skips(self):
        result = FastReplay(equivalence="never").run(workload_records(n=50))
        assert not result.checked

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            FastReplay(equivalence="sometimes")

    def test_divergence_raises_with_mismatches(self, monkeypatch):
        from repro.memsim import batch as batch_module

        original = batch_module._rotl_bytes_u64
        monkeypatch.setattr(
            batch_module,
            "_rotl_bytes_u64",
            lambda values, count: original(values, count + 1),
        )
        with pytest.raises(EquivalenceError) as excinfo:
            FastReplay(equivalence="always").run(workload_records(n=400))
        assert excinfo.value.mismatches

    def test_result_exposes_batch_registers(self):
        replay = FastReplay(equivalence="always")
        records = workload_records(n=60)
        result = replay.run(records)
        assert result.checked
        assert result.registers is result.cache.protection.registers
        batch = replay.engine.replay(BatchTrace.from_records(records))
        assert snapshot_cache(result.cache) == batch.cache
        assert snapshot_memory(result.cache.next_level) == batch.memory

    def test_dirty_xor_property(self):
        result = FastReplay(equivalence="always").run(workload_records(n=60))
        pairs = result.registers.pairs
        assert len(pairs) == 1
        assert pairs[0].dirty_xor == pairs[0].r1 ^ pairs[0].r2
        assert pairs[0].dirty_xor == result.cache.protection.dirty_xor_expected(0)

    def test_fast_replay_accepts_batch_trace(self):
        records = list(make_workload("gcc", seed=4).records(500))
        trace = BatchTrace.from_records(records)
        direct = FastReplay(equivalence="always").run(trace)
        from_records = FastReplay(equivalence="always").run(records)
        assert direct.stats.snapshot() == from_records.stats.snapshot()


class TestWarmupBoundary:
    @pytest.mark.parametrize("k", [0, 1, 333, 1000, 1999, 2000])
    def test_boundary_sums_match_prefix_replay(self, k):
        # collect_run_fast reads its warm-up boundary as masked sums of
        # one resolution's per-access columns: LRU is causal, so the
        # first k rows of the whole trace's columns are the prefix's
        # own, and the sums before k are what replay(trace[:k]) reports.
        trace = BatchTrace.from_records(workload_records("vortex", n=2000, seed=8))
        engine = BatchReplayEngine(2048, 2, 32)
        units = engine.num_sets * engine.ways * engine.units_per_block

        def resolve(t):
            blocks, sets, unit = engine.decompose(t)
            return ResolvedStream(
                sets,
                blocks,
                t.is_store,
                np.cumsum(t.gap + 1),
                engine.ways,
                units=unit,
                units_per_block=engine.units_per_block,
            )

        whole, prefix = resolve(trace), resolve(trace.slice(0, k))
        for column in (
            "hit",
            "way",
            "fill",
            "evict",
            "was_dirty",
            "interval",
            "victim_dirty",
        ):
            mine, theirs = getattr(whole, column), getattr(prefix, column)
            assert mine[:k].tolist() == theirs.tolist(), column

        before = CacheStats(**engine.replay(trace.slice(0, k)).cache.stats)
        total, after = whole.stats(0, units), whole.stats(k, units)
        for field in (
            "read_hits",
            "read_misses",
            "write_hits",
            "write_misses",
            "fills",
            "writebacks",
            "evictions_clean",
            "evictions_dirty",
            "stores_to_dirty_units",
            "dirty_time_integral",
            "observed_cycles",
            "dirty_interval_sum",
            "dirty_interval_count",
        ):
            expected = getattr(before, field)
            assert getattr(total, field) - getattr(after, field) == expected, field
        assert before.read_before_writes == before.stores_to_dirty_units
        hist = {
            b: c - after.dirty_interval_histogram.get(b, 0)
            for b, c in total.dirty_interval_histogram.items()
        }
        assert {b: c for b, c in hist.items() if c} == before.dirty_interval_histogram
        assert after._current_dirty_units == total._current_dirty_units


class TestRecordValidation:
    def test_trace_record_rejects_bad_store(self):
        with pytest.raises(TraceFormatError):
            TraceRecord(AccessType.STORE, 0, 8, value=b"\x00")

    def test_equivalence_error_carries_mismatches(self):
        err = EquivalenceError("diverged", mismatches=["r1: 1 != 2"])
        assert err.mismatches == ["r1: 1 != 2"]
        assert isinstance(err, Exception)


class TestRunBench:
    def test_report_contents(self):
        from repro.tools.run_bench import run_bench

        report = run_bench("gcc", 1200, equivalence_len=300, repeats=1)
        assert report["trace_len"] == 1200
        assert report["equivalence_checked_references"] == 300
        assert report["batch_ops_per_sec"] > 0
        assert report["speedup"] == pytest.approx(
            report["scalar_seconds"] / report["batch_seconds"]
        )

    def test_cli_writes_json(self, tmp_path, capsys):
        import json

        from repro.tools.run_bench import main

        out = tmp_path / "BENCH_replay.json"
        code = main(
            [
                "--trace-len",
                "1000",
                "--equivalence-len",
                "200",
                "--repeats",
                "1",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["trace_len"] == 1000
        assert "speedup" in capsys.readouterr().out

    def test_cli_min_speedup_gate(self, tmp_path):
        from repro.tools.run_bench import main

        out = tmp_path / "BENCH_replay.json"
        code = main(
            [
                "--trace-len",
                "500",
                "--equivalence-len",
                "0",
                "--repeats",
                "1",
                "--min-speedup",
                "1e9",
                "--output",
                str(out),
            ]
        )
        # A failed ratio gate is "results exist but a claim failed" —
        # EXIT_PARTIAL under the shared exit-code contract.
        assert code == 3


def test_module_exports_are_arrays():
    trace = BatchTrace.from_records([load(0)])
    assert isinstance(trace.addr, np.ndarray)
    assert trace.value_word.dtype == np.uint64
