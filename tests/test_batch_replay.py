"""Batch replay engine: packing, configuration, scalar equivalence."""

import numpy as np
import pytest

from repro.errors import (
    AlignmentError,
    ConfigurationError,
    EquivalenceError,
    TraceFormatError,
)
from repro.memsim import AccessType, BatchReplayEngine, BatchTrace, cross_check_scalar
from repro.workloads import (
    FastReplay,
    TraceRecord,
    TraceReplayer,
    fast_replay,
    make_workload,
    materialize,
)


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
        assert result.references == 0
        assert result.stats.fills == 0
        assert result.lines == {}


class TestEngineConfiguration:
    def test_rejects_wide_units(self):
        with pytest.raises(ConfigurationError):
            BatchReplayEngine(1024, 2, 32, unit_bytes=32)

    def test_rejects_non_lru_policy(self):
        with pytest.raises(ConfigurationError):
            BatchReplayEngine(1024, 2, 32, policy="fifo")

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
        batch.registers.pairs[0].r1 ^= 1
        cache = replay.scalar_cache()
        TraceReplayer(cache).run(records)
        problems = cross_check_scalar(batch, cache, cache.next_level)
        assert any("r1" in p for p in problems)

    def test_batch_memory_matches_scalar_writebacks(self):
        records = workload_records(n=800)
        replay = FastReplay(1024, 2, 32, equivalence="never")
        batch = replay.engine.replay(BatchTrace.from_records(records))
        cache = replay.scalar_cache()
        TraceReplayer(cache).run(records)
        assert cross_check_scalar(batch, cache, cache.next_level) == []


class TestFastReplay:
    def test_auto_mode_checks_small_traces(self):
        result = FastReplay(equivalence="auto", equivalence_limit=64).run(
            workload_records(n=50)
        )
        assert result.checked

    def test_auto_mode_skips_long_traces(self):
        result = FastReplay(equivalence="auto", equivalence_limit=64).run(
            workload_records(n=200)
        )
        assert not result.checked

    def test_never_mode_skips(self):
        result = FastReplay(equivalence="never").run(workload_records(n=50))
        assert not result.checked

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            FastReplay(equivalence="sometimes")

    def test_rejects_negative_limit(self):
        with pytest.raises(ConfigurationError):
            FastReplay(equivalence_limit=-1)

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

    def test_wrapper_function(self):
        result = fast_replay(workload_records(n=60), equivalence="always")
        assert result.checked
        assert result.registers is result.batch.registers

    def test_dirty_xor_property(self):
        result = fast_replay(workload_records(n=60), equivalence="always")
        xors = result.batch.dirty_xor
        assert set(xors) == {0}
        pair = result.batch.registers.pairs[0]
        assert xors[0] == pair.r1 ^ pair.r2


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


class TestTracestoreBench:
    def test_report_and_gate(self, tmp_path, capsys):
        import json

        from repro.tools.run_bench import main, run_tracestore_bench

        out = tmp_path / "BENCH_tracestore.json"
        code = main(
            [
                "--mode",
                "tracestore",
                "--trace-len",
                "3000",
                "--equivalence-len",
                "300",
                "--repeats",
                "1",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["mode"] == "tracestore"
        assert report["trace_len"] == 3000
        assert report["columns_identical"] is True
        assert report["load_speedup"] > 0
        assert "load-speedup" in capsys.readouterr().out
        # The chunk size is no CLI option: the streaming bound is pinned
        # on the run function with a chunk smaller than the trace.
        chunked = run_tracestore_bench(
            "gcc", 3000, equivalence_len=0, repeats=1, chunk_records=512
        )
        assert chunked["writer_peak_buffered"] <= 512

    def test_unreachable_load_gate_is_partial(self, tmp_path):
        from repro.tools.run_bench import main

        code = main(
            [
                "--mode",
                "tracestore",
                "--trace-len",
                "1000",
                "--equivalence-len",
                "0",
                "--repeats",
                "1",
                "--min-speedup",
                "1e9",
                "--output",
                str(tmp_path / "BENCH_tracestore.json"),
            ]
        )
        assert code == 3


def test_module_exports_are_arrays():
    trace = BatchTrace.from_records([load(0)])
    assert isinstance(trace.addr, np.ndarray)
    assert trace.value_word.dtype == np.uint64
