"""Tests for trace format, generators and the SPEC-like profiles."""

import dataclasses
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TraceFormatError
from repro.memsim import AccessType, BatchTrace
from repro.workloads import (
    BENCHMARKS,
    SyntheticWorkload,
    TraceRecord,
    WorkloadProfile,
    benchmark_names,
    get_profile,
    load_trace,
    make_workload,
    materialize,
    save_trace,
)


class TestTraceRecord:
    def test_store_needs_matching_value(self):
        with pytest.raises(TraceFormatError):
            TraceRecord(AccessType.STORE, 0, 8, 0, b"ab")

    def test_load_carries_no_value(self):
        r = TraceRecord(AccessType.LOAD, 8, 4, 2)
        assert r.instructions == 3

    def test_negative_fields_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceRecord(AccessType.LOAD, -1, 8, 0)
        with pytest.raises(TraceFormatError):
            TraceRecord(AccessType.LOAD, 0, 0, 0)
        with pytest.raises(TraceFormatError):
            TraceRecord(AccessType.LOAD, 0, 8, -2)


class TestTraceSerialization:
    def test_roundtrip(self):
        records = [
            TraceRecord(AccessType.LOAD, 0x1000, 8, 3),
            TraceRecord(AccessType.STORE, 0x2000, 4, 0, b"\x01\x02\x03\x04"),
            TraceRecord(AccessType.STORE, 0x3008, 1, 7, b"\xff"),
        ]
        buffer = io.StringIO()
        assert save_trace(records, buffer) == 3
        buffer.seek(0)
        assert list(load_trace(buffer)) == records

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\nL 10 8 0\n"
        records = list(load_trace(io.StringIO(text)))
        assert len(records) == 1
        assert records[0].addr == 0x10

    def test_bad_op_rejected(self):
        with pytest.raises(TraceFormatError):
            list(load_trace(io.StringIO("X 10 8 0\n")))

    def test_truncated_line_rejected(self):
        with pytest.raises(TraceFormatError):
            list(load_trace(io.StringIO("L 10\n")))

    @pytest.mark.parametrize("profile", ["gcc", "swim"])
    def test_generated_traces_round_trip(self, profile):
        records = list(make_workload(profile, seed=3).records(400))
        buffer = io.StringIO()
        assert save_trace(records, buffer) == 400
        buffer.seek(0)
        assert list(load_trace(buffer)) == records


# Single-unit records, as BatchTrace packs them: sizes up to one 64-bit
# protection unit, naturally aligned addresses.
_sizes = st.sampled_from((1, 2, 4, 8))


@st.composite
def records_strategy(draw):
    size = draw(_sizes)
    addr = draw(st.integers(min_value=0, max_value=1 << 30)) * size
    gap = draw(st.integers(min_value=0, max_value=50))
    if draw(st.booleans()):
        value = draw(st.binary(min_size=size, max_size=size))
        return TraceRecord(AccessType.STORE, addr, size, gap, value)
    return TraceRecord(AccessType.LOAD, addr, size, gap)


class TestBatchTraceRoundTrip:
    """``to_records`` inverts ``from_records``: the scalar twin of every
    batch cross-check replays the records decoded from the columns."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(records_strategy(), max_size=120))
    def test_property_round_trip(self, records):
        assert BatchTrace.from_records(records).to_records() == records

    @pytest.mark.parametrize("profile", BENCHMARKS)
    def test_all_profiles_round_trip(self, profile):
        records = list(make_workload(profile, seed=11).records(600))
        assert BatchTrace.from_records(records).to_records() == records


def _columns(gap=(0, 0), raw=(0, 0), is_store=(False, False), size=(8, 8)):
    return dict(
        addr=[0, 8], size=list(size), is_store=list(is_store), gap=list(gap),
        raw=np.array(raw, dtype=np.uint64),
    )


class TestBatchTraceColumns:
    """``from_columns`` rejects what no ``TraceRecord`` can hold."""

    def test_negative_gap(self):
        with pytest.raises(TraceFormatError, match="gap must be non-negative"):
            BatchTrace.from_columns(**_columns(gap=(2, -5)))

    def test_store_value_wider_than_its_size(self):
        with pytest.raises(TraceFormatError, match="wider than its access size"):
            BatchTrace.from_columns(
                **_columns(raw=(0, 0x1FF), is_store=(False, True), size=(8, 1))
            )

    def test_load_with_a_value(self):
        with pytest.raises(TraceFormatError, match="load records carry no value"):
            BatchTrace.from_columns(**_columns(raw=(0, 1)))

    def test_full_width_values_pass(self):
        trace = BatchTrace.from_columns(
            **_columns(
                raw=(0xFF, (1 << 64) - 1), is_store=(True, True), size=(1, 8)
            )
        )
        assert [r.value for r in trace.to_records()] == [b"\xff", b"\xff" * 8]


class TestProfileValidation:
    def test_hot_must_fit(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="x", working_set_bytes=1024, hot_bytes=2048)

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(
                name="x", working_set_bytes=1024, hot_bytes=512, p_hot=1.5
            )

    def test_store_region_must_fit(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(
                name="x", working_set_bytes=1024, hot_bytes=512,
                store_region_bytes=4096,
            )

    # A range under one 8-byte word is empty: ``randrange(0)`` raises
    # and the inlined ``getrandbits(0)`` loop would never end.
    def test_hot_set_must_hold_a_word(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="x", working_set_bytes=1024, hot_bytes=4)
        WorkloadProfile(name="x", working_set_bytes=1024, hot_bytes=8)

    def test_store_region_must_hold_a_word(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(
                name="x", working_set_bytes=1024, hot_bytes=512,
                store_region_bytes=4,
            )
        for region in (0, 8):
            WorkloadProfile(
                name="x", working_set_bytes=1024, hot_bytes=512,
                store_region_bytes=region,
            )


class TestGenerator:
    def test_deterministic_under_seed(self):
        w1 = make_workload("gzip", seed=5)
        w2 = make_workload("gzip", seed=5)
        assert materialize(w1.records(200)) == materialize(w2.records(200))

    def test_different_seeds_differ(self):
        a = materialize(make_workload("gzip", seed=1).records(200))
        b = materialize(make_workload("gzip", seed=2).records(200))
        assert a != b

    def test_record_count(self):
        assert len(materialize(make_workload("gcc").records(321))) == 321

    def test_addresses_inside_working_set(self):
        profile = get_profile("gzip")
        for r in make_workload("gzip").records(500):
            assert profile.base_address <= r.addr < (
                profile.base_address + profile.working_set_bytes
            )

    def test_accesses_naturally_aligned(self):
        for r in make_workload("vortex").records(500):
            assert r.addr % r.size == 0

    def test_store_fraction_approximate(self):
        profile = get_profile("gcc")
        records = materialize(make_workload("gcc").records(4000))
        stores = sum(1 for r in records if r.op is AccessType.STORE)
        assert abs(stores / 4000 - profile.store_fraction) < 0.05

    def test_mean_gap_approximate(self):
        records = materialize(make_workload("gzip").records(4000))
        mean = sum(r.gap for r in records) / len(records)
        assert abs(mean - get_profile("gzip").mean_gap) < 0.5


#: SHA-256 of ``records(4000)`` at seed 0 for every profile, in the
#: :func:`_trace_digest` encoding.  A change to the generator's draw
#: order changes every trace, and with it every recorded result (fuzz
#: scenarios, campaign outcomes, the benchmark's golden digests); these
#: pins make such a change fail here first.
PINNED_TRACE_DIGESTS = {
    "gzip": "366e654ffe5631c8051b938d97103654d44ba087d15084ff0c7bf8ce8103d972",
    "vpr": "6f699f2823badfaccccfeb3a427ee8a7f66936eed32f3588b8f0639145062921",
    "gcc": "8927ecd69e193c047510fdeb602c0a3641eaf07b1e08bb1e23a03b3fd92b88cb",
    "mcf": "52ec6c716dbc09d24a44ff935d4e724f6544bf519441708f110cf3cbbe7f6976",
    "crafty": "5d356c4226675acc0517f4bf4b9ce12694c5cc8bed81a5d8592ae6ab0b7bf39b",
    "parser": "661c7496176d208d549d83847b597435688eac5f39258e21e7d00851d99bf23a",
    "eon": "d4e0e46d46d2c3976ab44999520a72ba30bf8956d4ac4a90c3598b4b75246e84",
    "perlbmk": "9c89a69b7956b1dc514544ad2ccfd65b3e5223a93dd3057403ef81501948de2b",
    "gap": "752504a647596b30e0a39c239339d2e7586999a0b9c8a4749efef838f6a8cae8",
    "vortex": "70733bccf15cb68812c282d475e1fb149237b132b283c68bb4a1506852ffc1ab",
    "bzip2": "a8f94e0b07ca3cf8f753902b6b07e637df9c4cf9d515f321570915b78b21847f",
    "twolf": "582fb701201deaedfebf76ca195aff0e0c132e72dfb573be1f7695c34db99acc",
    "swim": "b6adf52088d04275cc23f075da465c59e8c201e305a5705a0fa175e65e94db44",
    "art": "0c4a5144d95d1054b30835f7e90878226564d746ac26cfc8c16f8b78d4b860a6",
    "equake": "d1403e1bd8d514b42b5e96c328334834250c08e5270a33fe5ce67ee5d87ef52f",
}

#: The same pin for a gzip variant with no instruction gaps (a branch
#: no profile takes) and no sliding store window.
PINNED_FLAT_DIGEST = "3352301501063db73ec76aea2778a56645613a9fbe4a7975382729b8e745bbfb"


def _trace_digest(records) -> str:
    digest = hashlib.sha256()
    for r in records:
        assert type(r) is TraceRecord
        digest.update(
            f"{r.op.value} {r.addr:x} {r.size} {r.gap} {r.value.hex()}\n".encode()
        )
    return digest.hexdigest()


class TestSynthesisPinned:
    def test_every_profile_matches_its_pin(self):
        assert set(PINNED_TRACE_DIGESTS) == set(BENCHMARKS)
        for name, expected in PINNED_TRACE_DIGESTS.items():
            records = make_workload(name, seed=0).records(4000)
            assert _trace_digest(records) == expected, name

    def test_gap_free_profile_without_store_window(self):
        profile = dataclasses.replace(
            get_profile("gzip"), name="gzip-flat", mean_gap=0,
            store_region_bytes=0,
        )
        records = SyntheticWorkload(profile, seed=0).records(4000)
        assert _trace_digest(records) == PINNED_FLAT_DIGEST


class TestSpecProfiles:
    def test_fifteen_benchmarks(self):
        assert len(BENCHMARKS) == 15
        assert benchmark_names() == BENCHMARKS

    def test_all_profiles_instantiable(self):
        for name in BENCHMARKS:
            workload = make_workload(name)
            assert materialize(workload.records(10))

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigurationError):
            get_profile("linpack")

    def test_address_spaces_disjoint(self):
        spans = []
        for name in BENCHMARKS:
            p = get_profile(name)
            spans.append((p.base_address, p.base_address + p.working_set_bytes))
        spans.sort()
        for (a_start, a_end), (b_start, _b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start

    def test_mcf_is_the_big_one(self):
        mcf = get_profile("mcf")
        assert all(
            mcf.working_set_bytes >= get_profile(n).working_set_bytes
            for n in BENCHMARKS
        )


class TestLocalityKnobs:
    def test_higher_reuse_lowers_miss_rate(self):
        """The generator's p_reuse knob must actually control locality."""
        from repro.memsim import MemoryHierarchy
        from repro.timing import collect_events
        from conftest import TINY_CONFIG
        import dataclasses

        base = get_profile("gzip")
        rates = {}
        for p_reuse in (0.3, 0.95):
            profile = dataclasses.replace(base, p_reuse=p_reuse)
            hierarchy = MemoryHierarchy(TINY_CONFIG)
            workload = SyntheticWorkload(profile, seed=0)
            collect_events(workload.records(3000), hierarchy)
            rates[p_reuse] = hierarchy.l1d.stats.miss_rate
        assert rates[0.95] < rates[0.3]

    def test_store_region_bounds_dirty_footprint(self):
        """A small sliding store window keeps fewer L1 words dirty than
        free-roaming stores."""
        from repro.memsim import MemoryHierarchy
        from repro.timing import collect_events
        from conftest import TINY_CONFIG
        import dataclasses

        base = get_profile("vpr")
        fractions = {}
        for region in (0, 2048):
            profile = dataclasses.replace(base, store_region_bytes=region)
            hierarchy = MemoryHierarchy(TINY_CONFIG)
            workload = SyntheticWorkload(profile, seed=0)
            collect_events(workload.records(4000), hierarchy)
            fractions[region] = hierarchy.l1d.stats.dirty_fraction
        assert fractions[2048] < fractions[0]

    def test_mcf_misses_most(self):
        """The profile family must order by design: mcf defeats the L1."""
        from repro.memsim import MemoryHierarchy
        from repro.timing import collect_events
        from conftest import TINY_CONFIG

        rates = {}
        for name in ("mcf", "eon"):
            hierarchy = MemoryHierarchy(TINY_CONFIG)
            collect_events(make_workload(name).records(3000), hierarchy)
            rates[name] = hierarchy.l1d.stats.miss_rate
        assert rates["mcf"] > rates["eon"]
