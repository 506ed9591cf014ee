"""``SyntheticWorkload.trace`` against the per-record reference loop.

:func:`reference_records` is the synthesis loop as it was written before
it drew into columns: it calls the interpreter's own
``random.Random.randrange``, ``choice``, ``choices`` and
``expovariate``, so running this file on each supported Python checks
the synthesis loop's own rejection loop (``below``) and inline draws
against that Python's own ``random`` module.  ``trace(n)`` must equal
``BatchTrace.from_records`` of the reference field by field, and
``records(n)``, which draws and decodes a chunk at a time, the
reference itself.
"""

import collections
import dataclasses
import hashlib
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crosscheck import ScenarioGenerator
from repro.memsim import AccessType, BatchTrace
from repro.util import make_rng
from repro.workloads import (
    BENCHMARKS,
    SyntheticWorkload,
    TraceRecord,
    WorkloadProfile,
    get_profile,
)
from repro.workloads.generators import _BLOCK_BYTES, _RECORDS_CHUNK, _SIZE_WEIGHTS


def reference_records(
    profile: WorkloadProfile, seed, n_references: int
) -> List[TraceRecord]:
    """The trace of ``SyntheticWorkload(profile, seed)``, one record per
    reference, drawn through the ``random.Random`` helpers."""
    p = profile
    rng = make_rng((seed, p.name))
    recent_blocks: collections.deque = collections.deque(
        maxlen=p.reuse_window_blocks
    )
    recent_stores: collections.deque = collections.deque(maxlen=p.rewrite_window)
    seq_addr: Optional[int] = None
    base = p.base_address
    ws_end = base + p.working_set_bytes
    block_mask = ~(_BLOCK_BYTES - 1)
    reuse_rate = 4.0 / p.reuse_window_blocks
    p_gap = 1.0 / (p.mean_gap + 1.0)
    store_ptr = base
    fresh_stores = 0
    records = []
    for _ in range(n_references):
        is_store = rng.random() < p.store_fraction
        if is_store and recent_stores and rng.random() < p.p_store_rewrite:
            addr = rng.choice(recent_stores)
        elif is_store and p.store_region_bytes and rng.random() < 0.95:
            addr = store_ptr + rng.randrange(p.store_region_bytes // 8) * 8
            if addr >= ws_end:
                addr -= p.working_set_bytes
            fresh_stores += 1
            if fresh_stores % p.store_dwell == 0:
                store_ptr += _BLOCK_BYTES
                if store_ptr >= ws_end:
                    store_ptr = base
        elif seq_addr is not None and rng.random() < p.seq_fraction:
            seq_addr += 8
            if seq_addr >= ws_end:
                seq_addr = base
            addr = seq_addr
            recent_blocks.append(addr & block_mask)
        elif recent_blocks and rng.random() < p.p_reuse:
            rank = min(int(rng.expovariate(reuse_rate)), len(recent_blocks) - 1)
            block = recent_blocks[-1 - rank]
            addr = block + rng.randrange(_BLOCK_BYTES // 8) * 8
            recent_blocks.append(block)
        else:
            hot = rng.random() < p.p_hot
            words = (p.hot_bytes if hot else p.working_set_bytes) // 8
            addr = base + rng.randrange(words) * 8
            seq_addr = addr
            recent_blocks.append(addr & block_mask)
        size = rng.choices(list(_SIZE_WEIGHTS), list(_SIZE_WEIGHTS.values()))[0]
        addr = (addr & ~7) + rng.randrange(8 // size) * size
        gap = 0
        if p.mean_gap:
            while rng.random() > p_gap and gap < 50 * p.mean_gap:
                gap += 1
        if is_store:
            recent_stores.append(addr & ~7)
            value = bytes([rng.getrandbits(8) for _ in range(size)])
            records.append(TraceRecord(AccessType.STORE, addr, size, gap, value))
        else:
            records.append(TraceRecord(AccessType.LOAD, addr, size, gap))
    return records


_COLUMNS = ("addr", "size", "is_store", "gap", "value_word", "value_mask")


def assert_matches_reference(profile: WorkloadProfile, seed, n_references: int):
    expected = reference_records(profile, seed, n_references)
    workload = SyntheticWorkload(profile, seed=seed)
    trace = workload.trace(n_references)
    packed = BatchTrace.from_records(expected)
    for column in _COLUMNS:
        got, want = getattr(trace, column), getattr(packed, column)
        assert got.dtype == want.dtype, column
        assert np.array_equal(got, want), (profile.name, seed, column)
    assert list(workload.records(n_references)) == expected


class TestTraceMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 7, (3, "x")])
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_every_profile(self, name, seed):
        assert_matches_reference(get_profile(name), seed, 1500)

    @pytest.mark.parametrize(
        "change",
        [
            dict(mean_gap=0),
            dict(store_region_bytes=0),
            dict(rewrite_window=1, reuse_window_blocks=1),
            *(
                {field: value}
                for field in (
                    "p_hot",
                    "p_reuse",
                    "seq_fraction",
                    "store_fraction",
                    "p_store_rewrite",
                )
                for value in (0.0, 1.0)
            ),
        ],
        ids=lambda change: ",".join(f"{k}={v}" for k, v in change.items()),
    )
    @pytest.mark.parametrize("name", ["gzip", "mcf"])
    def test_profile_variants(self, name, change):
        profile = dataclasses.replace(get_profile(name), **change)
        for seed in (0, 1, 7, (3, "x")):
            assert_matches_reference(profile, seed, 800)

    @pytest.mark.parametrize("name", ["gzip", "mcf"])
    def test_records_span_chunks(self, name):
        # ``records`` draws and decodes a chunk at a time; the draw state
        # carries across chunk boundaries.
        n = 2 * _RECORDS_CHUNK + 37
        expected = reference_records(get_profile(name), 0, n)
        assert list(SyntheticWorkload(get_profile(name)).records(n)) == expected

    def test_records_stream(self):
        # The first record of a long trace costs one chunk, not the trace.
        records = SyntheticWorkload(get_profile("gcc")).records(10**12)
        assert next(records) == reference_records(get_profile("gcc"), 0, 1)[0]

    def test_empty_trace(self):
        trace = SyntheticWorkload(get_profile("gcc")).trace(0)
        assert len(trace) == 0 and trace.instructions == 0
        assert list(SyntheticWorkload(get_profile("gcc")).records(0)) == []


_probability = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def profiles(draw):
    """Any valid profile: word-granular ranges of every width, down to a
    single word (where ``randrange(1)`` still draws), and each
    probability anywhere in [0, 1]."""
    working_set = draw(st.integers(min_value=64, max_value=1 << 22))
    store_region = draw(
        st.one_of(st.just(0), st.integers(min_value=8, max_value=working_set))
    )
    return WorkloadProfile(
        name=draw(st.sampled_from(["gzip", "p", "q"])),
        working_set_bytes=working_set,
        hot_bytes=draw(st.integers(min_value=8, max_value=working_set)),
        p_hot=draw(_probability),
        p_reuse=draw(_probability),
        reuse_window_blocks=draw(st.integers(min_value=1, max_value=600)),
        seq_fraction=draw(_probability),
        store_fraction=draw(_probability),
        p_store_rewrite=draw(_probability),
        rewrite_window=draw(st.integers(min_value=1, max_value=300)),
        store_region_bytes=store_region,
        store_dwell=draw(st.integers(min_value=1, max_value=9)),
        mean_gap=draw(st.integers(min_value=0, max_value=4)),
        base_address=draw(st.integers(min_value=0, max_value=1 << 36)) * 8,
    )


class TestTraceMatchesReferenceProperty:
    @settings(max_examples=60, deadline=None)
    @given(profiles(), st.integers(min_value=0, max_value=2**32))
    def test_any_profile(self, profile, seed):
        assert_matches_reference(profile, seed, 300)


#: SHA-256 over ``canonical_json()`` of fuzz scenarios 0-299, one per
#: line, for two generator seeds.  The scenarios embed synthesized
#: traces, so any move in the synthesis stream (or the scenario
#: grammar) moves these, and with them every saved reproducer's
#: meaning.
PINNED_SCENARIO_STREAMS = {
    0: "b94ac75058a1e3ceef6140fd2807d8a855c612b264f48308533d85f3a6c12f10",
    5: "ce49a00e89ced90fc4223630b8fbb5b1c5bae31b2f935378708758972fa29d69",
}


@pytest.mark.parametrize("seed", sorted(PINNED_SCENARIO_STREAMS))
def test_scenario_stream_is_pinned(seed):
    generator = ScenarioGenerator(seed)
    digest = hashlib.sha256()
    for index in range(300):
        digest.update(generator.generate(index).canonical_json().encode())
        digest.update(b"\n")
    assert digest.hexdigest() == PINNED_SCENARIO_STREAMS[seed]
