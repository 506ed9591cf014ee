"""Bit-identity tests for the vectorized Figure-10 timing fast path.

The contract under test is exact: ``collect_run_fast`` must produce
the same event stream (and L1/L2 statistics) as the scalar
``collect_events`` replay, and ``time_events_fast`` must return a
``TimingResult`` equal *field for field, bit for bit* to the scalar
``time_events`` loop — for every scheme, any core width, any store
buffer capacity.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DEFAULT_EQUIVALENCE_LIMIT,
    ConfigurationError,
    EquivalenceError,
)
from repro.memsim import PAPER_CONFIG, HierarchyConfig, MemoryHierarchy
from repro.timing import (
    TIMING_POLICIES,
    AccessEvent,
    TimingConfig,
    collect_events,
    time_events,
    timing_policy,
)
from repro.timing.fast import (
    EventColumns,
    _replay_l2 as _REPLAY_L2,
    collect_run_fast,
    time_events_fast,
    timing_mismatches,
)
from repro.workloads import make_workload

events_strategy = st.lists(
    st.builds(
        AccessEvent,
        st.booleans(),
        st.integers(min_value=0, max_value=9),
        st.booleans(),
        st.sampled_from([0, 0, 0, 1, 2]),
    ),
    min_size=0,
    max_size=120,
)

configs_strategy = st.builds(
    TimingConfig,
    issue_width=st.sampled_from([1, 2, 3, 4, 7]),
    store_buffer_capacity=st.sampled_from([1, 2, 3, 8]),
    miss_overlap=st.sampled_from([0.0, 0.31, 0.4, 0.9]),
)


class TestTimeEventsFast:
    @given(events=events_strategy, config=configs_strategy)
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_for_every_policy(self, events, config):
        for factory in TIMING_POLICIES.values():
            scalar = time_events(events, factory(), config)
            fast = time_events_fast(events, factory(), config)
            assert scalar == fast

    def test_empty_stream(self):
        for factory in TIMING_POLICIES.values():
            assert time_events_fast([], factory()) == time_events([], factory())

    def test_accepts_columns_and_iterables(self):
        events = [
            AccessEvent(True, 4, False, 1),
            AccessEvent(False, 2, True, 0),
            AccessEvent(False, 0, False, 2),
        ]
        columns = EventColumns.from_events(events)
        policy = TIMING_POLICIES["cppc"]()
        assert time_events_fast(columns, policy) == time_events_fast(events, policy)

    def test_saturating_store_burst(self):
        # Pins the backlog to the cap rail, then drains to the zero
        # rail — both jump paths and the interior stretch in one trace.
        events = (
            [AccessEvent(False, 1, False, 2)] * 10
            + [AccessEvent(True, 8, False, 0)] * 10
            + [AccessEvent(False, 0, True, 1)] * 5
        )
        config = TimingConfig(store_buffer_capacity=1)
        for factory in TIMING_POLICIES.values():
            assert time_events(events, factory(), config) == time_events_fast(
                events, factory(), config
            )

    def test_long_excursions_between_rails(self):
        # A deep buffer: hundreds of small dirty stores climb toward the
        # cap and long load gaps drain back to zero, so each excursion
        # off the rails runs for hundreds of events.
        events = (
            [AccessEvent(False, 2, True, 0)] * 400
            + [AccessEvent(True, 8, False, 0)] * 300
        ) * 3
        config = TimingConfig(issue_width=3, store_buffer_capacity=64)
        for factory in TIMING_POLICIES.values():
            assert time_events(events, factory(), config) == time_events_fast(
                events, factory(), config
            )


def _l2_misses_read_as_hits(*args):
    """A planted fast-path bug: every L1 miss reads as an L2 hit."""
    stats, miss_level = _REPLAY_L2(*args)
    return stats, np.minimum(miss_level, 1)


class TestCollectFast:
    @given(
        benchmark=st.sampled_from(["gzip", "gcc", "mcf", "twolf", "swim"]),
        n=st.integers(min_value=1, max_value=220),
        warmup_fraction=st.sampled_from([0.0, 0.25, 0.5]),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_collector(self, benchmark, n, warmup_fraction, seed):
        import itertools

        records = list(make_workload(benchmark, seed=seed).records(n))
        warmup = int(n * warmup_fraction)
        run = collect_run_fast(
            records, PAPER_CONFIG, warmup=warmup, equivalence="never"
        )
        hierarchy = MemoryHierarchy(PAPER_CONFIG)
        it = iter(records)
        if warmup:
            collect_events(itertools.islice(it, warmup), hierarchy)
            hierarchy.l1d.reset_stats()
            hierarchy.l2.reset_stats()
        events = collect_events(it, hierarchy)
        assert list(run.events) == events
        assert hierarchy.l1d.stats == run.l1
        assert hierarchy.l2.stats == run.l2

    def test_collect_events_fast_equals_scalar(self):
        records = list(make_workload("gcc", seed=3).records(300))
        columns = collect_run_fast(records, equivalence="never").events
        scalar = collect_events(records, MemoryHierarchy(PAPER_CONFIG))
        assert list(columns) == scalar

    def test_builtin_cross_check_passes(self):
        records = list(make_workload("vpr", seed=1).records(200))
        collect_run_fast(records, PAPER_CONFIG, warmup=50, equivalence="always")

    def test_cross_check_reports_divergence(self, monkeypatch):
        from repro.timing import fast as fast_module

        records = list(make_workload("gzip", seed=2).records(120))
        monkeypatch.setattr(fast_module, "_replay_l2", _l2_misses_read_as_hits)
        with pytest.raises(EquivalenceError):
            collect_run_fast(records, PAPER_CONFIG, equivalence="always")

    def test_rejects_bad_equivalence_mode(self):
        with pytest.raises(ConfigurationError):
            collect_run_fast([], PAPER_CONFIG, equivalence="sometimes")

    def test_auto_mode_checks_at_the_limit_and_skips_above(self, monkeypatch):
        from repro.timing import fast as fast_module

        limit = DEFAULT_EQUIVALENCE_LIMIT
        records = list(make_workload("gzip", seed=2).records(limit + 1))
        monkeypatch.setattr(fast_module, "_replay_l2", _l2_misses_read_as_hits)
        with pytest.raises(EquivalenceError) as excinfo:
            collect_run_fast(records[:limit], PAPER_CONFIG, equivalence="auto")
        assert excinfo.value.mismatches
        run = collect_run_fast(records, PAPER_CONFIG, equivalence="auto")
        assert run.references == limit + 1

    def test_comparison_prices_every_scheme(self, monkeypatch):
        from repro.timing import fast as fast_module

        records = list(make_workload("mcf", seed=5).records(400))
        assert timing_mismatches(records, PAPER_CONFIG, warmup=100) == []
        original = fast_module._resolve_backlog

        def no_shadow(cap, drain, supply, store_demand, miss_demand, miss, shadow):
            return original(
                cap, drain, supply, store_demand, miss_demand, miss, shadow * 0.0
            )

        monkeypatch.setattr(fast_module, "_resolve_backlog", no_shadow)
        problems = timing_mismatches(records, PAPER_CONFIG, warmup=100)
        assert problems
        assert {p.split(":")[0] for p in problems} <= set(TIMING_POLICIES)

    def test_rejects_l1_units_it_cannot_model(self):
        # Regression: the engine used to be built without the L1's unit
        # width and silently replayed a 4-byte-unit L1 as a 64-bit one.
        config = HierarchyConfig(
            l1d=dataclasses.replace(PAPER_CONFIG.l1d, unit_bytes=4),
            l2=PAPER_CONFIG.l2,
        )
        records = iter(make_workload("gcc", seed=0).records(50))
        with pytest.raises(ConfigurationError) as excinfo:
            collect_run_fast(records, config)
        assert excinfo.value.reason == "unit_bytes"
        # Raised before the input is touched, so a caller can replay
        # the same records on the scalar collector.
        assert len(list(records)) == 50

    def test_rejects_out_of_range_warmup(self):
        records = list(make_workload("gzip", seed=0).records(10))
        with pytest.raises(ConfigurationError):
            collect_run_fast(records, PAPER_CONFIG, warmup=11)

    def test_simulate_cpi_fast_matches_scalar(self):
        records = list(make_workload("mcf", seed=5).records(250))
        run = collect_run_fast(records, PAPER_CONFIG, equivalence="never")
        hierarchy = MemoryHierarchy(PAPER_CONFIG)
        events = collect_events(records, hierarchy)
        for scheme in TIMING_POLICIES:
            policy = timing_policy(scheme)
            scalar = time_events(
                events, policy, units_per_block=hierarchy.l1d.units_per_block
            )
            fast = time_events_fast(
                run.events, policy, units_per_block=run.units_per_block
            )
            assert scalar == fast


class TestEventColumns:
    def test_round_trip(self):
        events = [
            AccessEvent(True, 4, False, 0),
            AccessEvent(False, 0, True, 2),
        ]
        columns = EventColumns.from_events(events)
        assert list(columns) == events
        assert len(columns) == 2

    def test_mismatches_name_the_column(self):
        a = EventColumns.from_events([AccessEvent(True, 4, False, 0)])
        b = EventColumns.from_events([AccessEvent(True, 4, False, 1)])
        report = a.mismatches(b)
        assert report and "miss_level" in report[0]

    def test_rejects_ragged_columns(self):
        with pytest.raises(ConfigurationError):
            EventColumns(
                is_load=np.zeros(2, dtype=bool),
                instructions=np.zeros(3, dtype=np.int64),
                was_dirty=np.zeros(2, dtype=bool),
                miss_level=np.zeros(2, dtype=np.int8),
            )
