"""Snapshot-fork fast path vs. the legacy warm-every-trial loop.

A shared-warmup campaign forks every trial from one warm snapshot
(``FaultCampaign.run``).  The fork's contract is *bit-identity*: for the
same config and seeds it must produce exactly the per-trial
:class:`TrialResult` sequence (and therefore the same outcome tallies)
as the legacy loop, ``FaultCampaign.run_scalar``.  These tests enforce
that over randomized scheme/benchmark/seed combinations, exercise both
warm engines (batch for CPPC, scalar for everything else), and pin down
who builds the warm state and the configuration guard rails.
"""

import collections
import gc
import hashlib
import itertools
import json
import pickle
import weakref

import pytest

from repro.cppc import CppcProtection
from repro.errors import ConfigurationError, EquivalenceError
from repro.faults import (
    CampaignConfig,
    FaultCampaign,
    Outcome,
    TrialResult,
    build_warm_state,
    scheme_factory,
)
from repro.faults.campaign import SETTLE_PATHS, TrialRun, trial_mismatches
from repro.faults import warmstate as warmstate_mod
from repro.memsim import MemoryHierarchy, NoProtection, snapshot_hierarchy
from repro.memsim.types import UnitLocation
from repro.memsim.replacement import FIFOPolicy
from repro.obs import MetricsRegistry
from repro.runtime import CampaignRuntime


def shared_config(**overrides):
    params = dict(
        scheme_factory=scheme_factory("cppc"),
        benchmark="gcc",
        trials=6,
        warmup_references=600,
        post_fault_references=350,
        seed=0,
        shared_warmup=True,
    )
    params.update(overrides)
    return CampaignConfig(**params)


def run_both(config):
    campaign = FaultCampaign(config)
    return campaign.run_scalar(), campaign.run()


def use_warm_state(monkeypatch, state):
    """Make every run of the test use ``state``, which it has edited."""
    monkeypatch.setattr(warmstate_mod, "build_warm_state", lambda config: state)


def assert_identical(legacy, fast):
    assert [vars(t) for t in fast.trials] == [vars(t) for t in legacy.trials]
    assert {o: fast.counts[o] for o in Outcome} == {
        o: legacy.counts[o] for o in Outcome
    }


class TestBitIdentity:
    @pytest.mark.parametrize(
        "scheme,bench,seed",
        [
            ("cppc", "gcc", 0),
            ("cppc", "mcf", 17),
            ("cppc", "gzip", 4),
            ("secded", "gcc", 0),
            ("secded", "swim", 9),
            ("parity", "gzip", 23),
            ("none", "gcc", 5),
        ],
    )
    def test_fast_matches_legacy(self, scheme, bench, seed):
        config = shared_config(
            scheme_factory=scheme_factory(scheme),
            benchmark=bench,
            seed=seed,
        )
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)

    def test_spatial_faults_match(self):
        config = shared_config(fault_kind="spatial", spatial_shape=(4, 4))
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)

    def test_dirty_only_matches(self):
        config = shared_config(dirty_only=True, seed=3)
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)

    def test_l2_target_matches(self):
        config = shared_config(target_level="L2", seed=1)
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)

    def test_zero_warmup_matches(self):
        config = shared_config(warmup_references=0, trials=4)
        state = build_warm_state(config)
        assert state.warm_engine == "pristine"
        assert state.warm_fallback is None
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)

    def test_equivalence_always_passes_and_returns_fast_results(self):
        config = shared_config(trials=4)
        campaign = FaultCampaign(config, equivalence="always")
        result = campaign.run()
        legacy = campaign.run_scalar()
        assert_identical(legacy, result)

    def test_zero_post_fault_references_matches(self):
        config = shared_config(post_fault_references=0, trials=4)
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)
        assert fast.settled["skipped"] == 4
        assert fast.replayed_references == 0

    def test_every_settle_path_matches(self):
        # Untouched faults skip the suffix, overwritten or corrected ones
        # rejoin the golden run, and parity's DUEs replay in full.
        config = shared_config(
            scheme_factory=scheme_factory("parity"),
            trials=12,
            warmup_references=800,
            post_fault_references=400,
            seed=3,
        )
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)
        assert all(fast.settled[path] > 0 for path in SETTLE_PATHS[:3])
        assert sum(fast.settled.values()) == config.trials
        assert legacy.settled == dict(
            skipped=0, rejoined=0, replayed=config.trials, resumed=0
        )
        assert 0 < fast.replayed_references < legacy.replayed_references


class TestWarmEngines:
    def test_cppc_uses_batch_engine(self):
        state = build_warm_state(shared_config())
        assert state.warm_engine == "batch"
        assert state.warm_fallback is None

    def test_secded_falls_back_to_scalar(self):
        state = build_warm_state(shared_config(scheme_factory=scheme_factory("secded")))
        assert state.warm_engine == "scalar"
        assert state.warm_fallback == "l1_scheme"

    @pytest.mark.parametrize(
        "change,reason",
        [
            (lambda h: setattr(h.l1d, "protection", NoProtection()), "l1_scheme"),
            (lambda h: setattr(h.l1d, "unit_bytes", 4), "l1_unit_bytes"),
            (lambda h: setattr(h.l1d.protection.code, "ways", 4), "l1_parity_ways"),
            (lambda h: setattr(h.l1d, "policy", FIFOPolicy(1, 1)), "l1_policy"),
            (lambda h: setattr(h.l1d, "write_through", True), "l1_write_through"),
            (
                lambda h: setattr(h.l1d, "allocate_on_write", False),
                "l1_no_write_allocate",
            ),
            (lambda h: setattr(h.l1d, "tag_protection", object()), "l1_tag_protection"),
            (lambda h: setattr(h.l2, "protection", NoProtection()), "l2_scheme"),
            (lambda h: setattr(h.l2, "unit_bytes", 8), "l2_unit_bytes"),
            (lambda h: setattr(h.l2.protection.code, "ways", 4), "l2_parity_ways"),
            (lambda h: setattr(h.l2, "policy", FIFOPolicy(1, 1)), "l2_policy"),
            (lambda h: setattr(h.l2, "write_through", True), "l2_write_through"),
            (
                lambda h: setattr(h.l2, "allocate_on_write", False),
                "l2_no_write_allocate",
            ),
            (lambda h: setattr(h.l2, "tag_protection", object()), "l2_tag_protection"),
            (lambda h: setattr(h, "l3", h.l2), "l3"),
        ],
    )
    def test_batch_compatible_names_the_failed_condition(self, change, reason):
        hierarchy = MemoryHierarchy(protection_factory=scheme_factory("cppc"))
        assert warmstate_mod._batch_compatible(hierarchy) is None
        change(hierarchy)
        assert warmstate_mod._batch_compatible(hierarchy) == reason

    def test_batch_and_scalar_warm_agree(self, monkeypatch):
        # gcc's 900 references leave the 1MB L2 clean; mcf's 10,000 make
        # it write back dirty lines, so the L2 engine's eviction path and
        # memory's block order are compared too, under one pair with
        # shifting, eight pairs without and two pairs with.
        configs = [
            shared_config(warmup_references=900),
            shared_config(benchmark="mcf", warmup_references=10_000),
            shared_config(
                scheme_factory=cppc_factory(num_pairs=8, byte_shifting=False),
                benchmark="mcf",
                warmup_references=10_000,
            ),
            shared_config(
                scheme_factory=cppc_factory(num_pairs=2),
                benchmark="mcf",
                warmup_references=10_000,
            ),
        ]
        batch_states = [build_warm_state(config) for config in configs]
        assert [s.warm_engine for s in batch_states] == ["batch"] * len(configs)
        monkeypatch.setattr(
            warmstate_mod, "_batch_compatible", lambda hierarchy: "forced"
        )
        for config, batch_state in zip(configs, batch_states):
            scalar_state = build_warm_state(config)
            assert scalar_state.warm_engine == "scalar"
            assert scalar_state.warm_fallback == "forced"
            assert scalar_state.snapshot == batch_state.snapshot
            assert list(scalar_state.snapshot.memory.blocks) == list(
                batch_state.snapshot.memory.blocks
            )
            assert scalar_state.golden_image == batch_state.golden_image
            assert scalar_state.start_cycle == batch_state.start_cycle
        for state, pairs in zip(batch_states[1:], (1, 8, 2)):
            l2 = state.snapshot.caches[1]
            assert l2.stats["evictions_dirty"] > 0
            assert state.snapshot.memory.writes == l2.stats["evictions_dirty"]
            assert len(l2.protection["pairs"]) == pairs

    def test_parity_l2_falls_back_to_scalar(self):
        # A CPPC L1 over a parity L2 takes the scalar warm-up, which the
        # campaign result names.
        cppc, parity = scheme_factory("cppc"), scheme_factory("parity")

        def mixed(level, unit_bits):
            return (cppc if level == "L1D" else parity)(level, unit_bits)

        config = shared_config(scheme_factory=mixed, trials=3)
        state = build_warm_state(config)
        assert (state.warm_engine, state.warm_fallback) == ("scalar", "l2_scheme")
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)
        assert (fast.warm_engine, fast.warm_fallback) == ("scalar", "l2_scheme")


def cppc_factory(**options):
    """A protection factory giving every level a CPPC with ``options``."""

    def factory(level, unit_bits):
        return CppcProtection(data_bits=unit_bits, **options)

    return factory


def untouched_unit(state, cache):
    """The location of a resident unit of ``cache`` that ``state``'s
    suffix never touches, dirty when one is."""
    record = state.golden_record
    first = record.first_touch[cache.name]
    upb = cache.units_per_block
    dirty = [loc for loc, _value in cache.iter_dirty_units()]
    for loc in dirty + list(cache.resident_locations()):
        slot = (loc.set_index * cache.ways + loc.way) * upb + loc.unit_index
        if slot not in first:
            return loc
    raise AssertionError("the suffix touches every resident unit")


class TestGoldenRecord:
    """The golden suffix pass that lets trials skip what their fault
    cannot change (``WarmState.golden_record``)."""

    @pytest.mark.parametrize("level", ["L1D", "L2"])
    @pytest.mark.parametrize("scheme", ["cppc", "parity", "secded", "twod", "none"])
    def test_delta_plus_flips_equals_a_full_suffix_replay(self, scheme, level):
        # mcf's 5,000 warm-up references leave dirty lines in the L2 too.
        state = build_warm_state(
            shared_config(
                scheme_factory=scheme_factory(scheme),
                benchmark="mcf",
                warmup_references=5000,
            )
        )
        record = state.golden_record
        assert record is not None
        end = record.checkpoints[-1]
        assert end.step == len(state.suffix_records)
        runs = []
        for replay in (True, False):
            hierarchy, golden, replayer = state.fork()
            target = hierarchy.l1d if level == "L1D" else hierarchy.l2
            loc = untouched_unit(state, target)
            target.corrupt_data(loc, 0b1011 << 3)
            if replay:
                for r in state.suffix_records:
                    assert not replayer.step(r)
            else:
                # A skipped trial resumes at the end checkpoint, whose
                # delta is the golden pre-flush state, with nothing left
                # to replay and its flip kept.
                checkpoint, inert = record.checkpoints_for(target, [loc])
                assert (checkpoint, inert) == (end, [])
                record.resume(checkpoint, hierarchy, golden, replayer)
            runs.append((hierarchy, golden, replayer))
        (replayed, replayed_golden, one), (resumed, resumed_golden, other) = runs
        assert snapshot_hierarchy(resumed) == snapshot_hierarchy(replayed)
        assert list(resumed.memory._blocks) == list(replayed.memory._blocks)
        assert list(resumed_golden.items()) == list(replayed_golden.items())
        assert other.cycle == one.cycle

    @pytest.mark.parametrize("bench", ["gcc", "mcf"])
    def test_every_changed_resident_unit_is_touched(self, bench):
        # A unit the golden run changed was stored to or had its line
        # replaced; either must count as a touch, or a fault there would
        # skip the suffix that reaches it.
        state = build_warm_state(shared_config(benchmark=bench, warmup_references=2000))
        record = state.golden_record
        hierarchy = MemoryHierarchy(protection_factory=scheme_factory("cppc"))
        for snap, delta, cache in zip(
            state.snapshot.caches,
            record.checkpoints[-1].delta.caches,
            hierarchy.levels(),
        ):
            touched = record.first_touch[cache.name]
            upb = cache.units_per_block
            changed = [ui for ui, *_ in delta.units if snap.valid[ui // upb]]
            assert changed
            assert set(changed) <= set(touched)
            assert all(
                0 <= step < len(state.suffix_records) for step in touched.values()
            )

    def test_eviction_touches_are_needed(self, monkeypatch):
        # mcf evicts struck L1 lines inside the suffix: without eviction
        # touches those trials skip a suffix whose write-back detects.
        monkeypatch.setattr(
            warmstate_mod._TouchRecorder, "_evict", lambda self, cache, s, w: None
        )
        config = shared_config(
            benchmark="mcf", trials=3, warmup_references=1200, post_fault_references=800
        )
        legacy, fast = run_both(config)
        assert trial_mismatches(fast.trials, legacy.trials)

    def test_golden_flush_that_detects_disables_the_rejoin(self, monkeypatch):
        config = shared_config(trials=8)
        state = build_warm_state(config)
        assert state.golden_record.flush_clean is True
        state.golden_record.flush_clean = False
        use_warm_state(monkeypatch, state)
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)
        assert fast.settled["rejoined"] == 0
        assert fast.settled["replayed"] > 0

    def test_unusable_golden_run_replays_every_trial(self, monkeypatch):
        config = shared_config(trials=4)
        state = build_warm_state(config)
        state.golden_record = None
        use_warm_state(monkeypatch, state)
        fast = FaultCampaign(config).run()
        assert fast.settled["replayed"] == config.trials
        assert fast.replayed_references == config.trials * config.post_fault_references

    def test_settle_counts_are_reported(self):
        result = FaultCampaign(shared_config(trials=4)).run()
        snapshot = result.snapshot()
        assert snapshot["settled"] == result.settled
        assert sum(snapshot["settled"].values()) == 4
        assert snapshot["replayed_references"] == result.replayed_references
        assert snapshot["flushed"] == result.flushed
        registry = MetricsRegistry()
        result.export_metrics(registry)
        counters = registry.snapshot()["counters"]
        for path in SETTLE_PATHS:
            assert counters[f"campaign.settled.{path}"] == result.settled[path]
        assert counters["campaign.replayed_references"] == result.replayed_references
        assert counters["campaign.flushed"] == result.flushed


class TestGoldenCheckpoints:
    """Struck trials resume at the golden run's last checkpoint before
    their first touch and may rejoin it at the next one
    (``GoldenRecord.checkpoints``)."""

    @pytest.mark.parametrize("level", ["L1D", "L2"])
    @pytest.mark.parametrize("scheme", ["cppc", "parity", "secded", "twod", "none"])
    def test_resume_equals_a_replay_to_the_checkpoint(self, scheme, level):
        state = build_warm_state(
            shared_config(
                scheme_factory=scheme_factory(scheme),
                benchmark="mcf",
                warmup_references=5000,
            )
        )
        record = state.golden_record
        every = warmstate_mod.CHECKPOINT_STEPS
        steps = [checkpoint.step for checkpoint in record.checkpoints]
        assert steps == [0, every, 2 * every, 3 * every, 350]
        end = record.checkpoints[-1]
        for checkpoint in record.checkpoints[1:]:
            runs = []
            for replay in (True, False):
                hierarchy, golden, replayer = state.fork()
                target = hierarchy.l1d if level == "L1D" else hierarchy.l2
                loc = untouched_unit(state, target)
                target.corrupt_data(loc, 0b1011 << 3)
                if replay:
                    for r in state.suffix_records[: checkpoint.step]:
                        assert not replayer.step(r)
                else:
                    # An untouched trial resumes at the end of the suffix.
                    assert record.checkpoints_for(target, [loc]) == (end, [])
                    record.resume(checkpoint, hierarchy, golden, replayer)
                runs.append((hierarchy, golden, replayer))
            (replayed, replayed_golden, one), (resumed, resumed_golden, other) = runs
            assert snapshot_hierarchy(resumed) == snapshot_hierarchy(replayed)
            assert list(resumed.memory._blocks) == list(replayed.memory._blocks)
            assert list(resumed_golden.items()) == list(replayed_golden.items())
            assert other.cycle == one.cycle

    def test_struck_trials_rejoin_at_the_next_checkpoint(self):
        # One struck L1 unit: a trial replays from the checkpoint before
        # its touch to the one after it, never the whole suffix.
        config = shared_config(
            trials=12, warmup_references=2000, post_fault_references=1500, seed=1
        )
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)
        campaign = FaultCampaign(config)
        warm = build_warm_state(config)
        runs = [campaign._classify_trial_fast(i, warm) for i in range(config.trials)]
        rejoined = [run.replayed for run in runs if run.settled == "rejoined"]
        assert rejoined
        assert all(0 < n <= warmstate_mod.CHECKPOINT_STEPS for n in rejoined)

    @pytest.mark.parametrize("scheme", ["cppc", "parity", "secded", "twod"])
    def test_trials_rejoin_up_to_inert_flips(self, monkeypatch, scheme):
        # An 8x8 strike leaves flips in units the suffix never touches;
        # a trial whose touched units were corrected rejoins the golden
        # run up to those flips and settles its flush at their lines.
        inert_flips = []
        rejoins_at = warmstate_mod.GoldenRecord.rejoins_at

        def spy(self, *args):
            inert = rejoins_at(self, *args)
            if inert:
                inert_flips.append(len(inert))
            return inert

        monkeypatch.setattr(warmstate_mod.GoldenRecord, "rejoins_at", spy)
        config = shared_config(
            scheme_factory=scheme_factory(scheme),
            benchmark="mcf",
            trials=8,
            warmup_references=3000,
            post_fault_references=500,
            fault_kind="spatial",
            spatial_shape=(8, 8),
            seed=1,
        )
        legacy, fast = run_both(config)
        assert_identical(legacy, fast)
        assert inert_flips
        assert fast.settled["rejoined"] >= len(inert_flips)

    def test_inert_flips_reach_the_flush(self, monkeypatch):
        # A rejoin that drops its inert flips classifies the trial at once
        # and loses what the flush of their lines detects.
        rejoins_at = warmstate_mod.GoldenRecord.rejoins_at

        def rejoin_without_flips(self, *args):
            inert = rejoins_at(self, *args)
            return None if inert is None else []

        monkeypatch.setattr(
            warmstate_mod.GoldenRecord, "rejoins_at", rejoin_without_flips
        )
        config = shared_config(
            scheme_factory=scheme_factory("secded"),
            benchmark="mcf",
            trials=8,
            warmup_references=3000,
            post_fault_references=500,
            fault_kind="spatial",
            spatial_shape=(8, 8),
            seed=1,
        )
        legacy, fast = run_both(config)
        assert trial_mismatches(fast.trials, legacy.trials)

    def test_rejoin_compares_the_sets_the_trial_reached(self):
        state = build_warm_state(shared_config(warmup_references=2000))
        record = state.golden_record
        start, check = record.checkpoints[1:3]
        hierarchy, golden, replayer = state.fork()
        record.resume(start, hierarchy, golden, replayer)
        recorder = warmstate_mod.SetRecorder(hierarchy)
        hierarchy.set_observer(recorder)
        for r in state.suffix_records[start.step : check.step]:
            assert not replayer.step(r)
        l1, l2 = hierarchy.levels()
        reached = recorder.reached(hierarchy)
        assert record.rejoins_at(start, check, hierarchy, reached, l1, []) == []

        # A hit the golden run never made, in an L2 set it did not reach
        # and at the L2's own clock, moves only that set's way order.
        def order_of(set_index):
            return l2.policy._order[set_index * l2.ways : (set_index + 1) * l2.ways]

        def reorder():
            for set_index in sorted(set(range(l2.num_sets)) - check.sets[1]):
                before = order_of(set_index)
                for way in range(l2.ways):
                    if l2._valid[set_index * l2.ways + way]:
                        addr = l2.address_of(UnitLocation(set_index, way, 0))
                        l2.load(addr, 8, cycle=l2._access_counter)
                        if order_of(set_index) != before:
                            return
            raise AssertionError("no L2 set outside the window changed order")

        reorder()
        hierarchy.set_observer(None)
        blind = [set(), set()]
        assert record.rejoins_at(start, check, hierarchy, blind, l1, []) == []
        assert record.rejoins_at(start, check, hierarchy, reached, l1, []) is None


def fork_runs(config):
    """The scalar reference's trials, and the fork's :class:`TrialRun`
    of each trial (how it settled and whether it flushed)."""
    campaign = FaultCampaign(config)
    legacy = campaign.run_scalar()
    warm = build_warm_state(config)
    runs = [
        campaign._classify_trial_fast(trial, warm) for trial in range(config.trials)
    ]
    assert [vars(run.result) for run in runs] == [vars(t) for t in legacy.trials]
    return legacy, runs


def settled_at_struck_lines(run):
    """A trial that skipped the suffix and drained only its struck lines."""
    return run.settled == "skipped" and not run.flushed and run.result.injected_bits > 0


def twod_l2_config():
    """2-D parity on a clean L2: every struck unit the golden L1 drain
    stores into is read before it is written, and corrected there."""
    return shared_config(
        scheme_factory=scheme_factory("twod"),
        trials=12,
        warmup_references=800,
        post_fault_references=400,
        target_level="L2",
        seed=3,
    )


class TestFlushSettle:
    """A trial that skips the suffix settles the flush at its struck
    lines (``Cache.flush_lines``) unless an upper level's golden drain
    touches them (``GoldenRecord.flush_touch``)."""

    #: Outcomes each scheme must reach through the struck-line settle
    #: across the sweep below; together they are all four.
    SETTLED = {
        "cppc": {Outcome.BENIGN, Outcome.CORRECTED},
        "parity": {Outcome.BENIGN, Outcome.DUE},
        "secded": {Outcome.BENIGN, Outcome.CORRECTED},
        "twod": {Outcome.BENIGN, Outcome.CORRECTED},
        "none": {Outcome.BENIGN, Outcome.SDC},
    }

    @pytest.mark.parametrize("scheme", sorted(SETTLED))
    def test_fork_matches_the_scalar_reference(self, scheme):
        # mcf's 1,500 warm-up references leave dirty L2 lines to strike.
        faults = [
            dict(fault_kind="temporal"),
            dict(fault_kind="temporal", dirty_only=True),
            dict(fault_kind="spatial", spatial_shape=(8, 8)),
        ]
        settled = set()
        for level in ("L1D", "L2"):
            for fault in faults:
                config = shared_config(
                    scheme_factory=scheme_factory(scheme),
                    benchmark="mcf",
                    trials=4,
                    warmup_references=1500,
                    post_fault_references=200,
                    target_level=level,
                    **fault,
                )
                _legacy, runs = fork_runs(config)
                settled.update(
                    run.result.outcome for run in runs if settled_at_struck_lines(run)
                )
        assert self.SETTLED[scheme] <= settled

    def test_upper_level_drain_sends_trials_through_the_whole_flush(self):
        # That read-before-write is the only read of a clean struck unit:
        # the L2's own drain removes clean lines without checking them.
        config = twod_l2_config()
        _legacy, runs = fork_runs(config)
        guarded = [run for run in runs if run.settled == "skipped" and run.flushed]
        assert len(guarded) >= 3
        assert {run.result.outcome for run in guarded} == {Outcome.CORRECTED}
        assert any(settled_at_struck_lines(run) for run in runs)
        record = build_warm_state(config).golden_record
        assert record.flush_clean
        assert record.flush_touch["L2"] and not record.flush_touch["L1D"]

    def test_flush_touch_is_needed(self, monkeypatch):
        def drain(hierarchy):
            hierarchy.flush()
            return {level.name: frozenset() for level in hierarchy.levels()}

        monkeypatch.setattr(warmstate_mod, "_golden_drain", drain)
        config = twod_l2_config()
        legacy, fast = run_both(config)
        assert trial_mismatches(fast.trials, legacy.trials)

    def test_a_due_at_a_struck_line_counts_as_skipped(self):
        # Parity cannot correct a dirty unit, so each of these trials
        # raises its DUE when the settle evicts its struck line.
        config = shared_config(
            scheme_factory=scheme_factory("parity"),
            dirty_only=True,
            trials=12,
            warmup_references=800,
            post_fault_references=400,
            seed=3,
        )
        _legacy, runs = fork_runs(config)
        dues = [run for run in runs if run.result.outcome is Outcome.DUE]
        assert sum(settled_at_struck_lines(run) for run in dues) >= 3
        assert all(run.settled == "skipped" for run in dues if not run.replayed)

    def test_flushed_counts_trials_that_ran_the_whole_flush(self):
        config = shared_config(trials=8)
        legacy, fast = run_both(config)
        assert legacy.flushed == config.trials
        assert fast.flushed < config.trials
        assert fast.settled["skipped"] > 0


class TestGuards:
    def test_equivalence_always_requires_shared_warmup(self):
        # A per-trial campaign runs only the scalar reference, so there
        # is no fork to compare it with.
        config = shared_config(shared_warmup=False)
        with pytest.raises(ConfigurationError, match="shared_warmup"):
            FaultCampaign(config, equivalence="always")

    def test_bad_equivalence_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultCampaign(shared_config(), equivalence="sometimes")
        # A campaign has no run size for "auto" to gate on.
        with pytest.raises(ConfigurationError):
            FaultCampaign(shared_config(), equivalence="auto")

    def test_equivalence_always_raises_on_divergence(self, monkeypatch):
        monkeypatch.setattr(
            FaultCampaign,
            "_classify_trial_fast",
            lambda self, trial, warm=None: TrialRun(
                TrialResult(Outcome.SDC, detail="forced")
            ),
        )
        campaign = FaultCampaign(shared_config(trials=2), equivalence="always")
        with pytest.raises(EquivalenceError) as excinfo:
            campaign.run()
        assert excinfo.value.mismatches
        assert excinfo.value.mismatches[0].startswith("trial 0: ")

    def test_trial_mismatches_counts_trials(self):
        corrected = TrialResult(Outcome.CORRECTED, injected_bits=1, touched_units=1)
        benign = TrialResult(Outcome.BENIGN)
        assert trial_mismatches([corrected], [corrected]) == []
        assert trial_mismatches([corrected], [corrected, benign]) == [
            "trial count: fast=1 legacy=2"
        ]
        (problem,) = trial_mismatches([benign], [corrected], first=7)
        assert problem.startswith("trial 7: fast=")

    def test_shared_warmup_changes_workload_seed(self):
        config = shared_config()
        assert config.workload_seed(0) == config.workload_seed(5)
        plain = shared_config(shared_warmup=False)
        assert plain.workload_seed(0) != plain.workload_seed(5)


class TestWarmStateOwnership:
    """Each run builds the one warm state its trials fork, and keeps
    nothing between runs."""

    def test_each_run_builds_its_warm_state_once(self, monkeypatch):
        built = []
        build = warmstate_mod.build_warm_state

        def spy(config):
            built.append(config)
            return build(config)

        monkeypatch.setattr(warmstate_mod, "build_warm_state", spy)
        config = shared_config(trials=3)
        campaign = FaultCampaign(config)
        legacy = campaign.run_scalar()
        assert built == []
        assert legacy.warm_engine is None
        first = campaign.run()
        second = campaign.run()
        assert built == [config, config]
        assert_identical(first, second)
        assert (first.warm_engine, first.warm_fallback) == ("batch", None)
        with CampaignRuntime(jobs=1) as runtime:
            shipped = campaign.run(runtime=runtime)
        # Built once in this process; the worker forks the one it was sent.
        assert built == [config] * 3
        assert_identical(legacy, shipped)
        assert (shipped.warm_engine, shipped.warm_fallback) == ("batch", None)

    def test_closure_scheme_factory_forks_in_process(self):
        # Nothing in-process pickles the campaign, so a factory that is a
        # local closure forks as a registered one does.
        registered = scheme_factory("cppc")

        def factory(level, unit_bits):
            return registered(level, unit_bits)

        legacy, fast = run_both(shared_config(scheme_factory=factory))
        assert_identical(legacy, fast)
        assert fast.settled["skipped"] > 0


class TestTrialFootprint:
    """Forks, resumed at the end of the golden suffix, allocate a bounded
    number of collector-tracked objects, and a finished trial's hierarchy
    is freed by reference counting alone."""

    @pytest.mark.parametrize("bench,warmup", [("gcc", 2000), ("mcf", 5000)])
    def test_fork_allocates_a_bounded_number_of_tracked_objects(self, bench, warmup):
        state = build_warm_state(
            shared_config(benchmark=bench, warmup_references=warmup)
        )
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            hierarchy, golden, replayer = state.fork()
            record = state.golden_record
            record.resume(record.checkpoints[-1], hierarchy, golden, replayer)
            allocated = len(gc.get_objects()) - before
        finally:
            gc.enable()
        # Any per-line object would put the count above the resident lines.
        resident = sum(
            1 for level in hierarchy.levels() for _ in level.resident_lines()
        )
        assert allocated < resident
        assert allocated <= 1000

    @pytest.mark.parametrize("run", ["run_scalar", "run"], ids=["legacy", "fork"])
    @pytest.mark.parametrize(
        "scheme,params,outcome",
        [
            ("cppc", {}, "corrected"),
            ("parity", dict(dirty_only=True, seed=3), "due"),
            ("twod", dict(target_level="L2", seed=3), "corrected"),
        ],
    )
    def test_finished_trial_is_freed_without_the_collector(
        self, monkeypatch, run, scheme, params, outcome
    ):
        refs = []
        finish = FaultCampaign._finish_trial

        def spy(self, trial, hierarchy, *args):
            levels = hierarchy.levels()
            owned = [hierarchy, *levels, *(level.protection for level in levels)]
            refs.extend(weakref.ref(obj) for obj in owned)
            return finish(self, trial, hierarchy, *args)

        monkeypatch.setattr(FaultCampaign, "_finish_trial", spy)
        config = shared_config(scheme_factory=scheme_factory(scheme), **params)
        gc.collect()
        gc.disable()
        try:
            result = getattr(FaultCampaign(config), run)()
            alive = sum(ref() is not None for ref in refs)
        finally:
            gc.enable()
        assert outcome in {t.outcome.value for t in result.trials}
        assert len(refs) == 5 * config.trials
        assert alive == 0


def at_fork_point(state, hierarchy):
    """Whether ``hierarchy`` holds ``state``'s warm snapshot, down to the
    blank tags, data and check words of its invalid lines and main
    memory's block order, with no observer attached."""
    snapshot = state.snapshot
    return (
        snapshot_hierarchy(hierarchy) == snapshot
        and all(
            (cache._tags, cache._data, cache._check, cache._obs)
            == (snap.tags, snap.data, snap.check, None)
            for cache, snap in zip(hierarchy.levels(), snapshot.caches)
        )
        and list(hierarchy.memory._blocks) == list(snapshot.memory.blocks)
    )


class TestForkRecycling:
    """A finished trial hands its hierarchy back to the warm state
    (``WarmState.release``), and the next fork resets it over the sets
    the trial may have changed: no state leaks from one trial into the
    next."""

    TRIALS = 2
    FAULTS = {
        "temporal": dict(fault_kind="temporal"),
        "dirty-only": dict(fault_kind="temporal", dirty_only=True),
        "spatial": dict(fault_kind="spatial", spatial_shape=(8, 8)),
    }
    #: How trials end across the sweep: untouched, rejoined with and
    #: without flips the suffix never reads, replayed through the whole
    #: flush, and every outcome.
    ENDINGS = {
        "skipped",
        "rejoined",
        "rejoined+inert",
        "replayed+flush",
        "benign",
        "corrected",
        "due",
        "sdc",
    }

    @pytest.fixture(scope="class")
    def sweep(self):
        """Run every campaign through ``FaultCampaign.run`` on a warm state
        the test keeps, checking each fork, the one after the last trial
        included; returns ``(forks, endings, mismatches)``."""
        forks, endings, mismatches, inert = [], collections.Counter(), [], []
        fork = warmstate_mod.WarmState.fork
        rejoins_at = warmstate_mod.GoldenRecord.rejoins_at
        classify = FaultCampaign._classify_trial_fast

        def checked_fork(self):
            hierarchy, golden, replayer = fork(self)
            forks.append((label, at_fork_point(self, hierarchy)))
            return hierarchy, golden, replayer

        def rejoin(self, *args):
            flips = rejoins_at(self, *args)
            inert.append(bool(flips))
            return flips

        def ending(self, trial, warm):
            inert.clear()
            run = classify(self, trial, warm)
            path = run.settled + "+inert" * any(inert) + "+flush" * run.flushed
            endings.update([path, run.result.outcome.value])
            return run

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(warmstate_mod.WarmState, "fork", checked_fork)
            patch.setattr(warmstate_mod.GoldenRecord, "rejoins_at", rejoin)
            patch.setattr(FaultCampaign, "_classify_trial_fast", ending)
            for scheme, level, fault in itertools.product(
                ("cppc", "parity", "secded", "twod", "none"), ("L1D", "L2"), self.FAULTS
            ):
                label = f"{scheme}-{level}-{fault}"
                config = shared_config(
                    scheme_factory=scheme_factory(scheme),
                    benchmark="mcf",
                    trials=self.TRIALS,
                    warmup_references=600,
                    post_fault_references=150,
                    target_level=level,
                    seed=1,
                    **self.FAULTS[fault],
                )
                state = build_warm_state(config)
                patch.setattr(warmstate_mod, "build_warm_state", lambda _: state)
                campaign = FaultCampaign(config)
                fast = campaign.run()
                state.fork()
                legacy = campaign.run_scalar()
                mismatches += [
                    f"{label}: {problem}"
                    for problem in trial_mismatches(fast.trials, legacy.trials)
                ]
        return forks, endings, mismatches

    def test_every_fork_starts_at_the_warm_snapshot(self, sweep):
        forks, _endings, _mismatches = sweep
        # Five schemes, two levels, three faults: one fork per trial and
        # one after the last.
        assert len(forks) == 5 * 2 * 3 * (self.TRIALS + 1)
        assert [label for label, clean in forks if not clean] == []

    def test_recycled_forks_match_the_scalar_reference(self, sweep):
        _forks, endings, mismatches = sweep
        assert mismatches == []
        assert self.ENDINGS <= set(endings)

    def test_forks_held_at_once_are_independent(self):
        state = build_warm_state(shared_config(trials=1))
        first, _golden, _replayer = state.fork()
        second, _golden, _replayer = state.fork()
        assert second is not first
        state.release(first, None)
        recycled, _golden, replayer = state.fork()
        assert recycled is first
        held, _golden, _replayer = state.fork()
        assert held is not recycled and held is not second
        for ours, theirs in zip(recycled.levels(), held.levels()):
            assert ours is not theirs and ours.protection is not theirs.protection
            assert ours._data is not theirs._data
        for record in state.suffix_records:
            assert not replayer.step(record)
        recycled.flush()
        assert not at_fork_point(state, recycled)
        assert at_fork_point(state, held)
        # One hierarchy is kept: the last one released.
        state.release(held, [(), ()])
        state.release(recycled, None)
        assert state.fork()[0] is recycled
        assert state.fork()[0] is not held

    def test_pickled_state_carries_no_hierarchy(self):
        state = build_warm_state(shared_config(trials=1))
        before = pickle.dumps(state)
        hierarchy, _golden, _replayer = state.fork()
        state.release(hierarchy, None)
        after = pickle.dumps(state)
        assert after == before
        assert b"MemoryHierarchy" not in after
        assert pickle.loads(after).fork()[0] is not hierarchy


def _trial_digest(result):
    rows = [
        [t.outcome.value, t.injected_bits, t.touched_units, t.detail]
        for t in result.trials
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestOutcomePins:
    """SHA-256 of every trial's ``(outcome, injected_bits, touched_units,
    detail)``, computed before the scalar simulator's kernels were
    rewritten for speed.  Any change to a value, check word, exception
    message or iteration order the campaign observes moves a digest.

    Each campaign: gcc, 12 trials, 800 warm-up and 400 post-fault
    references, seed 3 unless given, through both the legacy and the
    snapshot-fork path.  The outcome set says which classification paths
    a pin covers.
    """

    PINS = {
        "cppc-l1-temporal": (
            dict(scheme="cppc"),
            {"benign", "corrected"},
            "0bb6848b3fca836628f266b73c23d14d7f636ff5baebd0804cf395a8a3d46d34",
        ),
        "cppc-l1-spatial-8x8": (
            dict(scheme="cppc", fault_kind="spatial", spatial_shape=(8, 8)),
            {"benign", "corrected"},
            "60b702cfba72ffa6245fd2eab6e34eb49933bf3cb047903747036f0ae633a1e2",
        ),
        "cppc-l2-temporal": (
            dict(scheme="cppc", target_level="L2"),
            {"benign"},
            "6b9e63e165d91e43848663eec56276bbe414723b7e53bdbf0804b5f6a7d8c347",
        ),
        # Two recoveries of 256-bit L2 units; taken before the recovery
        # scan became one NumPy pass.
        "cppc-l2-spatial-8x8": (
            dict(
                scheme="cppc",
                target_level="L2",
                fault_kind="spatial",
                spatial_shape=(8, 8),
                benchmark="mcf",
                warmup_references=3000,
                trials=8,
                seed=0,
            ),
            {"benign", "corrected"},
            "cf49e0bec628d2340858f541283e46bbba0fe9e86e128fb7055f48e217b6a818",
        ),
        "parity-dirty-only": (
            dict(scheme="parity", dirty_only=True),
            {"benign", "due"},
            "c729c7adcb22b7ba8d42ef701c87495662950c79d00c7d56d10ea1c12dbd3bd5",
        ),
        # Its SDCs come from the post-flush latent-corruption scan.
        "none-dirty-only": (
            dict(scheme="none", dirty_only=True),
            {"benign", "sdc"},
            "cf13769db39de94b4da032813033e6469483f01a8e24c19b40f9599b553dd209",
        ),
        # Several corrupted bytes per strike, so the detail names the
        # first mismatch in golden-image (store) order, not address order.
        "none-spatial-8x8-scan-order": (
            dict(scheme="none", fault_kind="spatial", spatial_shape=(8, 8), seed=5),
            {"benign", "sdc"},
            "55c8acfcc8f94f92abe294080906a79e93c1a2a4afe625030cb7cced8903dabc",
        ),
        "twod": (
            dict(scheme="twod"),
            {"benign", "corrected"},
            "0bb6848b3fca836628f266b73c23d14d7f636ff5baebd0804cf395a8a3d46d34",
        ),
        "secded": (
            dict(scheme="secded"),
            {"benign", "corrected"},
            "0bb6848b3fca836628f266b73c23d14d7f636ff5baebd0804cf395a8a3d46d34",
        ),
        # 10-bit check words over 256-bit L2 units, warmed by the scalar
        # fallback; the strikes need a larger resident L2 to land.
        "secded-l2-spatial-8x8": (
            dict(
                scheme="secded",
                target_level="L2",
                fault_kind="spatial",
                spatial_shape=(8, 8),
                benchmark="mcf",
                warmup_references=1500,
                trials=8,
                seed=0,
            ),
            {"benign", "corrected"},
            "937e6597a9a108dfcf85ee4d8d41867bb17fbbb55855dddf303b4a88e9ede0ab",
        ),
        # The fork restores the L2's vertical parity register.
        "twod-l2-temporal": (
            dict(scheme="twod", target_level="L2"),
            {"benign", "corrected"},
            "9a7a13b2bbf71ba8cd78bf024d9e4d5ae439e685d57c2200f36813847a972cd7",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_legacy_and_fast_match_pinned_digest(self, name):
        params, outcomes, digest = self.PINS[name]
        settings = dict(
            trials=12, warmup_references=800, post_fault_references=400, seed=3
        )
        settings.update(params)
        settings["scheme_factory"] = scheme_factory(settings.pop("scheme"))
        config = shared_config(**settings)
        legacy, fast = run_both(config)
        assert {t.outcome.value for t in legacy.trials} == outcomes
        assert _trial_digest(legacy) == digest
        assert _trial_digest(fast) == digest
