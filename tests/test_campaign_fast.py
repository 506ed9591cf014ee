"""Snapshot-fork fast path vs. the legacy warm-every-trial loop.

The fast path's contract is *bit-identity*: for the same shared-warmup
config and seeds it must produce exactly the per-trial
:class:`TrialResult` sequence (and therefore the same outcome tallies)
as the legacy loop.  These tests enforce that over randomized
scheme/benchmark/seed combinations, exercise both warm engines (batch
for CPPC, scalar for everything else), and pin down the warm-state
cache and configuration guard rails.
"""

import hashlib
import json

import pytest

from repro.errors import ConfigurationError, EquivalenceError
from repro.faults import (
    CampaignConfig,
    FaultCampaign,
    Outcome,
    TrialResult,
    build_warm_state,
    clear_warm_cache,
    scheme_factory,
    warm_state_for,
)
from repro.faults.campaign import trial_mismatches
from repro.faults import warmstate as warmstate_mod
from repro.memsim import MemoryHierarchy, NoProtection
from repro.memsim.replacement import FIFOPolicy


@pytest.fixture(autouse=True)
def _fresh_warm_cache():
    clear_warm_cache()
    yield
    clear_warm_cache()


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
    legacy = FaultCampaign(config).run()
    clear_warm_cache()
    fast = FaultCampaign(config, fast=True).run()
    return legacy, fast


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
        campaign = FaultCampaign(config, fast=True, fast_equivalence="always")
        result = campaign.run()
        legacy = FaultCampaign(config).run()
        assert_identical(legacy, result)


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
        ],
    )
    def test_batch_compatible_names_the_failed_condition(self, change, reason):
        hierarchy = MemoryHierarchy(protection_factory=scheme_factory("cppc"))
        assert warmstate_mod._batch_compatible(hierarchy.l1d) is None
        change(hierarchy)
        assert warmstate_mod._batch_compatible(hierarchy.l1d) == reason

    def test_batch_and_scalar_warm_agree(self, monkeypatch):
        config = shared_config(warmup_references=900)
        batch_state = build_warm_state(config)
        assert batch_state.warm_engine == "batch"
        monkeypatch.setattr(warmstate_mod, "_batch_compatible", lambda l1: "forced")
        scalar_state = build_warm_state(config)
        assert scalar_state.warm_engine == "scalar"
        assert scalar_state.warm_fallback == "forced"
        assert scalar_state.snapshot == batch_state.snapshot
        assert scalar_state.golden_image == batch_state.golden_image
        assert scalar_state.start_cycle == batch_state.start_cycle


class TestGuards:
    def test_fast_requires_shared_warmup(self):
        config = shared_config(shared_warmup=False)
        with pytest.raises(ConfigurationError):
            FaultCampaign(config, fast=True)

    def test_bad_equivalence_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultCampaign(shared_config(), fast=True, fast_equivalence="sometimes")
        # A campaign has no run size for "auto" to gate on.
        with pytest.raises(ConfigurationError):
            FaultCampaign(shared_config(), fast=True, fast_equivalence="auto")

    def test_equivalence_always_raises_on_divergence(self, monkeypatch):
        monkeypatch.setattr(
            FaultCampaign,
            "_classify_trial_fast",
            lambda self, trial, warm=None: TrialResult(Outcome.SDC, detail="forced"),
        )
        campaign = FaultCampaign(
            shared_config(trials=2), fast=True, fast_equivalence="always"
        )
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


class TestWarmCache:
    def test_warm_state_is_memoized(self):
        config = shared_config()
        cache = warmstate_mod.warm_cache()
        before = cache.hits
        first = warm_state_for(config)
        assert warm_state_for(config) is first
        assert cache.hits == before + 1

    def test_distinct_configs_get_distinct_states(self):
        a = warm_state_for(shared_config())
        b = warm_state_for(shared_config(benchmark="gzip"))
        assert a is not b
        assert a.key != b.key

    def test_trial_count_does_not_affect_warm_key(self):
        a = warm_state_for(shared_config(trials=4))
        b = warm_state_for(shared_config(trials=9))
        assert a.key == b.key
        assert b is a

    def test_size_accounting(self):
        state = warm_state_for(shared_config())
        assert state.size_bytes > 0
        assert warmstate_mod.warm_cache().total_bytes >= state.size_bytes


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
