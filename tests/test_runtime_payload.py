"""Deduplicated campaign payloads and preloaded workers.

The runtime ships each campaign's payload (config, plus the warm state
under a shared warmup) to every worker lane exactly once, named by
content digest; trials carry only the digest, an index and the
equivalence mode.  These tests cover the payload a worker holds, the
executor preload mechanism (including re-seeding a rebuilt lane after a
kill), and end-to-end bit-identity of the runtime-backed fork against
the sequential legacy loop.
"""

import hashlib
import pickle

import pytest

from repro.errors import CampaignRuntimeError
from repro.faults import (
    CampaignConfig,
    FaultCampaign,
    build_warm_state,
    scheme_factory,
)
from repro.runtime import CampaignRuntime, TrialExecutor, TrialTask
from repro.runtime import worker as _worker


def shared_config(**overrides):
    params = dict(
        scheme_factory=scheme_factory("cppc"),
        benchmark="gcc",
        trials=4,
        warmup_references=500,
        post_fault_references=300,
        seed=2,
        shared_warmup=True,
    )
    params.update(overrides)
    return CampaignConfig(**params)


def seed_payload(payload):
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest()
    _worker.seed_campaign_payload(digest, blob)
    return digest


@pytest.fixture(autouse=True)
def _no_payload(monkeypatch):
    monkeypatch.setattr(_worker, "_PAYLOAD", None)


class TestWorkerPayloadCache:
    def test_cached_legacy_trial_matches_direct(self):
        config = shared_config(shared_warmup=False)
        digest = seed_payload((config, None))
        direct = FaultCampaign(config)._run_trial(1)
        cached = _worker.run_campaign_trial(digest, 1)
        assert vars(cached) == vars(direct)

    def test_fast_trial_matches_legacy(self):
        config = shared_config()
        legacy = FaultCampaign(config).run_scalar().trials[2]
        digest = seed_payload((config, build_warm_state(config)))
        fast = _worker.run_campaign_trial(digest, 2, "always")
        assert vars(fast.result) == vars(legacy)

    def test_missing_payload_is_a_structured_error(self):
        with pytest.raises(CampaignRuntimeError):
            _worker.run_campaign_trial("0" * 64, 0)

    def test_next_payload_replaces_the_last(self):
        first = shared_config(shared_warmup=False)
        second = shared_config(shared_warmup=False, seed=3)
        old = seed_payload((first, None))
        new = seed_payload((second, None))
        direct = FaultCampaign(second)._run_trial(0)
        assert vars(_worker.run_campaign_trial(new, 0)) == vars(direct)
        with pytest.raises(CampaignRuntimeError, match="no cached payload"):
            _worker.run_campaign_trial(old, 0)


class TestExecutorPreload:
    def test_preload_seeds_workers_and_survives_lane_kill(self):
        config = shared_config(shared_warmup=False, trials=2)
        blob = pickle.dumps((config, None), protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        expected = [vars(FaultCampaign(config)._run_trial(i)) for i in range(2)]
        with TrialExecutor(jobs=1) as executor:
            token = executor.add_preload(_worker.seed_campaign_payload, digest, blob)
            first = executor.map(_worker.run_campaign_trial, [(digest, 0)])
            assert vars(first[0]) == expected[0]
            # Kill the lane: the replacement worker holds no payload and
            # must be re-seeded by the preload before its next trial.
            executor._lanes[0].kill()
            second = executor.map(_worker.run_campaign_trial, [(digest, 1)])
            assert vars(second[0]) == expected[1]
            executor.remove_preload(token)

    def test_removed_preload_not_applied_to_new_workers(self):
        config = shared_config(shared_warmup=False, trials=1)
        blob = pickle.dumps((config, None), protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        with TrialExecutor(jobs=1) as executor:
            token = executor.add_preload(_worker.seed_campaign_payload, digest, blob)
            executor.remove_preload(token)
            executor._lanes[0].kill()
            reports = executor.run(
                [
                    TrialTask(
                        index=0,
                        seed=0,
                        fn=_worker.run_campaign_trial,
                        args=(digest, 0),
                    )
                ]
            )
            assert not reports[0].ok
            assert "no cached payload" in str(reports[0].error)


class TestRuntimeFastCampaign:
    def test_runtime_fast_path_matches_sequential_legacy(self):
        config = shared_config(trials=6)
        legacy = FaultCampaign(config).run_scalar()
        with CampaignRuntime(jobs=2) as runtime:
            fast = FaultCampaign(config).run(runtime=runtime)
        assert [vars(t) for t in fast.trials] == [vars(t) for t in legacy.trials]
        assert fast.failures == []

    def test_runtime_equivalence_always_matches_scalar(self):
        # Workers re-run each forked trial through the scalar reference.
        config = shared_config(trials=3)
        legacy = FaultCampaign(config).run_scalar()
        campaign = FaultCampaign(config, equivalence="always")
        with CampaignRuntime(jobs=1) as runtime:
            checked = campaign.run(runtime=runtime)
        assert [vars(t) for t in checked.trials] == [vars(t) for t in legacy.trials]
        assert checked.failures == []

    def test_legacy_runtime_path_unchanged_by_dedup(self):
        config = shared_config(shared_warmup=False, trials=3)
        sequential = FaultCampaign(config).run()
        with CampaignRuntime(jobs=2) as runtime:
            parallel = FaultCampaign(config).run(runtime=runtime)
        assert [vars(t) for t in parallel.trials] == [
            vars(t) for t in sequential.trials
        ]

    def test_shared_warmup_changes_campaign_digest(self):
        from repro.runtime.checkpoint import campaign_digest

        plain = shared_config(shared_warmup=False)
        shared = shared_config()
        assert campaign_digest(plain) != campaign_digest(shared)
