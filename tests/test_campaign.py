"""Monte-Carlo fault campaign tests.

These assert the outcome *distributions* that define each scheme:
CPPC never produces an SDC for single-bit faults; detection-only parity
produces DUEs on dirty faults; an unprotected cache produces SDCs.
"""

import pytest

from repro.cppc import CppcProtection
from repro.errors import ConfigurationError, TrialCrashError
from repro.faults import (
    CampaignConfig,
    FaultCampaign,
    Outcome,
    TrialFailure,
)
from repro.memsim import NoProtection, ParityProtection, SecdedProtection


def cppc_factory(level, unit_bits):
    return CppcProtection(data_bits=unit_bits)


def parity_factory(level, unit_bits):
    return ParityProtection(data_bits=unit_bits)


def secded_factory(level, unit_bits):
    return SecdedProtection(data_bits=unit_bits)


def none_factory(level, unit_bits):
    return NoProtection()


def run(factory, **kwargs):
    config = CampaignConfig(
        scheme_factory=factory,
        benchmark="gzip",
        trials=kwargs.pop("trials", 12),
        warmup_references=kwargs.pop("warmup_references", 600),
        post_fault_references=kwargs.pop("post_fault_references", 400),
        **kwargs,
    )
    return FaultCampaign(config).run()


class TestConfigValidation:
    def test_bad_fault_kind(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(scheme_factory=cppc_factory, fault_kind="weird")

    def test_bad_level(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(scheme_factory=cppc_factory, target_level="L3")

    def test_bad_trials(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(scheme_factory=cppc_factory, trials=0)

    @pytest.mark.parametrize("shared_warmup", [False, True])
    @pytest.mark.parametrize("field", ["warmup_references", "post_fault_references"])
    def test_negative_reference_counts(self, field, shared_warmup):
        # A negative warm-up used to crash every per-trial campaign trial
        # and a negative post count to shorten the trace silently.
        with pytest.raises(ConfigurationError, match=field):
            CampaignConfig(
                scheme_factory=cppc_factory,
                shared_warmup=shared_warmup,
                **{field: -50},
            )
        CampaignConfig(
            scheme_factory=cppc_factory, shared_warmup=shared_warmup, **{field: 0}
        )

    @pytest.mark.parametrize(
        "shape", [(0, 8), (8, 0), (-1, 4), (8,), (8, 8, 8), (2.0, 4), None]
    )
    def test_bad_spatial_shape(self, shape):
        for kind in ("spatial", "temporal"):
            with pytest.raises(ConfigurationError, match="spatial_shape"):
                CampaignConfig(
                    scheme_factory=cppc_factory, fault_kind=kind, spatial_shape=shape
                )


class TestCppcCampaigns:
    def test_temporal_faults_never_sdc_or_due(self):
        result = run(cppc_factory, fault_kind="temporal", dirty_only=True)
        counts = result.counts
        assert counts[Outcome.SDC] == 0
        assert counts[Outcome.DUE] == 0
        assert counts[Outcome.CORRECTED] + counts[Outcome.BENIGN] == len(
            result.trials
        )

    def test_temporal_faults_mostly_observed(self):
        result = run(cppc_factory, fault_kind="temporal", dirty_only=True,
                     trials=15)
        assert result.counts[Outcome.CORRECTED] >= 1

    def test_spatial_4x4_no_sdc(self):
        result = run(cppc_factory, fault_kind="spatial", spatial_shape=(4, 4))
        assert result.counts[Outcome.SDC] == 0

    def test_l2_campaign_runs(self):
        result = run(cppc_factory, fault_kind="temporal", target_level="L2",
                     trials=6)
        assert result.counts[Outcome.SDC] == 0
        assert result.counts[Outcome.DUE] == 0


class TestParityCampaigns:
    def test_dirty_faults_become_dues(self):
        result = run(parity_factory, fault_kind="temporal", dirty_only=True,
                     trials=15)
        counts = result.counts
        assert counts[Outcome.SDC] == 0  # detection prevents corruption
        assert counts[Outcome.DUE] >= 1  # ...but dirty faults kill the run

    def test_clean_faults_are_recoverable(self):
        result = run(parity_factory, fault_kind="temporal", dirty_only=False,
                     trials=15)
        # Some faults hit clean data and get refetched, or are benign.
        assert (
            result.counts[Outcome.CORRECTED] + result.counts[Outcome.BENIGN]
        ) >= 1


class TestSecdedCampaigns:
    def test_single_bit_faults_corrected(self):
        result = run(secded_factory, fault_kind="temporal", dirty_only=True)
        assert result.counts[Outcome.SDC] == 0
        assert result.counts[Outcome.DUE] == 0


class TestUnprotectedBaseline:
    def test_unprotected_cache_eventually_corrupts(self):
        result = run(none_factory, fault_kind="temporal", dirty_only=True,
                     trials=15)
        # With no detection at all, dirty-data faults surface as SDCs.
        assert result.counts[Outcome.SDC] >= 1
        assert result.counts[Outcome.DUE] == 0


class TestResultApi:
    def test_rates_sum_to_one(self):
        result = run(cppc_factory, trials=8)
        assert sum(result.summary().values()) == pytest.approx(1.0)

    def test_trial_details_present(self):
        result = run(cppc_factory, trials=5)
        assert len(result.trials) == 5
        for trial in result.trials:
            assert isinstance(trial.outcome, Outcome)

    def test_complete_and_failure_accounting(self):
        result = run(cppc_factory, trials=5)
        assert result.complete
        assert result.completed == 5
        assert result.failed == 0
        result.failures.append(
            TrialFailure(
                trial_index=5, seed=0, kind="timeout", attempts=3
            )
        )
        assert not result.complete
        assert result.failed == 1
        # Rates stay over completed trials only.
        assert sum(result.summary().values()) == pytest.approx(1.0)


class TestTrialCrashHandling:
    """Satellite: unexpected trial exceptions become structured crashes
    naming the trial; KeyboardInterrupt is never classified."""

    def campaign(self):
        return FaultCampaign(
            CampaignConfig(scheme_factory=cppc_factory, trials=5)
        )

    def test_unexpected_exception_wrapped_with_trial_identity(
        self, monkeypatch
    ):
        campaign = self.campaign()

        def explode(trial):
            raise ValueError("synthetic bug")

        monkeypatch.setattr(campaign, "_classify_trial", explode)
        with pytest.raises(TrialCrashError) as excinfo:
            campaign._run_trial(3)
        error = excinfo.value
        assert error.trial_index == 3
        assert error.seed == campaign.config.trial_seed(3)
        assert "trial 3" in str(error)
        assert "synthetic bug" in str(error)
        assert isinstance(error.__cause__, ValueError)

    def test_keyboard_interrupt_reraised_never_classified(self, monkeypatch):
        campaign = self.campaign()

        def interrupt(trial):
            raise KeyboardInterrupt()

        monkeypatch.setattr(campaign, "_classify_trial", interrupt)
        with pytest.raises(KeyboardInterrupt):
            campaign._run_trial(0)

    def test_sequential_run_propagates_crash(self, monkeypatch):
        campaign = self.campaign()

        def explode(trial):
            raise RuntimeError("dead")

        monkeypatch.setattr(campaign, "_classify_trial", explode)
        with pytest.raises(TrialCrashError) as excinfo:
            campaign.run()
        assert excinfo.value.trial_index == 0

    def test_trial_seeds_split_deterministically(self):
        config = self.campaign().config
        seeds = [config.trial_seed(i) for i in range(5)]
        assert len(set(seeds)) == 5
        assert seeds == [config.trial_seed(i) for i in range(5)]
