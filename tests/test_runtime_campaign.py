"""End-to-end tests for crash-safe, resumable campaign execution.

The three recovery proofs: a campaign whose driver is SIGKILLed and
resumed via ``--resume``, a campaign whose checkpoint ends in a torn
record, and a campaign whose trials each wedge once past the deadline
must all yield a ``CampaignResult`` bit-identical to the same campaign
run uninterrupted.  A trial that stays hung is reaped by the timeout,
retried per policy, and surfaces as a structured failure without
aborting the sweep.
"""

import functools
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings

import pytest

import repro
from repro.errors import (
    CheckpointCorruptError,
    CheckpointWarning,
    ConfigurationError,
    TrialCrashError,
    TrialTimeoutError,
)
from repro.faults import (
    CampaignConfig,
    FaultCampaign,
    TrialFailure,
    scheme_factory,
)
from repro.runtime import CampaignRuntime, RetryPolicy, campaign_digest
from repro.runtime import _testhooks as hooks
from repro.runtime import worker


def small_config(**overrides):
    params = dict(
        scheme_factory=scheme_factory("parity"),
        benchmark="gzip",
        trials=5,
        warmup_references=400,
        post_fault_references=300,
        dirty_only=True,
    )
    params.update(overrides)
    return CampaignConfig(**params)


def trial_dicts(result):
    return [vars(t) for t in result.trials]


class TestRuntimeEquivalence:
    def test_worker_trials_match_sequential_loop(self):
        config = small_config()
        sequential = FaultCampaign(config).run()
        with CampaignRuntime(jobs=2, timeout_s=120) as runtime:
            parallel = FaultCampaign(config).run(runtime=runtime)
        assert trial_dicts(parallel) == trial_dicts(sequential)
        assert parallel.summary() == sequential.summary()
        assert parallel.complete

    def test_trial_seeds_are_order_independent(self):
        config = small_config()
        assert config.trial_seed(0) != config.trial_seed(1)
        assert config.trial_seed(3) == small_config().trial_seed(3)


class TestResume:
    @pytest.mark.parametrize("tail", ["whole", "torn"])
    def test_interrupted_checkpoint_resumes_bit_identical(self, tmp_path, tail):
        config = small_config()
        reference = FaultCampaign(config).run()

        with CampaignRuntime(jobs=1, checkpoint_dir=tmp_path / "ckpt") as runtime:
            first = FaultCampaign(config).run(runtime=runtime)
        assert trial_dicts(first) == trial_dicts(reference)

        # Simulate a SIGKILL that landed after two durable trials: chop
        # the log, then resume.  A kill between appends leaves whole
        # records; a kill mid-append also leaves the start of the next.
        log = next((tmp_path / "ckpt").glob("*/trials.jsonl"))
        lines = log.read_text().splitlines()
        text = "\n".join(lines[:2]) + "\n"
        if tail == "torn":
            text += lines[2][: len(lines[2]) // 2]
        log.write_text(text)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with CampaignRuntime(
                jobs=1, checkpoint_dir=tmp_path / "ckpt", resume=True
            ) as runtime:
                resumed = FaultCampaign(config).run(runtime=runtime)
        torn = [w for w in caught if issubclass(w.category, CheckpointWarning)]
        assert len(torn) == (1 if tail == "torn" else 0)
        assert trial_dicts(resumed) == trial_dicts(reference)
        assert resumed.summary() == reference.summary()
        assert resumed.complete
        # Workers report how they settled each trial; the two read back
        # from the checkpoint count as resumed.
        assert first.settled == reference.settled
        assert resumed.settled["resumed"] == 2
        assert resumed.settled["replayed"] == config.trials - 2

    def test_resume_with_full_checkpoint_runs_nothing(self, tmp_path):
        config = small_config(trials=3)
        with CampaignRuntime(jobs=1, checkpoint_dir=tmp_path / "ckpt") as runtime:
            first = FaultCampaign(config).run(runtime=runtime)
        runtime = CampaignRuntime(jobs=1, checkpoint_dir=tmp_path / "ckpt", resume=True)
        # No executor should even be needed: every trial is recorded.
        resumed = FaultCampaign(config).run(runtime=runtime)
        assert runtime._executor is None
        assert trial_dicts(resumed) == trial_dicts(first)

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ConfigurationError):
            CampaignRuntime(resume=True)

    def test_resume_rejects_foreign_seeds(self, tmp_path):
        config = small_config(trials=3)
        with CampaignRuntime(jobs=1, checkpoint_dir=tmp_path / "ckpt") as runtime:
            FaultCampaign(config).run(runtime=runtime)
        # Rewrite every record under the same digest but a wrong seed.
        log = next((tmp_path / "ckpt").glob("*/trials.jsonl"))
        import json

        from repro.runtime.checkpoint import _checksum

        doctored = []
        for line in log.read_text().splitlines():
            record = json.loads(line)
            record.pop("crc")
            record["seed"] = record["seed"] ^ 1
            doctored.append(json.dumps({**record, "crc": _checksum(record)}))
        log.write_text("\n".join(doctored) + "\n")
        with CampaignRuntime(
            jobs=1, checkpoint_dir=tmp_path / "ckpt", resume=True
        ) as runtime:
            with pytest.raises(CheckpointCorruptError):
                FaultCampaign(config).run(runtime=runtime)

    def test_checkpoint_dirs_nest_by_config_digest(self, tmp_path):
        config_a = small_config(trials=3, seed=0)
        config_b = small_config(trials=3, seed=1)
        with CampaignRuntime(jobs=1, checkpoint_dir=tmp_path / "ckpt") as runtime:
            FaultCampaign(config_a).run(runtime=runtime)
            FaultCampaign(config_b).run(runtime=runtime)
        subdirs = {p.name for p in (tmp_path / "ckpt").iterdir()}
        assert subdirs == {
            campaign_digest(config_a)[:16],
            campaign_digest(config_b)[:16],
        }


class TestGracefulDegradation:
    def test_impossible_timeout_degrades_to_failures(self):
        # Long warmup keeps one trial far above the 50ms budget.
        config = small_config(trials=2, warmup_references=20000)
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
        with CampaignRuntime(jobs=1, timeout_s=0.05, retry=retry) as runtime:
            result = FaultCampaign(config).run(runtime=runtime)
        assert result.trials == []
        assert len(result.failures) == 2
        for failure in result.failures:
            assert isinstance(failure, TrialFailure)
            assert failure.kind == "timeout"
            assert failure.attempts == 2
        assert not result.complete
        assert result.failed == 2

    def test_failures_are_checkpointed_and_resumed(self, tmp_path):
        config = small_config(trials=2, warmup_references=20000)
        retry = RetryPolicy(max_attempts=1)
        with CampaignRuntime(
            jobs=1,
            timeout_s=0.05,
            retry=retry,
            checkpoint_dir=tmp_path / "ckpt",
        ) as runtime:
            first = FaultCampaign(config).run(runtime=runtime)
        assert first.failed == 2
        runtime = CampaignRuntime(jobs=1, checkpoint_dir=tmp_path / "ckpt", resume=True)
        resumed = FaultCampaign(config).run(runtime=runtime)
        assert runtime._executor is None  # failures count as recorded
        assert [vars(f) for f in resumed.failures] == [vars(f) for f in first.failures]


class TestStructuredErrors:
    def test_runtime_errors_pickle_with_context(self):
        crash = TrialCrashError("trial 7 died", trial_index=7, seed=123)
        clone = pickle.loads(pickle.dumps(crash))
        assert isinstance(clone, TrialCrashError)
        assert clone.trial_index == 7
        assert clone.seed == 123
        assert "died" in str(clone)

        timeout = TrialTimeoutError("too slow", trial_index=2, seed=5, timeout_s=1.5)
        clone = pickle.loads(pickle.dumps(timeout))
        assert clone.timeout_s == 1.5
        assert clone.trial_index == 2


def stray_workers():
    """PIDs of live multiprocessing workers and resource trackers that
    this process did not start (read from /proc)."""
    strays = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
            with open(f"/proc/{entry}/status") as fh:
                status = fh.read()
        except OSError:
            continue
        if b"spawn_main" not in cmdline and b"resource_tracker" not in cmdline:
            continue
        ppid = next(
            int(line.split()[1])
            for line in status.splitlines()
            if line.startswith("PPid:")
        )
        if ppid != os.getpid():
            strays.add(int(entry))
    return strays


def count_records(log):
    if not log.exists():
        return 0
    return sum(1 for line in log.read_text().splitlines() if line)


class TestKillAndResumeSmoke:
    def test_sigkilled_campaign_resumes_identically(self, tmp_path):
        before = stray_workers() if os.path.isdir("/proc") else set()
        config = small_config(
            trials=6, warmup_references=700, post_fault_references=500
        )
        reference = FaultCampaign(config).run()
        # The same campaign as a child driver, SIGKILLed once one trial
        # is durable.
        ckpt = tmp_path / "ckpt"
        log = ckpt / campaign_digest(config)[:16] / "trials.jsonl"
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        argv = (
            "-m repro.tools.run_campaign parity --benchmark gzip --trials 6 "
            "--warmup 700 --post 500 --seed 0 --dirty-only --jobs 1"
        ).split()
        child = subprocess.Popen(
            [sys.executable, *argv, "--checkpoint-dir", str(ckpt)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONPATH=src),
        )
        try:
            deadline = time.monotonic() + 60
            while count_records(log) < 1 and child.poll() is None:
                assert time.monotonic() < deadline, "no trial became durable"
                time.sleep(0.05)
            assert child.poll() is None, "campaign finished before the kill"
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
        assert 1 <= count_records(log) < config.trials

        with CampaignRuntime(jobs=1, checkpoint_dir=ckpt, resume=True) as runtime:
            resumed = FaultCampaign(config).run(runtime=runtime)
        assert trial_dicts(resumed) == trial_dicts(reference)
        assert resumed.complete
        if not os.path.isdir("/proc"):
            return
        # The SIGKILLed driver's worker outlives it only until it sees
        # that its parent is gone; then its resource tracker ends too.
        deadline = time.monotonic() + 10
        while stray_workers() - before and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not stray_workers() - before


class TestWedgedTrials:
    def test_wedged_first_attempts_time_out_and_retry(self, tmp_path, monkeypatch):
        # Every trial's first attempt sleeps far past the deadline; the
        # timeout kills it and the retry on the rebuilt lane runs it.
        config = small_config(trials=3)
        reference = FaultCampaign(config).run()
        markers = tmp_path / "markers"
        monkeypatch.setattr(
            worker,
            "run_campaign_trial",
            functools.partial(hooks.wedge_first_attempt, str(markers), 60.0),
        )
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
        with CampaignRuntime(jobs=1, timeout_s=1.0, retry=retry) as runtime:
            result = FaultCampaign(config).run(runtime=runtime)
        assert sorted(p.name for p in markers.iterdir()) == [
            f"trial-{i}" for i in range(config.trials)
        ]
        assert trial_dicts(result) == trial_dicts(reference)
        assert result.failures == []
        assert result.complete
