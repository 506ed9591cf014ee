"""Tests for the fault-tolerant trial executor and retry policy.

The pathological worker tasks (hangs, freezes, crashes, self-kills) live
in ``repro.runtime._testhooks`` because spawn workers cannot import test
modules.
"""

import pytest

from repro.errors import (
    ConfigurationError,
    EquivalenceError,
    TrialCrashError,
    TrialTimeoutError,
)
from repro.runtime import RetryPolicy, TrialExecutor, TrialTask
from repro.runtime import _testhooks as hooks


def no_sleep(_seconds):
    """Backoff stub so retry tests don't wait out real delays."""


def make_tasks(fn, argses, seed0=100):
    return [
        TrialTask(index=i, seed=seed0 + i, fn=fn, args=tuple(args))
        for i, args in enumerate(argses)
    ]


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=1.0, max_delay_s=3.0, jitter=0.0
        )
        assert policy.backoff_s(1, seed=0) == 1.0
        assert policy.backoff_s(2, seed=0) == 2.0
        assert policy.backoff_s(3, seed=0) == 3.0  # capped
        assert policy.backoff_s(4, seed=0) == 3.0

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.5)
        assert policy.backoff_s(1, seed=7) == policy.backoff_s(1, seed=7)
        assert policy.backoff_s(1, seed=7) != policy.backoff_s(1, seed=8)
        assert 1.0 <= policy.backoff_s(1, seed=7) <= 1.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=2.0)


class TestHappyPath:
    def test_reports_ordered_like_tasks(self):
        with TrialExecutor(jobs=2) as executor:
            reports = executor.run(make_tasks(hooks.echo, [(i,) for i in range(6)]))
        assert [r.index for r in reports] == list(range(6))
        assert [r.value for r in reports] == list(range(6))
        assert all(r.ok and r.attempts == 1 for r in reports)

    def test_map_returns_values(self):
        with TrialExecutor(jobs=2) as executor:
            values = executor.map(hooks.echo, [("a",), ("b",)])
        assert values == ["a", "b"]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrialExecutor(jobs=0)
        with pytest.raises(ConfigurationError):
            TrialExecutor(timeout_s=0)


class TestTimeouts:
    # A sleeping worker and a SIGSTOPped one (frozen, threads included)
    # are both reaped by the wall-clock timeout.
    @pytest.mark.parametrize(
        "wedge", [hooks.hang, hooks.stop_self], ids=["hang", "stop_self"]
    )
    def test_hung_task_is_reaped_and_neighbour_survives(self, wedge):
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
        with TrialExecutor(jobs=2, timeout_s=1.0, retry=retry) as executor:
            reports = executor.run(
                [
                    TrialTask(index=0, seed=1, fn=wedge, args=()),
                    TrialTask(index=1, seed=2, fn=hooks.echo, args=("ok",)),
                ]
            )
        hung, alive = reports
        assert not hung.ok
        assert isinstance(hung.error, TrialTimeoutError)
        assert hung.error.trial_index == 0
        assert hung.error.timeout_s == 1.0
        # Retried per policy on a rebuilt lane before giving up.
        assert hung.attempts == 2
        assert alive.ok and alive.value == "ok"

    def test_lane_recovers_after_timeout_kill(self):
        retry = RetryPolicy(max_attempts=1)
        with TrialExecutor(jobs=1, timeout_s=1.0, retry=retry) as executor:
            first = executor.run([TrialTask(index=0, seed=1, fn=hooks.hang, args=())])
            second = executor.run(
                [TrialTask(index=0, seed=2, fn=hooks.echo, args=(42,))]
            )
        assert isinstance(first[0].error, TrialTimeoutError)
        assert second[0].ok and second[0].value == 42


class TestCrashes:
    def test_worker_exception_becomes_trial_crash(self):
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
        with TrialExecutor(jobs=1, retry=retry, sleep=no_sleep) as executor:
            reports = executor.run(
                [TrialTask(index=3, seed=9, fn=hooks.crash, args=("boom",))]
            )
        report = reports[0]
        assert not report.ok
        assert isinstance(report.error, TrialCrashError)
        assert report.error.trial_index == 3
        assert report.error.seed == 9
        assert "boom" in str(report.error)
        assert report.attempts == 2

    def test_sigkilled_worker_becomes_trial_crash(self):
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
        with TrialExecutor(jobs=1, retry=retry, sleep=no_sleep) as executor:
            reports = executor.run(
                [TrialTask(index=0, seed=5, fn=hooks.kill_self, args=())]
            )
            after = executor.run(
                [TrialTask(index=0, seed=6, fn=hooks.echo, args=("back",))]
            )
        assert isinstance(reports[0].error, TrialCrashError)
        assert after[0].ok and after[0].value == "back"

    def test_flaky_task_succeeds_after_retries(self, tmp_path):
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        with TrialExecutor(jobs=1, retry=retry, sleep=no_sleep) as executor:
            reports = executor.run(
                [
                    TrialTask(
                        index=0,
                        seed=1,
                        fn=hooks.flaky,
                        args=(str(tmp_path / "marks"), 3, "finally"),
                    )
                ]
            )
        report = reports[0]
        assert report.ok
        assert report.value == "finally"
        assert report.attempts == 3

    def test_divergence_stops_the_sweep_without_retry(self, tmp_path):
        # A fast path disagreeing with its reference is a verdict: the
        # error propagates after one attempt and nothing is reported.
        marks = tmp_path / "marks"
        seen = []
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        with TrialExecutor(jobs=1, retry=retry, sleep=no_sleep) as executor:
            with pytest.raises(EquivalenceError) as excinfo:
                executor.run(
                    [TrialTask(index=0, seed=1, fn=hooks.diverge, args=(str(marks),))],
                    on_report=seen.append,
                )
        assert excinfo.value.mismatches == ["attempt 1: fast!=scalar"]
        assert len(list(marks.glob("attempt-*"))) == 1
        assert seen == []

    def test_map_raises_structured_error_on_exhaustion(self):
        retry = RetryPolicy(max_attempts=1)
        with TrialExecutor(jobs=1, retry=retry) as executor:
            with pytest.raises(TrialCrashError):
                executor.map(hooks.crash, [("nope",)])


class TestPreloadWarmupTimeout:
    def test_slow_preload_blows_warmup_and_retry_recovers(self, tmp_path, monkeypatch):
        # The preload sleeps far past the (patched) lane warmup budget on
        # its first run only; the timeout kills the lane, and the rebuilt
        # lane's re-shipped preload returns instantly, so the trial
        # itself succeeds on attempt 2.
        from repro.runtime import executor as executor_module

        monkeypatch.setattr(executor_module, "WARMUP_TIMEOUT_S", 3.0)
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
        with TrialExecutor(jobs=1, retry=retry, sleep=no_sleep) as executor:
            executor.add_preload(hooks.slow_once, str(tmp_path / "marks"), 30.0)
            reports = executor.run(
                [TrialTask(index=0, seed=1, fn=hooks.echo, args=("ok",))]
            )
        report = reports[0]
        assert report.ok
        assert report.value == "ok"
        assert report.attempts == 2


class TestCallbacks:
    def test_on_report_fires_per_task(self):
        seen = []
        with TrialExecutor(jobs=2) as executor:
            executor.run(
                make_tasks(hooks.echo, [(i,) for i in range(4)]),
                on_report=lambda report: seen.append(report.index),
            )
        assert sorted(seen) == [0, 1, 2, 3]

    def test_callback_failure_stops_sweep_loudly(self):
        def explode(report):
            raise OSError("disk full")

        with TrialExecutor(jobs=1) as executor:
            with pytest.raises(OSError):
                executor.run(
                    make_tasks(hooks.echo, [(i,) for i in range(3)]),
                    on_report=explode,
                )
