"""Fault-tolerant, resumable execution of fault-injection campaigns.

:func:`run_campaign` is the runtime-backed counterpart of the sequential
loop in :meth:`repro.faults.campaign.FaultCampaign.run`: trials execute
in worker subprocesses with timeouts and retries, every finished trial
is durably checkpointed, and a ``--resume`` after a crash or SIGKILL
skips completed trials yet produces a bit-identical
:class:`~repro.faults.campaign.CampaignResult` — per-trial seeds are
pure functions of ``(campaign seed, trial index)``
(:func:`repro.util.rng.split_seed`), never shared RNG state, so outcomes
do not depend on scheduling, ordering, or interruption.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path
from typing import Dict, Optional, Union

from ..errors import CheckpointCorruptError, ConfigurationError
from ..faults.campaign import (
    CampaignConfig,
    CampaignResult,
    Outcome,
    TrialFailure,
    TrialResult,
)
from . import worker as _worker
from .checkpoint import CheckpointRecord, CheckpointStore, campaign_digest
from .executor import TaskReport, TrialExecutor, TrialTask, _error_kind
from .retry import RetryPolicy


class CampaignRuntime:
    """Bundle of execution policy: workers, timeout, retry, checkpoints.

    One runtime can serve many campaigns (its worker lanes are reused),
    which is how multi-cell sweeps such as
    :func:`repro.harness.resilience.resilience_matrix` amortize worker
    startup.  Checkpoints nest under ``checkpoint_dir`` by config digest,
    so one directory safely holds a whole sweep.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint_dir: Union[str, Path, None] = None,
        resume: bool = False,
    ):
        if resume and checkpoint_dir is None:
            raise ConfigurationError("resume requires a checkpoint directory")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy()
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.resume = resume
        self._executor: Optional[TrialExecutor] = None

    def executor(self) -> TrialExecutor:
        """The lazily created, reusable worker-lane executor."""
        if self._executor is None:
            self._executor = TrialExecutor(
                jobs=self.jobs, timeout_s=self.timeout_s, retry=self.retry
            )
        return self._executor

    def map(self, fn, argses, *, seed=0):
        """Run a generic sweep (see :meth:`TrialExecutor.map`)."""
        return self.executor().map(fn, argses, seed=seed)

    def close(self) -> None:
        """Shut down worker lanes."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "CampaignRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Trial (de)serialization for checkpoint payloads
# ----------------------------------------------------------------------
def result_payload(result: TrialResult) -> dict:
    """JSON-safe view of one completed trial."""
    return {
        "outcome": result.outcome.value,
        "injected_bits": result.injected_bits,
        "touched_units": result.touched_units,
        "detail": result.detail,
    }


def result_from_payload(payload: dict) -> TrialResult:
    """Rebuild a :class:`TrialResult` from its checkpoint payload."""
    return TrialResult(
        outcome=Outcome(payload["outcome"]),
        injected_bits=payload["injected_bits"],
        touched_units=payload["touched_units"],
        detail=payload["detail"],
    )


def failure_payload(failure: TrialFailure) -> dict:
    """JSON-safe view of one abandoned trial."""
    return {
        "kind": failure.kind,
        "attempts": failure.attempts,
        "message": failure.message,
    }


def failure_from_payload(trial_index: int, seed: int, payload: dict) -> TrialFailure:
    """Rebuild a :class:`TrialFailure` from its checkpoint payload."""
    return TrialFailure(
        trial_index=trial_index,
        seed=seed,
        kind=payload["kind"],
        attempts=payload["attempts"],
        message=payload["message"],
    )


def _failure_from_report(report: TaskReport) -> TrialFailure:
    return TrialFailure(
        trial_index=report.index,
        seed=report.seed,
        kind=_error_kind(report.error),
        attempts=report.attempts,
        message=str(report.error),
    )


# ----------------------------------------------------------------------
def run_campaign(
    config: CampaignConfig,
    runtime: CampaignRuntime,
    *,
    obs=None,
    equivalence: str = "never",
) -> CampaignResult:
    """Run (or resume) one campaign under a :class:`CampaignRuntime`.

    Completed trials land in ``CampaignResult.trials`` in trial order;
    trials the retry policy gave up on land in ``.failures``.  Workers
    report how each trial was settled, and trials read back from
    checkpoints count as ``resumed`` in ``CampaignResult.settled``.  With a
    checkpoint directory every finished trial is durable before the next
    is scheduled on that lane, so an interruption loses at most in-flight
    work.  A per-trial divergence under ``equivalence="always"`` is not a
    crash: its :class:`~repro.errors.EquivalenceError` stops the sweep
    and propagates, unrecorded.

    The per-trial payload is deduplicated: ``(config, warm)`` — ``warm``
    is the campaign's warm state under ``config.shared_warmup``, built
    here once when any trial is pending (see
    :mod:`repro.faults.warmstate`), None otherwise — is pickled once and
    shipped to each worker lane once via an executor preload; tasks
    carry only ``(digest, trial_index, equivalence)``.  Workers run the
    same :meth:`FaultCampaign._run_trial` as the sequential loop, so the
    config chooses the engine here too.  A failing warm build propagates
    as raised, before any trial is scheduled.

    ``obs`` (a :class:`repro.obs.TraceSink`) receives one outcome event
    per finished trial.  Trials execute in worker subprocesses, so —
    unlike the sequential path — per-access events are not available
    here, only the parent-side classification stream.
    """
    if obs is not None and not obs.enabled:
        obs = None
    digest = campaign_digest(config)
    store: Optional[CheckpointStore] = None
    recorded: Dict[int, CheckpointRecord] = {}
    if runtime.checkpoint_dir is not None:
        store = CheckpointStore(
            runtime.checkpoint_dir / digest[:16],
            config_digest=digest,
            resume=runtime.resume,
        )
        if runtime.resume:
            recorded = store.load()
            _validate_records(config, recorded)

    pending = [i for i in range(config.trials) if i not in recorded]

    preload_token = None
    tasks = []
    warm = None
    if pending:
        if config.shared_warmup:
            from ..faults import warmstate

            warm = warmstate.build_warm_state(config)
        blob = pickle.dumps((config, warm), protocol=pickle.HIGHEST_PROTOCOL)
        payload_digest = hashlib.sha256(blob).hexdigest()
        preload_token = runtime.executor().add_preload(
            _worker.seed_campaign_payload, payload_digest, blob
        )
        tasks = [
            TrialTask(
                index=i,
                seed=config.trial_seed(i),
                fn=_worker.run_campaign_trial,
                args=(payload_digest, i, equivalence),
            )
            for i in pending
        ]

    def checkpoint(report: TaskReport) -> None:
        if obs is not None:
            if report.ok:
                obs.emit(
                    "campaign",
                    "trial",
                    {
                        "trial": report.index,
                        "outcome": report.value.result.outcome.value,
                        "injected_bits": report.value.result.injected_bits,
                        "settled": report.value.settled,
                        "attempts": report.attempts,
                    },
                )
            else:
                obs.emit(
                    "campaign",
                    "trial-failed",
                    {
                        "trial": report.index,
                        "attempts": report.attempts,
                        "error": str(report.error),
                    },
                )
        if store is None:
            return
        if report.ok:
            store.record(
                report.index,
                report.seed,
                "result",
                result_payload(report.value.result),
            )
        else:
            store.record(
                report.index,
                report.seed,
                "failure",
                failure_payload(_failure_from_report(report)),
            )

    try:
        reports = runtime.executor().run(tasks, on_report=checkpoint) if tasks else []
    finally:
        if preload_token is not None:
            runtime.executor().remove_preload(preload_token)
        if store is not None:
            store.close()

    by_index: Dict[int, TaskReport] = {r.index: r for r in reports}
    result = CampaignResult(config=config)
    if warm is not None:
        result.warm_engine = warm.warm_engine
        result.warm_fallback = warm.warm_fallback
    for trial in range(config.trials):
        if trial in recorded:
            record = recorded[trial]
            if record.kind == "result":
                result.add_resumed(result_from_payload(record.payload))
            else:
                result.failures.append(
                    failure_from_payload(trial, record.seed, record.payload)
                )
        elif trial in by_index:
            report = by_index[trial]
            if report.ok:
                result.add(report.value)
            else:
                result.failures.append(_failure_from_report(report))
    return result


def _validate_records(
    config: CampaignConfig, recorded: Dict[int, CheckpointRecord]
) -> None:
    for trial, record in recorded.items():
        if not isinstance(trial, int) or not 0 <= trial < config.trials:
            raise CheckpointCorruptError(
                f"checkpoint names trial {trial!r} outside the campaign's "
                f"{config.trials} trials"
            )
        expected = config.trial_seed(trial)
        if record.seed != expected:
            raise CheckpointCorruptError(
                f"trial {trial} was recorded with seed {record.seed}, but "
                f"this campaign derives {expected}; refusing to mix runs"
            )


