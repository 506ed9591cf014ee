"""Fault-tolerant execution layer for trial-based sweeps.

Campaign drivers hand their trials to this package instead of looping
in-process: each trial runs in a ``spawn``-context worker subprocess
with a wall-clock timeout (:class:`TrialExecutor`), crashed or wedged
trials are retried with deterministic backoff (:class:`RetryPolicy`),
finished trials are durably checkpointed (:class:`CheckpointStore`), and
an interrupted campaign resumes bit-identically
(:func:`run_campaign` + :class:`CampaignRuntime`).
"""

from .campaign import (
    CampaignRuntime,
    failure_from_payload,
    failure_payload,
    result_from_payload,
    result_payload,
    run_campaign,
)
from .checkpoint import CheckpointRecord, CheckpointStore, campaign_digest
from .executor import TaskReport, TrialExecutor, TrialTask
from .retry import RetryPolicy

__all__ = [
    "CampaignRuntime",
    "CheckpointRecord",
    "CheckpointStore",
    "RetryPolicy",
    "TaskReport",
    "TrialExecutor",
    "TrialTask",
    "campaign_digest",
    "failure_from_payload",
    "failure_payload",
    "result_from_payload",
    "result_payload",
    "run_campaign",
]
