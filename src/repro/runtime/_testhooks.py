"""Pathological worker tasks used by the runtime's own tests.

Test modules are not importable inside ``spawn`` workers (they are not
on the child's ``sys.path``), so the misbehaving task functions the
runtime tests need — hangs, crashes, self-kills, wedged trials — live
here, inside the package, where any worker can unpickle them.  Nothing
in the library calls these.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

from .worker import run_campaign_trial


def echo(value):
    """Return ``value`` unchanged (happy-path task)."""
    return value


def hang(seconds: float = 3600.0) -> None:
    """Wedge the worker: sleep far longer than any sane trial timeout."""
    time.sleep(seconds)


def crash(message: str = "synthetic crash"):
    """Raise a plain exception inside the worker."""
    raise ValueError(message)


def kill_self() -> None:
    """Die the way a SIGKILLed or segfaulting worker does."""
    os.kill(os.getpid(), signal.SIGKILL)


def stop_self() -> None:
    """Freeze the worker with SIGSTOP (a hung-but-alive process).

    Unlike :func:`hang`, the process stops executing entirely, threads
    included; only the driver's wall-clock timeout can reap it.
    """
    os.kill(os.getpid(), signal.SIGSTOP)


def slow_once(marker_dir: str, delay_s: float, value=None):
    """Sleep ``delay_s`` on the first call only (per marker directory).

    Used to make a *preload* blow the lane warmup timeout exactly once:
    the rebuilt lane's re-shipped preload returns instantly.
    """
    directory = Path(marker_dir)
    directory.mkdir(parents=True, exist_ok=True)
    marker = directory / "slow-once"
    if not marker.exists():
        marker.touch()
        time.sleep(delay_s)
    return value


def wedge_first_attempt(
    marker_dir: str,
    delay_s: float,
    digest: str,
    trial_index: int,
    equivalence: str = "never",
):
    """Sleep ``delay_s`` on each trial's first attempt, then run the trial.

    Stands in for :func:`~repro.runtime.worker.run_campaign_trial` once
    :func:`functools.partial` binds ``marker_dir`` and ``delay_s``: a
    per-trial deadline under ``delay_s`` kills every first attempt, and
    the retry runs the real trial.  Attempts are counted per trial with
    marker files, as in :func:`slow_once`.
    """
    slow_once(os.path.join(marker_dir, f"trial-{trial_index}"), delay_s)
    return run_campaign_trial(digest, trial_index, equivalence)


def flaky(marker_dir: str, succeed_on_attempt: int, value):
    """Fail (by crashing the process) until attempt ``succeed_on_attempt``.

    Attempts are counted with marker files under ``marker_dir`` so the
    count survives worker replacement.
    """
    directory = Path(marker_dir)
    directory.mkdir(parents=True, exist_ok=True)
    attempt = len(list(directory.glob("attempt-*"))) + 1
    (directory / f"attempt-{attempt}").touch()
    if attempt < succeed_on_attempt:
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def diverge(marker_dir: str):
    """Report a fast-path divergence, counting attempts under ``marker_dir``.

    Attempts are counted with marker files, like :func:`flaky`, so a
    test can tell whether the executor retried the task.
    """
    from ..errors import raise_mismatches

    directory = Path(marker_dir)
    directory.mkdir(parents=True, exist_ok=True)
    attempt = len(list(directory.glob("attempt-*"))) + 1
    (directory / f"attempt-{attempt}").touch()
    raise_mismatches("synthetic divergence", [f"attempt {attempt}: fast!=scalar"])
