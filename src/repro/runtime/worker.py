"""Subprocess entry points for the trial runtime.

Everything here is module-level so ``spawn``-context workers can unpickle
it by qualified name.  A campaign's trials all enter through
:func:`run_campaign_trial`: the worker holds the picklable payload of
the one campaign it serves (a
:class:`~repro.faults.campaign.CampaignConfig` built with
:class:`~repro.faults.schemes.SchemeFactory`, plus its warm state under
a shared warmup), each task names a trial index, and results come back
as plain dataclasses.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import time
from typing import Optional, Sequence, Tuple

#: How often a worker checks that the driver which spawned it still
#: lives (seconds).
PARENT_POLL_S = 0.5

_PARENT_WATCH: Optional[threading.Thread] = None


def _exit_with_parent(parent: int) -> None:
    """Exit this process once ``parent`` is gone.

    A killed driver cannot reap its workers, and an orphan is adopted by
    another process, which changes ``os.getppid()``.  Nothing is left to
    report to, so the worker exits at once.
    """
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


def initialize_worker(extra_sys_path: Sequence[str] = ()) -> None:
    """Per-worker setup: import path, signals and parent watch.

    ``spawn`` children rebuild ``sys.path`` from the environment, so the
    parent passes its own package location along for installs that rely
    on ``PYTHONPATH`` tricks.  SIGINT is ignored in workers: a Ctrl-C
    belongs to the driver, which reaps workers explicitly.  A daemon
    thread ends the worker once its driver is gone (a SIGKILLed driver
    reaps nothing).
    """
    global _PARENT_WATCH
    for path in extra_sys_path:
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    if _PARENT_WATCH is None:
        _PARENT_WATCH = threading.Thread(
            target=_exit_with_parent, args=(os.getppid(),), daemon=True
        )
        _PARENT_WATCH.start()


def package_sys_path() -> list:
    """The parent-side path entries workers need to import ``repro``."""
    import repro

    return [os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))]


def noop() -> None:
    """Warm-up task: proves a worker is alive and has imported repro."""
    return None


# ----------------------------------------------------------------------
# The shared-payload trial entry point
#
# A campaign's config (and, under a shared warmup, its warm state) is the
# same for every trial, so the parent ships it once per worker via an
# executor preload (:meth:`TrialExecutor.add_preload`) and per-trial
# tasks carry only the payload digest, a trial index and the equivalence
# mode.  A runtime runs one campaign at a time, so a worker holds only
# the payload of the campaign it serves, and the next campaign's preload
# replaces it.
# ----------------------------------------------------------------------
_PAYLOAD: Optional[Tuple[str, tuple]] = None


def seed_campaign_payload(digest: str, blob: bytes) -> None:
    """Preload entry point: hold a pickled campaign payload, replacing
    the one held before."""
    global _PAYLOAD
    _PAYLOAD = (digest, pickle.loads(blob))


def _cached_payload(digest: str) -> tuple:
    if _PAYLOAD is None or _PAYLOAD[0] != digest:
        from ..errors import CampaignRuntimeError

        raise CampaignRuntimeError(
            f"worker has no cached payload for campaign {digest[:16]}; "
            "the driver must preload it before scheduling trials"
        )
    return _PAYLOAD[1]


def run_campaign_trial(digest: str, trial_index: int, equivalence: str = "never"):
    """Execute one fault-injection trial against a preloaded payload and
    return its :class:`~repro.faults.campaign.TrialRun` (the result plus
    how the trial was settled).

    The payload is ``(config, warm)``: ``warm`` is the campaign's
    :class:`~repro.faults.warmstate.WarmState` under
    ``config.shared_warmup`` (built once by the parent, unpickled once
    per worker at preload time and forked per trial, so workers never
    re-simulate the shared warmup), None otherwise.  Runs the exact same
    :meth:`FaultCampaign._run_trial` as the sequential in-process path,
    so a campaign's per-trial outcomes do not depend on where (or in
    what order) its trials execute.
    """
    from ..faults.campaign import FaultCampaign

    config, warm = _cached_payload(digest)
    campaign = FaultCampaign(config, equivalence=equivalence)
    return campaign._run_trial(trial_index, warm=warm)
