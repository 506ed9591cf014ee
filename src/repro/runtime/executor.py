"""Fault-tolerant trial execution on subprocess workers.

:class:`TrialExecutor` runs picklable tasks on ``jobs`` independent
*lanes*.  Each lane owns a single-worker
:class:`~concurrent.futures.ProcessPoolExecutor` built on a ``spawn``
context, so killing a wedged trial never takes innocent neighbours with
it: on a per-trial wall-clock timeout the lane's worker is SIGKILLed,
the lane pool is rebuilt, and the trial is classified
:class:`~repro.errors.TrialTimeoutError`.  Crashes (worker exceptions,
dead processes) and timeouts are retried per :class:`RetryPolicy` with
deterministic, seed-derived backoff; a trial that exhausts its attempts
surfaces as a structured failure report instead of aborting the sweep.
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    CampaignRuntimeError,
    ConfigurationError,
    EquivalenceError,
    TrialCrashError,
    TrialTimeoutError,
)
from ..util.rng import split_seed
from . import worker as _worker
from .retry import RetryPolicy

WARMUP_TIMEOUT_S = 120.0


def _error_kind(error: CampaignRuntimeError) -> str:
    """Failure-kind classification shared with the campaign layer."""
    return "timeout" if isinstance(error, TrialTimeoutError) else "crash"


@dataclasses.dataclass(frozen=True)
class TrialTask:
    """One unit of work: a module-level function plus picklable args."""

    index: int
    seed: int
    fn: Callable
    args: Tuple = ()


@dataclasses.dataclass
class TaskReport:
    """What happened to one task after all attempts."""

    index: int
    seed: int
    attempts: int
    value: Any = None
    error: Optional[CampaignRuntimeError] = None

    @property
    def ok(self) -> bool:
        """True when the task produced a value."""
        return self.error is None


class _Lane:
    """One worker slot: a single-process pool that can be killed whole."""

    def __init__(self, mp_context, initargs: Sequence[str], preloads=None):
        self._mp_context = mp_context
        self._initargs = tuple(initargs)
        self._pool: Optional[ProcessPoolExecutor] = None
        # Snapshot of the executor's registered preloads (None for lanes
        # constructed directly in tests).
        self._preloads = preloads if preloads is not None else (lambda: ())
        self._applied: set = set()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=1,
                mp_context=self._mp_context,
                initializer=_worker.initialize_worker,
                initargs=(self._initargs,),
            )
            # Warm the worker so per-trial timeouts measure the trial,
            # not interpreter spawn + numpy import.
            self._pool.submit(_worker.noop).result(timeout=WARMUP_TIMEOUT_S)
        # Ship any preload this worker has not seen.  A killed lane's
        # replacement worker re-runs every preload because ``kill``
        # clears the applied set.
        for token, fn, args in self._preloads():
            if token in self._applied:
                continue
            self._pool.submit(fn, *args).result(timeout=WARMUP_TIMEOUT_S)
            self._applied.add(token)
        return self._pool

    def submit(self, fn: Callable, *args):
        return self._ensure_pool().submit(fn, *args)

    def kill(self) -> None:
        """SIGKILL the lane's worker and discard the pool."""
        pool, self._pool = self._pool, None
        self._applied.clear()
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):  # pragma: no cover - racing exit
                pass
        pool.shutdown(wait=True)

    def close(self) -> None:
        self.kill()


class TrialExecutor:
    """Runs tasks across isolated worker lanes with timeout and retry."""

    def __init__(
        self,
        *,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy()
        self._sleep = sleep
        self._mp_context = multiprocessing.get_context("spawn")
        self._initargs = _worker.package_sys_path()
        self._preloads: Dict[int, Tuple[Callable, Tuple]] = {}
        self._preload_token = 0
        self._lanes = [
            _Lane(self._mp_context, self._initargs, self._preload_snapshot)
            for _ in range(jobs)
        ]
        self._lock = threading.Lock()
        self._stop = False

    # ------------------------------------------------------------------
    def add_preload(self, fn: Callable, *args) -> int:
        """Register a call every worker runs before its first (next) task.

        Preloads seed per-worker caches with shared payloads — e.g. one
        campaign config shipped once per lane instead of once per trial.
        They run in registration order on each lane's worker at submit
        time, and re-run automatically on the fresh worker after a lane
        is killed (timeout, crash).  Returns a token for
        :meth:`remove_preload`.
        """
        with self._lock:
            self._preload_token += 1
            token = self._preload_token
            self._preloads[token] = (fn, tuple(args))
        return token

    def remove_preload(self, token: int) -> None:
        """Unregister a preload; workers that already ran it are untouched."""
        with self._lock:
            self._preloads.pop(token, None)

    def _preload_snapshot(self) -> List[Tuple[int, Callable, Tuple]]:
        with self._lock:
            return [(token, fn, args) for token, (fn, args) in self._preloads.items()]

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[TrialTask],
        on_report: Optional[Callable[[TaskReport], None]] = None,
    ) -> List[TaskReport]:
        """Execute every task; never raises for per-task failures.

        Reports come back ordered like ``tasks``.  ``on_report`` (if
        given) fires once per finished task, serialized under a lock, so
        callers can checkpoint results as they land.  The one exception
        is :class:`~repro.errors.EquivalenceError`: a task whose fast
        path disagreed with its reference is neither retried nor
        reported, and the error stops the sweep and propagates.
        """
        queue = collections.deque(tasks)
        reports: Dict[int, TaskReport] = {}
        loop_errors: List[BaseException] = []

        def lane_loop(lane: _Lane) -> None:
            try:
                while True:
                    with self._lock:
                        if self._stop or not queue:
                            return
                        task = queue.popleft()
                    report = self._run_task(lane, task)
                    with self._lock:
                        reports[task.index] = report
                        if on_report is not None:
                            on_report(report)
            except BaseException as exc:
                # A driver bug (e.g. the checkpoint callback failing)
                # must stop the sweep loudly, not strand queued trials.
                with self._lock:
                    loop_errors.append(exc)
                    self._stop = True

        active = self._lanes[: max(1, min(self.jobs, len(tasks)))]
        threads = [
            threading.Thread(target=lane_loop, args=(lane,), daemon=True)
            for lane in active
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        except KeyboardInterrupt:
            with self._lock:
                self._stop = True
            self.close()
            raise
        finally:
            with self._lock:
                self._stop = False
        if loop_errors:
            raise loop_errors[0]
        return [reports[task.index] for task in tasks if task.index in reports]

    def map(
        self,
        fn: Callable,
        argses: Sequence[Tuple],
        *,
        seed=0,
    ) -> List[Any]:
        """Apply ``fn`` to every argument tuple; raise on any failure.

        Convenience for sweeps whose rows are all required: retries still
        absorb transient crashes, but a task that exhausts its attempts
        re-raises its structured error here.
        """
        tasks = [
            TrialTask(index=i, seed=split_seed(seed, "map", i), fn=fn, args=tuple(a))
            for i, a in enumerate(argses)
        ]
        reports = self.run(tasks)
        for report in reports:
            if not report.ok:
                raise report.error
        return [report.value for report in reports]

    # ------------------------------------------------------------------
    def _run_task(self, lane: _Lane, task: TrialTask) -> TaskReport:
        last_error: Optional[CampaignRuntimeError] = None
        attempts = 0
        for attempt in range(1, self.retry.max_attempts + 1):
            with self._lock:
                if self._stop:
                    break
            attempts = attempt
            try:
                future = lane.submit(task.fn, *task.args)
            except Exception as exc:
                # Covers a broken pool and a worker that cannot even warm
                # up — either way the lane is rebuilt before the retry.
                lane.kill()
                last_error = self._crash(task, attempt, exc)
            else:
                try:
                    value = future.result(timeout=self.timeout_s)
                    return TaskReport(
                        index=task.index,
                        seed=task.seed,
                        attempts=attempt,
                        value=value,
                    )
                except FutureTimeoutError:
                    lane.kill()
                    last_error = TrialTimeoutError(
                        f"trial {task.index} exceeded {self.timeout_s:g}s "
                        f"wall clock (attempt {attempt}/"
                        f"{self.retry.max_attempts}); worker killed",
                        trial_index=task.index,
                        seed=task.seed,
                        timeout_s=self.timeout_s,
                    )
                except BrokenExecutor as exc:
                    lane.kill()
                    last_error = self._crash(task, attempt, exc)
                except CampaignRuntimeError as exc:
                    last_error = exc
                except EquivalenceError:
                    # A fast path disagreeing with its reference is a
                    # verdict, not a crash: retrying cannot change it.
                    raise
                except Exception as exc:
                    last_error = self._crash(task, attempt, exc)
            if attempt < self.retry.max_attempts:
                self._sleep(self.retry.backoff_s(attempt, task.seed))
        return TaskReport(
            index=task.index,
            seed=task.seed,
            attempts=attempts,
            error=last_error,
        )

    def _crash(self, task: TrialTask, attempt: int, exc) -> TrialCrashError:
        return TrialCrashError(
            f"trial {task.index} crashed on attempt {attempt}/"
            f"{self.retry.max_attempts}: {type(exc).__name__}: {exc}",
            trial_index=task.index,
            seed=task.seed,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Kill every lane's worker and release the pools."""
        for lane in self._lanes:
            lane.close()

    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
