"""Chaos-drill matrix: prove the runtime degrades gracefully end-to-end.

::

    python -m repro.tools.run_resilience_smoke --trials 8
    python -m repro.tools.run_resilience_smoke --drill all

Each ``--drill`` is one end-to-end recovery proof (the CI chaos-drill
job runs them as a matrix):

* ``kill`` (default) — SIGKILL a checkpointed child campaign mid-run,
  resume with ``--resume``, assert the resumed result is bit-identical
  to an uninterrupted reference and that the kill interrupted real work.
* ``wedge`` — every trial wedges on its first attempt
  (:class:`~repro.runtime.ChaosPlan`), the wall-clock timeout kills the
  lane, the retry succeeds; assert bit-identity to a chaos-free
  sequential baseline plus a degradation report that owns up to the
  timeouts.
* ``torn-checkpoint`` — tear the final checkpoint record mid-line (a
  crash between ``write`` and ``fsync``), resume; assert the loader
  drops the torn tail with a :class:`~repro.errors.CheckpointWarning`,
  re-executes that trial, and reproduces the reference bit-identically.
* ``enospc`` — every checkpoint append hits an injected ``ENOSPC``
  once; assert the appender's truncate-and-retry absorbs all of them
  (``io_retries`` counted in the degradation report) and the result
  matches the baseline.
* ``overhead`` — ratio gate: interleaved best-of timing of the runtime
  with the whole resilience stack armed-but-idle (heartbeat, adaptive
  deadlines, quarantine, chaos at rate 0) against the plain runtime;
  fails (exit 3) when the idle machinery costs more than
  ``--max-chaos-overhead``.
* ``all`` — every drill above, worst exit code wins.

Exit codes follow :mod:`repro.tools._cli`: 0 all drills pass, 3 a ratio
gate failed, 1 any recovery proof failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import Optional, Sequence

from ..errors import CheckpointWarning
from ..faults import CampaignConfig, FaultCampaign, scheme_factory, trial_mismatches
from ..runtime import CampaignRuntime, ChaosPlan, RetryPolicy, campaign_digest
from ._cli import (
    EXIT_FATAL,
    EXIT_OK,
    EXIT_PARTIAL,
    add_obs_arguments,
    emit_metrics,
    fail,
    metrics_registry,
    open_sink,
)

DRILLS = ("kill", "wedge", "torn-checkpoint", "enospc", "overhead", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run-resilience-smoke",
        description="Chaos-drill matrix: inject runtime faults end-to-end "
        "and prove recovery reproduces the undisturbed result.",
    )
    parser.add_argument(
        "--drill", choices=DRILLS, default="kill",
        help="which recovery proof to run (default: %(default)s)",
    )
    parser.add_argument("--scheme", default="parity")
    parser.add_argument("--benchmark", default="gzip")
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--warmup", type=int, default=800)
    parser.add_argument("--post", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed of the injected chaos plans (default: %(default)s)",
    )
    parser.add_argument(
        "--workdir", default=None,
        help="scratch directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--kill-after-records", type=int, default=1,
        help="kill drill: SIGKILL once this many trials are durable",
    )
    parser.add_argument(
        "--max-chaos-overhead", type=float, default=1.5, metavar="RATIO",
        help="overhead drill: fail when idle resilience machinery costs "
        "more than this ratio over the plain runtime "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="overhead drill: interleaved best-of repetitions "
        "(default: %(default)s)",
    )
    add_obs_arguments(parser)
    return parser


def _campaign_args(args, checkpoint_dir: Path) -> list:
    return [
        sys.executable, "-m", "repro.tools.run_campaign", args.scheme,
        "--benchmark", args.benchmark,
        "--trials", str(args.trials),
        "--warmup", str(args.warmup),
        "--post", str(args.post),
        "--seed", str(args.seed),
        "--dirty-only",
        "--jobs", "1",
        "--checkpoint-dir", str(checkpoint_dir),
    ]


def _count_records(log_path: Path) -> int:
    if not log_path.exists():
        return 0
    return sum(1 for line in log_path.read_text().splitlines() if line)


def _config(args) -> CampaignConfig:
    return CampaignConfig(
        scheme_factory=scheme_factory(args.scheme),
        benchmark=args.benchmark,
        trials=args.trials,
        warmup_references=args.warmup,
        post_fault_references=args.post,
        dirty_only=True,
        seed=args.seed,
    )


def _check_equivalence(name: str, reference, survived) -> Optional[int]:
    """Exit code when ``survived`` diverges from ``reference``, else None."""
    problems = trial_mismatches(
        survived.trials, reference.trials, names=(name, "reference")
    )
    if problems:
        return fail(
            f"{name}: per-trial outcomes diverged from reference "
            f"({len(problems)} mismatch(es), first: {problems[0]})"
        )
    if survived.summary() != reference.summary():
        return fail(f"{name}: summary diverged from reference")
    if survived.failures or not survived.complete:
        return fail(f"{name}: campaign did not complete cleanly")
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    registry = metrics_registry(args.emit_metrics)
    drills = (
        ("kill", "wedge", "torn-checkpoint", "enospc", "overhead")
        if args.drill == "all"
        else (args.drill,)
    )
    statuses = {}
    with open_sink(args.trace_out) as sink:
        for drill in drills:
            runner = _DRILL_RUNNERS[drill]
            started = time.monotonic()
            status = runner(args, sink, registry)
            elapsed = time.monotonic() - started
            statuses[drill] = status
            print(f"drill {drill}: "
                  f"{'ok' if status == EXIT_OK else f'FAILED ({status})'} "
                  f"[{elapsed:.1f}s]")
    emit_metrics(args.emit_metrics, registry)
    if any(status == EXIT_FATAL for status in statuses.values()):
        return EXIT_FATAL
    if any(status == EXIT_PARTIAL for status in statuses.values()):
        return EXIT_PARTIAL
    return EXIT_OK


def _workdir(args, drill: str) -> Path:
    base = Path(args.workdir or tempfile.mkdtemp(prefix="repro-smoke-"))
    workdir = base / drill
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


# ----------------------------------------------------------------------
# kill: SIGKILL a child campaign mid-run, resume, compare.
# ----------------------------------------------------------------------
def _drill_kill(args, sink, registry) -> int:
    workdir = _workdir(args, "kill")
    config = _config(args)
    digest = campaign_digest(config)

    # 1. Uninterrupted reference run.
    with CampaignRuntime(
        jobs=1, checkpoint_dir=workdir / "reference"
    ) as runtime:
        reference = FaultCampaign(config, obs=sink).run(runtime=runtime)
    if not reference.complete:
        return fail("reference campaign did not complete")
    print(f"reference summary: {reference.summary()}")

    # 2. Launch the same campaign as a child process and SIGKILL it once
    #    at least --kill-after-records trials are durable.
    interrupted_dir = workdir / "interrupted"
    log_path = interrupted_dir / digest[:16] / "trials.jsonl"
    child = subprocess.Popen(
        _campaign_args(args, interrupted_dir),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=os.environ.copy(),
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if _count_records(log_path) >= args.kill_after_records:
                break
            if child.poll() is not None:
                break
            time.sleep(0.05)
        if child.poll() is not None:
            return fail(
                "campaign finished before it could be killed; increase "
                "--trials or workload size"
            )
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:  # pragma: no cover - cleanup path
            child.kill()
            child.wait(timeout=30)

    recorded = _count_records(log_path)
    print(f"killed child after {recorded} durable trial(s)")
    if sink.enabled:
        sink.emit(
            "smoke", "killed",
            {"durable_trials": recorded, "configured_trials": args.trials},
        )
    if recorded >= args.trials:
        return fail("kill landed too late: every trial was already recorded")

    # 3. Resume.
    with CampaignRuntime(
        jobs=1, checkpoint_dir=interrupted_dir, resume=True
    ) as runtime:
        resumed = FaultCampaign(config, obs=sink).run(runtime=runtime)

    # 4. Bit-identical equivalence: same per-trial outcomes, same rates.
    status = _check_equivalence("kill", reference, resumed)
    if status is not None:
        return status
    print("resume matches uninterrupted reference: "
          + json.dumps(resumed.summary(), sort_keys=True))
    if registry is not None:
        resumed.export_metrics(registry)
    return EXIT_OK


# ----------------------------------------------------------------------
# wedge: every trial stalls past the deadline once, retries recover.
# ----------------------------------------------------------------------
def _drill_wedge(args, sink, registry) -> int:
    config = _config(args)
    reference = FaultCampaign(config, obs=sink).run()

    plan = ChaosPlan(
        seed=args.chaos_seed, kinds=("wedge",), rate=1.0, wedge_s=30.0
    )
    with CampaignRuntime(
        jobs=1,
        timeout_s=1.0,
        retry=RetryPolicy(max_attempts=3),
        chaos=plan,
    ) as runtime:
        survived = FaultCampaign(config, obs=sink).run(runtime=runtime)

    status = _check_equivalence("wedge", reference, survived)
    if status is not None:
        return status
    degradation = survived.degradation or {}
    executor = degradation.get("executor", {})
    if executor.get("timeouts", 0) < 1:
        return fail("wedge: no timeout was absorbed — chaos did not fire")
    if executor.get("chaos_injected", {}).get("wedge", 0) < args.trials:
        return fail("wedge: fewer injections than trials")
    print(f"wedge: absorbed {executor['timeouts']} timeout(s), "
          "result bit-identical to chaos-free baseline")
    return EXIT_OK


# ----------------------------------------------------------------------
# torn-checkpoint: tear the final record mid-line, resume, compare.
# ----------------------------------------------------------------------
def _drill_torn_checkpoint(args, sink, registry) -> int:
    workdir = _workdir(args, "torn")
    config = _config(args)
    digest = campaign_digest(config)

    with CampaignRuntime(jobs=1, checkpoint_dir=workdir) as runtime:
        reference = FaultCampaign(config, obs=sink).run(runtime=runtime)
    if not reference.complete:
        return fail("torn-checkpoint: reference campaign did not complete")

    log_path = workdir / digest[:16] / "trials.jsonl"
    data = log_path.read_bytes().rstrip(b"\n")
    cut = data.rfind(b"\n")
    last_line = data[cut + 1:]
    kept = max(1, len(last_line) // 2)
    log_path.write_bytes(data[:cut + 1] + last_line[:kept])
    print(f"tore final checkpoint record ({len(last_line) - kept} bytes lost)")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with CampaignRuntime(
            jobs=1, checkpoint_dir=workdir, resume=True
        ) as runtime:
            resumed = FaultCampaign(config, obs=sink).run(runtime=runtime)
    torn_warnings = [
        w for w in caught if issubclass(w.category, CheckpointWarning)
    ]
    if not torn_warnings:
        return fail("torn-checkpoint: loader did not warn about the tear")

    status = _check_equivalence("torn-checkpoint", reference, resumed)
    if status is not None:
        return status
    print("torn tail dropped with a warning; resume matches reference")
    return EXIT_OK


# ----------------------------------------------------------------------
# enospc: every checkpoint append fails once, rollback-and-retry heals.
# ----------------------------------------------------------------------
def _drill_enospc(args, sink, registry) -> int:
    workdir = _workdir(args, "enospc")
    config = _config(args)
    reference = FaultCampaign(config, obs=sink).run()

    plan = ChaosPlan(seed=args.chaos_seed, kinds=("enospc",), rate=1.0)
    with CampaignRuntime(
        jobs=1, checkpoint_dir=workdir, chaos=plan
    ) as runtime:
        survived = FaultCampaign(config, obs=sink).run(runtime=runtime)

    status = _check_equivalence("enospc", reference, survived)
    if status is not None:
        return status
    degradation = survived.degradation or {}
    io_retries = degradation.get("checkpoint", {}).get("io_retries", 0)
    if io_retries < 1:
        return fail("enospc: no I/O retry was absorbed — chaos did not fire")
    print(f"enospc: absorbed {io_retries} checkpoint I/O retries, "
          "result bit-identical to chaos-free baseline")
    return EXIT_OK


# ----------------------------------------------------------------------
# overhead: armed-but-idle resilience machinery must be ~free.
# ----------------------------------------------------------------------
def _drill_overhead(args, sink, registry) -> int:
    config = _config(args)

    def run_plain() -> float:
        started = time.perf_counter()
        with CampaignRuntime(jobs=1) as runtime:
            FaultCampaign(config).run(runtime=runtime)
        return time.perf_counter() - started

    def run_armed() -> float:
        started = time.perf_counter()
        with CampaignRuntime(
            jobs=1,
            timeout_s=120.0,
            chaos=ChaosPlan(seed=args.chaos_seed, rate=0.0),
            heartbeat_timeout_s=5.0,
            adaptive_timeout=True,
            quarantine=True,
        ) as runtime:
            FaultCampaign(config).run(runtime=runtime)
        return time.perf_counter() - started

    # Interleaved best-of: pairs alternate so drift (page cache, turbo)
    # hits both sides equally; best-of discards scheduler noise.
    plain_times, armed_times = [], []
    for _ in range(args.repeats):
        plain_times.append(run_plain())
        armed_times.append(run_armed())
    best_plain, best_armed = min(plain_times), min(armed_times)
    ratio = best_armed / best_plain if best_plain > 0 else float("inf")
    print(f"overhead: plain {best_plain:.3f}s, armed-idle {best_armed:.3f}s, "
          f"ratio {ratio:.2f} (gate {args.max_chaos_overhead:.2f})")
    if ratio > args.max_chaos_overhead:
        print(
            f"overhead gate failed: {ratio:.2f} > "
            f"{args.max_chaos_overhead:.2f}",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return EXIT_OK


_DRILL_RUNNERS = {
    "kill": _drill_kill,
    "wedge": _drill_wedge,
    "torn-checkpoint": _drill_torn_checkpoint,
    "enospc": _drill_enospc,
    "overhead": _drill_overhead,
}


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
