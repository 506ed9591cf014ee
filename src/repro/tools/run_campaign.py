"""Command-line Monte-Carlo fault-injection campaign.

::

    python -m repro.tools.run_campaign cppc --trials 50 --fault spatial

Crash-safe mode: any of ``--jobs/--timeout/--retries/--checkpoint-dir/
--resume`` routes trials through :mod:`repro.runtime` — each trial runs
in a worker subprocess with a wall-clock timeout and retry/backoff, every
finished trial is checkpointed, and an interrupted campaign resumed with
``--resume`` reproduces the uninterrupted result bit-identically.

Chaos mode: ``--chaos [KINDS]`` injects seeded deterministic faults into
the runtime itself (worker kills, wedges, delays, checkpoint I/O errors)
to exercise the recovery machinery; ``--quarantine``,
``--adaptive-timeout``, and ``--heartbeat SECONDS`` enable the
graceful-degradation layer.  A degraded-but-complete campaign reports a
``degradation`` summary (and still exits 0 unless trials were
quarantined or abandoned).

Exit codes follow :mod:`repro.tools._cli`: 0 complete, 3 partial (some
trials abandoned after retries or quarantined), 1 fatal.
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Optional, Sequence

from ..errors import FORCED_EQUIVALENCE_MODES, ConfigurationError, ReproError
from ..faults import CampaignConfig, FaultCampaign, Outcome
from ..faults.schemes import SCHEMES, scheme_factory
from ..runtime import (
    CHAOS_KINDS,
    CampaignRuntime,
    ChaosPlan,
    RetryPolicy,
    export_degradation_metrics,
)
from ..workloads import benchmark_names
from ._cli import (
    add_json_argument,
    add_obs_arguments,
    emit_json,
    emit_metrics,
    fail,
    metrics_registry,
    open_sink,
    require_non_negative,
    require_positive,
    resolve_exit,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run-campaign",
        description="Monte-Carlo fault injection with outcome classification.",
    )
    parser.add_argument("scheme", choices=SCHEMES)
    parser.add_argument("--trials", "-t", type=int, default=30)
    parser.add_argument(
        "--benchmark", choices=benchmark_names(), default="gcc"
    )
    parser.add_argument(
        "--fault", choices=("temporal", "spatial"), default="temporal"
    )
    parser.add_argument(
        "--shape", type=int, nargs=2, default=(8, 8), metavar=("H", "W"),
        help="spatial strike extent (default: 8 8)",
    )
    parser.add_argument(
        "--level", choices=("L1D", "L2"), default="L1D",
        help="cache level to strike (default: L1D)",
    )
    parser.add_argument("--warmup", type=int, default=2000)
    parser.add_argument("--post", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--dirty-only", action="store_true",
        help="restrict temporal faults to dirty data",
    )
    parser.add_argument(
        "--fast", action=argparse.BooleanOptionalAction, default=False,
        help="snapshot-fork fast path: share one warmup across trials, "
             "simulate it once, and fork each trial from the snapshot "
             "(implies a shared warmup seed; bit-identical to running "
             "the same shared-warmup campaign trial by trial)",
    )
    parser.add_argument(
        "--fast-equivalence", choices=FORCED_EQUIVALENCE_MODES,
        default="never", metavar="MODE",
        help="with --fast, 'always' re-runs every trial on the legacy "
             "path and fails on any divergence (default: never)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="profile the campaign under cProfile and print the top 20 "
             "functions by cumulative time",
    )
    parser.add_argument(
        "--profile-out", default=None, metavar="FILE",
        help="also dump raw pstats data to FILE (implies --profile)",
    )
    runtime = parser.add_argument_group(
        "crash-safe runtime",
        "run trials in isolated worker subprocesses with timeout, retry, "
        "and resumable checkpoints",
    )
    runtime.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker subprocesses (default: in-process sequential loop)",
    )
    runtime.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-trial wall-clock budget; a wedged trial is killed and "
             "classified TRIAL_TIMEOUT",
    )
    runtime.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts for crashed/timed-out trials (default: 2)",
    )
    runtime.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="record every finished trial here (JSONL + manifest), "
             "keyed by config digest",
    )
    runtime.add_argument(
        "--resume", action="store_true",
        help="skip trials already recorded under --checkpoint-dir",
    )
    chaos = parser.add_argument_group(
        "chaos & graceful degradation",
        "inject deterministic faults into the runtime itself and degrade "
        "gracefully instead of failing the run",
    )
    chaos.add_argument(
        "--chaos", nargs="?", const="all", default=None, metavar="KINDS",
        help="inject seeded runtime faults; KINDS is 'all' or a "
             f"comma-list from {','.join(CHAOS_KINDS)} (implies the "
             "crash-safe runtime)",
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=None, metavar="N",
        help="seed of the chaos plan (default: --seed)",
    )
    chaos.add_argument(
        "--chaos-rate", type=float, default=0.25, metavar="P",
        help="probability a trial receives a fault (default: %(default)s)",
    )
    chaos.add_argument(
        "--quarantine", action="store_true",
        help="circuit breaker: a trial that exhausts its retries is "
             "quarantined (reported, exit 3) instead of failing the run "
             "outright",
    )
    chaos.add_argument(
        "--adaptive-timeout", action="store_true",
        help="tighten the per-trial deadline from completed-trial "
             "duration percentiles",
    )
    chaos.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="kill a worker whose heartbeat stalls this long "
             "(liveness, distinct from --timeout wall clock)",
    )
    add_json_argument(parser)
    add_obs_arguments(parser)
    return parser


def _wants_runtime(args) -> bool:
    return any(
        value is not None
        for value in (args.jobs, args.timeout, args.retries,
                      args.checkpoint_dir, args.chaos, args.heartbeat)
    ) or args.resume or args.quarantine or args.adaptive_timeout


def _validate_args(args) -> None:
    """Typed validation at the CLI boundary (before any work starts)."""
    require_positive(
        trials=args.trials,
        jobs=args.jobs,
        timeout=args.timeout,
        heartbeat=args.heartbeat,
    )
    require_non_negative(
        warmup=args.warmup,
        post=args.post,
        retries=args.retries,
        chaos_rate=args.chaos_rate,
    )
    if args.chaos_rate > 1.0:
        raise ConfigurationError(
            f"--chaos-rate must be within [0, 1], got {args.chaos_rate!r}"
        )


def _chaos_plan(args):
    if args.chaos is None:
        return None
    seed = args.chaos_seed if args.chaos_seed is not None else args.seed
    return ChaosPlan.from_spec(args.chaos, seed=seed, rate=args.chaos_rate)


def _summary_payload(args, result) -> dict:
    return {
        "scheme": args.scheme,
        "benchmark": args.benchmark,
        "fault": args.fault,
        "level": args.level,
        "seed": args.seed,
        "trials": result.config.trials,
        "completed": result.completed,
        "failed": result.failed,
        "counts": {o.value: result.counts[o] for o in Outcome},
        "rates": result.summary(),
        "failures": [dataclasses.asdict(f) for f in result.failures],
        "complete": result.complete,
        "degradation": result.degradation,
    }


def _print_profile(profiler, profile_out) -> None:
    import pstats

    stats = pstats.Stats(profiler)
    if profile_out is not None:
        stats.dump_stats(profile_out)
        print(f"profile data written to {profile_out}")
    stats.sort_stats("cumulative").print_stats(20)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    profiling = args.profile or args.profile_out is not None
    try:
        _validate_args(args)
        chaos = _chaos_plan(args)
        config = CampaignConfig(
            scheme_factory=scheme_factory(args.scheme),
            benchmark=args.benchmark,
            trials=args.trials,
            warmup_references=args.warmup,
            post_fault_references=args.post,
            fault_kind=args.fault,
            spatial_shape=tuple(args.shape),
            dirty_only=args.dirty_only,
            target_level=args.level,
            seed=args.seed,
            shared_warmup=args.fast,
        )
    except ConfigurationError as exc:
        return fail(f"invalid arguments: {exc}")
    registry = metrics_registry(args.emit_metrics)
    profiler = None
    if profiling:
        import cProfile

        profiler = cProfile.Profile()
    try:
        with open_sink(args.trace_out) as sink:
            campaign = FaultCampaign(
                config, obs=sink, fast=args.fast,
                fast_equivalence=args.fast_equivalence,
            )
            if profiler is not None:
                profiler.enable()
            try:
                if _wants_runtime(args):
                    retry = (
                        RetryPolicy(max_attempts=args.retries + 1)
                        if args.retries is not None
                        else RetryPolicy()
                    )
                    with CampaignRuntime(
                        jobs=args.jobs or 1,
                        timeout_s=args.timeout,
                        retry=retry,
                        checkpoint_dir=args.checkpoint_dir,
                        resume=args.resume,
                        chaos=chaos,
                        heartbeat_timeout_s=args.heartbeat,
                        adaptive_timeout=args.adaptive_timeout,
                        quarantine=args.quarantine,
                    ) as runtime:
                        result = campaign.run(runtime=runtime)
                else:
                    result = campaign.run()
            finally:
                if profiler is not None:
                    profiler.disable()
    except ReproError as exc:
        return fail(f"campaign failed: {exc}")
    if registry is not None:
        result.export_metrics(registry)
        if result.degradation is not None:
            export_degradation_metrics(registry, result.degradation)
        if args.fast:
            from ..faults.warmstate import warm_cache, warm_key

            warm_cache().export_metrics(registry, prefix="warm_cache")
            # Which engine simulated the shared warmup, and why a scalar
            # one ran (absent when a resumed run needed no warm state).
            warm = warm_cache().peek(warm_key(config))
            if warm is not None:
                registry.counter(f"engine.warm.{warm.warm_engine}").inc()
                if warm.warm_fallback is not None:
                    registry.counter(f"engine.warm.fallback.{warm.warm_fallback}").inc()
    if profiler is not None:
        _print_profile(profiler, args.profile_out)

    counts = result.counts
    print(f"scheme={args.scheme} benchmark={args.benchmark} "
          f"fault={args.fault} level={args.level} trials={args.trials}")
    for outcome in Outcome:
        print(f"{outcome.value:>10s}: {counts[outcome]:4d} "
              f"({result.rate(outcome):6.1%})")
    if result.failures:
        print(f"{'failed':>10s}: {result.failed:4d} "
              f"(abandoned after retries)")
        for failure in result.failures:
            print(f"            trial {failure.trial_index} "
                  f"[{failure.kind} x{failure.attempts}]: {failure.message}")
    degradation = result.degradation
    if degradation is not None and degradation.get("degraded"):
        executor_counts = degradation.get("executor", {})
        absorbed = " ".join(
            f"{key}={executor_counts.get(key, 0)}"
            for key in ("lane_kills", "timeouts", "heartbeat_kills",
                        "crashes", "quarantined")
            if executor_counts.get(key)
        )
        checkpoint = degradation.get("checkpoint", {})
        for key in ("io_retries", "torn_tail_dropped"):
            if checkpoint.get(key):
                absorbed += f" checkpoint_{key}={checkpoint[key]}"
        chaos_counts = executor_counts.get("chaos_injected") or {}
        injected = sum(chaos_counts.values())
        print(f"degraded: absorbed {absorbed.strip()}"
              + (f" (chaos injected: {injected})" if injected else ""))
        for entry in degradation.get("quarantined", ()):
            print(f"            quarantined trial {entry['trial']} "
                  f"[{entry.get('cause')} x{entry.get('attempts')}]")
    emit_json(args.json, _summary_payload(args, result))
    emit_metrics(args.emit_metrics, registry)
    return resolve_exit(partial=not result.complete)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
