"""Command-line Monte-Carlo fault-injection campaign.

::

    python -m repro.tools.run_campaign cppc --trials 50 --fault spatial

Crash-safe mode: any of ``--jobs/--timeout/--retries/--checkpoint-dir/
--resume`` routes trials through :mod:`repro.runtime` — each trial runs
in a worker subprocess with a wall-clock timeout and retry/backoff, every
finished trial is checkpointed, and an interrupted campaign resumed with
``--resume`` reproduces the uninterrupted result bit-identically.

Exit codes follow :mod:`repro.tools._cli`: 0 complete, 3 partial (some
trials abandoned after retries), 1 fatal.
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Optional, Sequence

from ..errors import FORCED_EQUIVALENCE_MODES, ConfigurationError, ReproError
from ..faults import CampaignConfig, FaultCampaign, Outcome
from ..faults.schemes import SCHEMES, scheme_factory
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
    parser.add_argument("--benchmark", choices=benchmark_names(), default="gcc")
    parser.add_argument("--fault", choices=("temporal", "spatial"), default="temporal")
    parser.add_argument(
        "--shape",
        type=int,
        nargs=2,
        default=(8, 8),
        metavar=("H", "W"),
        help="spatial strike extent (default: 8 8)",
    )
    parser.add_argument(
        "--level",
        choices=("L1D", "L2"),
        default="L1D",
        help="cache level to strike (default: L1D)",
    )
    parser.add_argument("--warmup", type=int, default=2000)
    parser.add_argument("--post", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--dirty-only",
        action="store_true",
        help="restrict temporal faults to dirty data",
    )
    parser.add_argument(
        "--fast",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="share one warmup trace across trials; the warmup is then "
        "simulated once and each trial forks from its snapshot "
        "(bit-identical to running the same shared-warmup campaign "
        "trial by trial)",
    )
    parser.add_argument(
        "--fast-equivalence",
        choices=FORCED_EQUIVALENCE_MODES,
        default="never",
        metavar="MODE",
        help="with --fast, 'always' re-runs every trial on the legacy "
        "path and fails on any divergence (default: never)",
    )
    runtime = parser.add_argument_group(
        "crash-safe runtime",
        "run trials in isolated worker subprocesses with timeout, retry, "
        "and resumable checkpoints",
    )
    runtime.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="worker subprocesses (default: in-process sequential loop)",
    )
    runtime.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-trial wall-clock budget; a wedged trial is killed and "
        "classified TRIAL_TIMEOUT",
    )
    runtime.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts for crashed/timed-out trials (default: 2)",
    )
    runtime.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="record every finished trial here (JSONL + manifest), "
        "keyed by config digest",
    )
    runtime.add_argument(
        "--resume",
        action="store_true",
        help="skip trials already recorded under --checkpoint-dir",
    )
    add_json_argument(parser)
    add_obs_arguments(parser)
    return parser


def _wants_runtime(args) -> bool:
    return any(
        value is not None
        for value in (args.jobs, args.timeout, args.retries, args.checkpoint_dir)
    ) or args.resume


def _validate_args(args) -> None:
    """Typed validation at the CLI boundary (before any work starts)."""
    require_positive(trials=args.trials, jobs=args.jobs, timeout=args.timeout)
    require_non_negative(warmup=args.warmup, post=args.post, retries=args.retries)
    if args.fast_equivalence == "always" and not args.fast:
        raise ConfigurationError(
            "--fast-equivalence always needs --fast: without a shared "
            "warmup every trial already runs the legacy path"
        )


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
        "settled": dict(result.settled),
        "replayed_references": result.replayed_references,
        "flushed": result.flushed,
        "failures": [dataclasses.asdict(f) for f in result.failures],
        "complete": result.complete,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate_args(args)
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
    try:
        with open_sink(args.trace_out) as sink:
            campaign = FaultCampaign(
                config, obs=sink, equivalence=args.fast_equivalence
            )
            if _wants_runtime(args):
                from ..runtime import CampaignRuntime, RetryPolicy

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
                ) as runtime:
                    result = campaign.run(runtime=runtime)
            else:
                result = campaign.run()
    except ReproError as exc:
        return fail(f"campaign failed: {exc}")
    if registry is not None:
        result.export_metrics(registry)
        # Which engine simulated the shared warmup, and why a scalar one
        # ran (absent when the run built no warm state).
        if result.warm_engine is not None:
            registry.counter(f"engine.warm.{result.warm_engine}").inc()
        if result.warm_fallback is not None:
            registry.counter(f"engine.warm.fallback.{result.warm_fallback}").inc()

    counts = result.counts
    print(
        f"scheme={args.scheme} benchmark={args.benchmark} "
        f"fault={args.fault} level={args.level} trials={args.trials}"
    )
    for outcome in Outcome:
        print(
            f"{outcome.value:>10s}: {counts[outcome]:4d} ({result.rate(outcome):6.1%})"
        )
    if result.failures:
        print(f"{'failed':>10s}: {result.failed:4d} (abandoned after retries)")
        for failure in result.failures:
            print(
                f"            trial {failure.trial_index} "
                f"[{failure.kind} x{failure.attempts}]: {failure.message}"
            )
    emit_json(args.json, _summary_payload(args, result))
    emit_metrics(args.emit_metrics, registry)
    return resolve_exit(partial=not result.complete)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
