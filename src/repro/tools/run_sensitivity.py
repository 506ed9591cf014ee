"""Command-line sensitivity sweeps.

::

    python -m repro.tools.run_sensitivity interleaving
    python -m repro.tools.run_sensitivity l1-size -n 20000 --jobs 4

Exit codes follow :mod:`repro.tools._cli`: 0 complete, 3 when some
sweeps failed but others produced rows (partial), 1 fatal.  ``--jobs``
runs simulation-backed sweep rows on the crash-safe
:mod:`repro.runtime` worker lanes.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from ..errors import ConfigurationError, ReproError
from ..harness import sweep_interleaving, sweep_l1_size, sweep_seu_rate
from ..runtime import CampaignRuntime, RetryPolicy
from ..workloads import benchmark_names
from ._cli import (
    add_json_argument,
    emit_json,
    fail,
    require_non_negative,
    require_positive,
    resolve_exit,
)

SWEEPS = ("l1-size", "seu-rate", "interleaving", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run-sensitivity",
        description="Sensitivity sweeps around the paper's design point.",
    )
    parser.add_argument("sweep", choices=SWEEPS)
    parser.add_argument(
        "--references",
        "-n",
        type=int,
        default=20_000,
        help="trace length for simulation-backed sweeps (default: %(default)s)",
    )
    parser.add_argument(
        "--benchmark",
        choices=benchmark_names(),
        default="gcc",
        help="workload for the L1-size sweep (default: gcc)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="run simulation-backed sweep rows on N worker subprocesses",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-row wall-clock budget when --jobs is given",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts for crashed/timed-out rows when --jobs is "
        "given (default: 2)",
    )
    add_json_argument(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        require_positive(
            references=args.references, jobs=args.jobs, timeout=args.timeout
        )
        require_non_negative(retries=args.retries)
    except ConfigurationError as exc:
        return fail(f"invalid arguments: {exc}")
    selected = []
    if args.sweep in ("l1-size", "all"):
        selected.append(
            (
                "l1-size",
                lambda runtime: sweep_l1_size(
                    benchmark=args.benchmark,
                    n_references=args.references,
                    runtime=runtime,
                ),
            )
        )
    if args.sweep in ("seu-rate", "all"):
        selected.append(("seu-rate", lambda runtime: sweep_seu_rate()))
    if args.sweep in ("interleaving", "all"):
        selected.append(("interleaving", lambda runtime: sweep_interleaving()))

    retry = (
        RetryPolicy(max_attempts=args.retries + 1)
        if args.retries is not None
        else RetryPolicy()
    )
    runtime = (
        CampaignRuntime(jobs=args.jobs, timeout_s=args.timeout, retry=retry)
        if args.jobs is not None
        else None
    )
    results, errors = {}, {}
    try:
        for name, sweep in selected:
            try:
                result = sweep(runtime)
            except ReproError as exc:
                errors[name] = str(exc)
                print(f"sweep {name} failed: {exc}")
            else:
                results[name] = result
                print(result.to_text())
            print()
    finally:
        if runtime is not None:
            runtime.close()

    emit_json(
        args.json,
        {
            "sweeps": {
                name: {"headers": r.headers, "rows": r.rows, "title": r.title}
                for name, r in results.items()
            },
            "errors": errors,
        },
    )
    if not results:
        return fail("every requested sweep failed")
    return resolve_exit(partial=bool(errors))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
