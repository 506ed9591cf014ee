"""Command-line trace generator.

Writes a synthetic benchmark trace in the text format of
:mod:`repro.workloads.trace`::

    python -m repro.tools.gen_trace gcc --references 100000 -o gcc.trace
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..errors import ConfigurationError
from ..workloads import benchmark_names, make_workload, save_trace
from ._cli import fail, require_positive


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gen-trace",
        description="Generate a synthetic SPEC2000-like memory trace.",
    )
    parser.add_argument(
        "benchmark",
        choices=benchmark_names(),
        help="benchmark profile to generate",
    )
    parser.add_argument(
        "--references", "-n", type=int, default=100_000,
        help="number of memory references (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="generator seed (default: 0)"
    )
    parser.add_argument(
        "--output", "-o", default=None,
        help="output file (default: stdout)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        require_positive(references=args.references)
    except ConfigurationError as exc:
        return fail(f"invalid arguments: {exc}")
    records = make_workload(args.benchmark, seed=args.seed).records(args.references)
    if args.output is None:
        save_trace(records, sys.stdout)
        return 0
    try:
        fh = open(args.output, "w")
    except OSError as exc:
        return fail(f"invalid arguments: --output {args.output}: {exc.strerror}")
    with fh:
        written = save_trace(records, fh)
    print(f"wrote {written} records for {args.benchmark}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
