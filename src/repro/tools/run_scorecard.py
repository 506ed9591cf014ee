"""Command-line paper scorecard.

::

    python -m repro.tools.run_scorecard -n 20000

Exit codes follow :mod:`repro.tools._cli`: 0 when every claim holds,
3 when the scorecard ran but some claims fail (partial), 1 on fatal
errors.  ``--json`` emits the graded claims machine-readably.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..errors import ConfigurationError, ReproError
from ..harness.scorecard import scorecard
from ._cli import (
    add_json_argument,
    emit_json,
    fail,
    require_positive,
    resolve_exit,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run-scorecard",
        description="Grade every reproduced paper claim in one run.",
    )
    parser.add_argument(
        "--references",
        "-n",
        type=int,
        default=20_000,
        help="trace length per benchmark (default: %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=0)
    add_json_argument(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        require_positive(references=args.references)
    except ConfigurationError as exc:
        return fail(f"invalid arguments: {exc}")
    try:
        card = scorecard(n_references=args.references, seed=args.seed)
    except ReproError as exc:
        return fail(f"scorecard failed: {exc}")
    print(card.to_text())
    emit_json(
        args.json,
        {
            "references": args.references,
            "seed": args.seed,
            "passed": card.passed,
            "pass_count": card.pass_count,
            "claim_count": len(card.claims),
            "claims": [
                {
                    "section": c.section,
                    "statement": c.statement,
                    "expected": c.expected,
                    "measured": c.measured,
                    "passed": c.passed,
                }
                for c in card.claims
            ],
        },
    )
    if not card.passed:
        print("scorecard has failing claims", file=sys.stderr)
    return resolve_exit(partial=not card.passed)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
