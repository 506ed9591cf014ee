"""Shared CLI conventions for the ``repro.tools`` entry points.

Exit codes (uniform across ``run_campaign``, ``run_scorecard``,
``run_sensitivity``, ``run_bench``, ``run_fuzz``; ``run_experiment``
and ``gen_trace`` use the first two):

* ``EXIT_OK`` (0) — everything ran and every result is complete.
* ``EXIT_FATAL`` (1) — the run could not produce usable results
  (equivalence violations, undetected seeded bugs, crashes).
* ``EXIT_PARTIAL`` (3) — results exist but are partial or have
  explicit failures (abandoned trials, failing scorecard claims,
  failed bench ratio gates, fuzz divergences).

``--json`` support: every tool that accepts it emits one
machine-readable summary object via :func:`emit_json` — to stdout with
``--json``, or to a file with ``--json PATH``.

Observability (:mod:`repro.obs`) flags: :func:`add_obs_arguments`
installs ``--trace-out PATH`` (event trace: ``.jsonl`` for the
checksummed line format, ``.json`` for a chrome://tracing file) and
``--emit-metrics [PATH]`` (the shared
:class:`~repro.obs.MetricsRegistry` snapshot schema);
:func:`open_sink` turns the former into a live sink.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from ..errors import ConfigurationError
from ..obs import MetricsRegistry, TraceSink, make_sink

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 3


def add_json_argument(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``--json [PATH]`` flag on ``parser``."""
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit a machine-readable JSON summary (to stdout, or to PATH)",
    )


def add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared observability flags on ``parser``."""
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write an event trace (.jsonl = checksummed lines, "
        ".json = chrome://tracing)",
    )
    parser.add_argument(
        "--emit-metrics",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit the metrics-registry snapshot as JSON "
        "(to stdout, or to PATH)",
    )


def open_sink(trace_out: Optional[str]) -> TraceSink:
    """Sink for ``--trace-out`` (a NullSink when the flag is absent)."""
    return make_sink(trace_out)


def metrics_registry(emit_metrics: Optional[str]) -> Optional[MetricsRegistry]:
    """A registry when ``--emit-metrics`` was given, else None."""
    return MetricsRegistry() if emit_metrics is not None else None


def emit_metrics(
    destination: Optional[str], registry: Optional[MetricsRegistry]
) -> None:
    """Write the registry snapshot per the ``--emit-metrics`` flag."""
    if registry is not None:
        emit_json(destination, registry.snapshot())


def emit_json(destination: Optional[str], payload: dict) -> None:
    """Write ``payload`` as JSON to stdout (``-``) or a file; no-op if
    ``destination`` is None (flag not given)."""
    if destination is None:
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
    if destination == "-":
        print(text)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def resolve_exit(*, fatal: bool = False, partial: bool = False) -> int:
    """Map an outcome onto the shared exit-code convention."""
    if fatal:
        return EXIT_FATAL
    if partial:
        return EXIT_PARTIAL
    return EXIT_OK


def fail(message: str) -> int:
    """Print ``message`` to stderr and return ``EXIT_FATAL``."""
    print(message, file=sys.stderr)
    return EXIT_FATAL


# ----------------------------------------------------------------------
# Argument validation at the CLI boundary
#
# Tools validate numeric flags here, before any config or runtime object
# is built, so a bad ``--timeout`` fails with a typed
# ConfigurationError and exit 1 instead of a traceback from deep inside
# TrialExecutor half a campaign later.  ``flag`` names are spelled the
# way the user typed them (``--retries``), values of None (flag not
# given) pass through untouched.
# ----------------------------------------------------------------------
def require_positive(**flags) -> None:
    """Raise :class:`ConfigurationError` for any value <= 0.

    Keyword names are flag names with underscores (``timeout``,
    ``mc_samples``); the message renders them with dashes.
    """
    for name, value in flags.items():
        if value is not None and value <= 0:
            raise ConfigurationError(
                f"--{name.replace('_', '-')} must be positive, "
                f"got {value!r}"
            )


def require_non_negative(**flags) -> None:
    """Raise :class:`ConfigurationError` for any value < 0."""
    for name, value in flags.items():
        if value is not None and value < 0:
            raise ConfigurationError(
                f"--{name.replace('_', '-')} must be >= 0, got {value!r}"
            )
