"""Command-line experiment runner: regenerate paper tables and figures.

::

    python -m repro.tools.run_experiment fig11 --references 60000
    python -m repro.tools.run_experiment all -n 200000 --output results/
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from ..errors import ConfigurationError
from ..harness import (
    figure10,
    figure11,
    figure12,
    run_all_benchmarks,
    table2,
    table3,
)
from ..harness.reporting import format_table
from ..reliability import (
    analytical_collision_probability,
    estimate_double_fault_failure_fast,
)
from ..workloads import benchmark_names
from ._cli import (
    add_obs_arguments,
    emit_metrics,
    fail,
    metrics_registry,
    open_sink,
    require_positive,
)

EXPERIMENTS = (
    "fig10", "fig11", "fig12", "table2", "table3", "table3mc", "all",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run-experiment",
        description="Regenerate one of the paper's tables/figures.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument(
        "--references", "-n", type=int, default=60_000,
        help="trace length per benchmark (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (default: 0)"
    )
    parser.add_argument(
        "--benchmarks", nargs="+", choices=benchmark_names(), default=None,
        help="subset of benchmarks (default: all fifteen)",
    )
    parser.add_argument(
        "--output", "-o", type=pathlib.Path, default=None,
        help="directory to archive the tables into (optional)",
    )
    parser.add_argument(
        "--mc-samples", type=int, default=200_000,
        help="fault-pair samples per geometry for the table3mc "
        "empirical collision table (default: %(default)s)",
    )
    add_obs_arguments(parser)
    return parser


def table3mc_text(samples: int = 200_000, seed: int = 0) -> str:
    """Empirical double-fault collision table (Table 3's core claim).

    One row per register-pair count: the ``1/(p*w)`` analytic collision
    probability next to the measured failure rate of the vectorized
    Monte-Carlo engine, its Wilson 95% interval, and the silent-
    miscorrection (aliasing) rate — which must vanish at eight pairs,
    where the pair partition makes same-way spatial mimicry impossible.
    """
    rows = []
    for num_pairs in (1, 2, 4, 8):
        estimate = estimate_double_fault_failure_fast(
            samples=samples, num_pairs=num_pairs, seed=seed
        )
        ci_low, ci_high = estimate.failure_rate_ci()
        rows.append(
            [
                num_pairs,
                analytical_collision_probability(8, num_pairs),
                estimate.failure_rate,
                f"[{ci_low:.4f}, {ci_high:.4f}]",
                estimate.sdc_rate,
            ]
        )
    return format_table(
        ["pairs", "analytic 1/(p*w)", "measured", "95% CI", "SDC rate"],
        rows,
        title=f"Empirical double-fault collision rate (n={samples})",
        precision=4,
    )


def _tables_for(experiment: str, runs) -> dict:
    tables = {}
    if experiment in ("fig10", "all"):
        tables["fig10"] = figure10(runs).to_text()
    if experiment in ("fig11", "all"):
        tables["fig11"] = figure11(runs).to_text()
    if experiment in ("fig12", "all"):
        tables["fig12"] = figure12(runs).to_text()
    if experiment in ("table2", "all"):
        tables["table2"] = table2(runs).to_text()
    if experiment in ("table3", "all"):
        t2 = table2(runs)
        measured = table3(
            l1_inputs=t2.reliability_inputs("L1"),
            l2_inputs=t2.reliability_inputs("L2"),
        )
        tables["table3"] = (
            table3().to_text()
            + "\n\n(with this run's measured Table 2 inputs)\n"
            + measured.to_text()
        )
    return tables


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        require_positive(references=args.references, mc_samples=args.mc_samples)
    except ConfigurationError as exc:
        return fail(f"invalid arguments: {exc}")
    if args.output is not None:
        try:
            args.output.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return fail(
                f"invalid arguments: --output {args.output}: {exc.strerror}"
            )
    registry = metrics_registry(args.emit_metrics)
    tables = {}
    if args.experiment == "table3mc":
        # Pure Monte-Carlo: no benchmark traces needed, so skip the
        # (much slower) full-suite simulation entirely.
        runs = []
    else:
        with open_sink(args.trace_out) as sink:
            runs = run_all_benchmarks(
                n_references=args.references, seed=args.seed,
                benchmarks=args.benchmarks, obs=sink,
            )
        if registry is not None:
            for run in runs:
                run.l1.export_metrics(registry, prefix=f"{run.name}.l1.")
                run.l2.export_metrics(registry, prefix=f"{run.name}.l2.")
                engine = (
                    f"engine.fallback.{run.fallback_reason}"
                    if run.fallback_reason
                    else f"engine.{run.engine}"
                )
                registry.counter(engine).inc()
        tables = _tables_for(args.experiment, runs)
    if args.experiment in ("table3mc", "all"):
        tables["table3mc"] = table3mc_text(args.mc_samples, args.seed)
    for name, text in tables.items():
        print(text)
        print()
        if args.output is not None:
            (args.output / f"{name}.txt").write_text(text + "\n")
    if args.output is not None:
        print(f"archived {len(tables)} table(s) under {args.output}",
              file=sys.stderr)
    emit_metrics(args.emit_metrics, registry)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
