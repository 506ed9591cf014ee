"""Experiment harness: one runner per paper table/figure plus reporting."""

from .experiments import (
    DEFAULT_REFERENCES,
    FIG10_SCHEMES,
    PAPER_TABLE2_L1,
    PAPER_TABLE2_L2,
    BenchmarkRun,
    EnergyFigureResult,
    Figure10Result,
    Table2Result,
    Table3Result,
    figure10,
    figure11,
    figure12,
    run_all_benchmarks,
    run_benchmark,
    run_benchmark_scalar,
    table2,
    table3,
)
from .figures import bar_chart
from .reporting import format_table, format_value
from .resilience import ResilienceMatrix, resilience_matrix, scheme_factory
from .scorecard import Claim, Scorecard, scorecard
from .sensitivity import (
    SweepResult,
    sweep_interleaving,
    sweep_l1_size,
    sweep_seu_rate,
)

__all__ = [
    "DEFAULT_REFERENCES",
    "FIG10_SCHEMES",
    "PAPER_TABLE2_L1",
    "PAPER_TABLE2_L2",
    "BenchmarkRun",
    "EnergyFigureResult",
    "Figure10Result",
    "Table2Result",
    "Table3Result",
    "figure10",
    "figure11",
    "figure12",
    "run_all_benchmarks",
    "run_benchmark",
    "run_benchmark_scalar",
    "table2",
    "table3",
    "format_table",
    "format_value",
    "bar_chart",
    "SweepResult",
    "sweep_interleaving",
    "sweep_l1_size",
    "sweep_seu_rate",
    "ResilienceMatrix",
    "resilience_matrix",
    "scheme_factory",
    "Claim",
    "Scorecard",
    "scorecard",
]
