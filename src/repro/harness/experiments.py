"""Experiment runners: one per table/figure of the paper's evaluation.

Every runner follows the paper's simulate-once methodology: each
benchmark's trace is replayed one time on an unprotected hierarchy to
collect operation counts and timing events (:class:`BenchmarkRun`), and
the per-scheme models — timing policies for Figure 10, energy accounting
for Figures 11/12, MTTF for Table 3 — are evaluated on those shared
counts.

All runners take ``n_references`` so tests can run tiny and the benchmark
harness can run at scale.
"""

from __future__ import annotations

import dataclasses
import itertools
import statistics
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..energy import SCHEMES, normalized_energies
from ..errors import ConfigurationError
from ..memsim.hierarchy import PAPER_CONFIG, HierarchyConfig, MemoryHierarchy
from ..memsim.stats import CacheStats
from ..reliability import (
    ReliabilityInputs,
    mttf_aliasing_years,
    mttf_cppc_years,
    mttf_parity_years,
    mttf_secded_years,
)
from ..timing import (
    AccessEvent,
    TimingConfig,
    collect_events,
    time_events,
    timing_policy,
)
from ..timing import fast as timing_fast
from ..workloads import TraceRecord, benchmark_names, make_workload
from .reporting import format_table

#: Default trace length for full experiment runs (kept SimPoint-like in
#: spirit but laptop-sized; tests pass much smaller values).
DEFAULT_REFERENCES = 200_000


@dataclasses.dataclass
class BenchmarkRun:
    """One benchmark's shared simulation products.

    ``events`` is an :class:`~repro.timing.fast.EventColumns` from the
    batch engine or a plain ``AccessEvent`` list from the scalar
    collector; both iterate as the same event tuples.  ``engine`` names
    the collector that ran (``"batch"`` or ``"scalar"``), and
    ``fallback_reason`` why :func:`run_benchmark` left the batch engine
    (``None`` when it did not).
    """

    name: str
    references: int
    l1: CacheStats
    l2: CacheStats
    events: Sequence[AccessEvent]
    units_per_block: int
    engine: str
    fallback_reason: Optional[str] = None


def _benchmark_trace(
    name: str, n_references: int, seed: int, warmup_fraction: float
) -> Tuple[Iterator[TraceRecord], int]:
    """``name``'s records, warmup prefix first, and the warmup length."""
    warmup = int(n_references * warmup_fraction)
    # ``records(...)`` is documented as a generator, but guard against a
    # workload handing back a sequence: without ``iter`` the warmup
    # prefix would be replayed a second time into the measured window.
    records = iter(make_workload(name, seed=seed).records(n_references + warmup))
    return records, warmup


def run_benchmark(
    name: str,
    n_references: int = DEFAULT_REFERENCES,
    seed: int = 0,
    config: HierarchyConfig = PAPER_CONFIG,
    warmup_fraction: float = 0.25,
) -> BenchmarkRun:
    """Replay one benchmark once and capture everything the models need.

    The first ``warmup_fraction`` of the trace fills the caches and is
    excluded from the counters (the role SimPoint fast-forwarding plays in
    the paper's setup); the timing events cover only the measured window.

    The replay runs on the vectorized batch engine
    (:func:`repro.timing.fast.collect_run_fast`, which cross-checks short
    traces against the scalar collector itself): statistics are
    bit-identical to :func:`run_benchmark_scalar` and the events come as
    :class:`~repro.timing.fast.EventColumns`.  An L1 the engine cannot
    model (protection units other than 64-bit) replays on the scalar
    reference instead, with the reason in ``fallback_reason``.
    """
    records, warmup = _benchmark_trace(name, n_references, seed, warmup_fraction)
    try:
        run = timing_fast.collect_run_fast(records, config, warmup=warmup)
    except ConfigurationError as exc:
        if exc.reason is None:
            raise
        scalar = run_benchmark_scalar(
            name, n_references, seed, config, warmup_fraction
        )
        scalar.fallback_reason = f"l1_{exc.reason}"
        return scalar
    return BenchmarkRun(
        name=name,
        references=n_references,
        l1=run.l1,
        l2=run.l2,
        events=run.events,
        units_per_block=run.units_per_block,
        engine="batch",
    )


def run_benchmark_scalar(
    name: str,
    n_references: int = DEFAULT_REFERENCES,
    seed: int = 0,
    config: HierarchyConfig = PAPER_CONFIG,
    warmup_fraction: float = 0.25,
) -> BenchmarkRun:
    """:func:`run_benchmark` on the scalar reference collector.

    Replays the trace through a :class:`MemoryHierarchy` with
    :func:`repro.timing.model.collect_events`: the ground truth the batch
    engine is bit-identical to, and the path for an L1 it cannot model.
    """
    records, warmup = _benchmark_trace(name, n_references, seed, warmup_fraction)
    hierarchy = MemoryHierarchy(config)
    if warmup:
        collect_events(itertools.islice(records, warmup), hierarchy)
        hierarchy.l1d.reset_stats()
        hierarchy.l2.reset_stats()
    events = collect_events(records, hierarchy)
    return BenchmarkRun(
        name=name,
        references=n_references,
        l1=hierarchy.l1d.stats,
        l2=hierarchy.l2.stats,
        events=events,
        units_per_block=hierarchy.l1d.units_per_block,
        engine="scalar",
    )


def run_all_benchmarks(
    n_references: int = DEFAULT_REFERENCES,
    seed: int = 0,
    benchmarks: Optional[Sequence[str]] = None,
    config: HierarchyConfig = PAPER_CONFIG,
    obs=None,
) -> List[BenchmarkRun]:
    """Shared simulations for every benchmark in evaluation order.

    ``obs`` (a :class:`repro.obs.TraceSink`) gets one span per benchmark
    simulation — coarse progress marks, not per-access events, so the
    trace stays small at full experiment scale.  Each span names the
    engine that ran (see :func:`run_benchmark`).
    """
    names = list(benchmarks) if benchmarks is not None else benchmark_names()
    live = obs is not None and obs.enabled
    runs = []
    for name in names:
        start = time.perf_counter() if live else 0.0
        run = run_benchmark(name, n_references, seed, config)
        if live:
            obs.span(
                "experiment",
                f"benchmark[{name}]",
                start,
                time.perf_counter() - start,
                {
                    "references": run.references,
                    "l1_miss_rate": run.l1.miss_rate,
                    "l2_miss_rate": run.l2.miss_rate,
                    "engine": run.engine,
                    "fallback_reason": run.fallback_reason,
                },
            )
        runs.append(run)
    return runs


# ----------------------------------------------------------------------
# Figure 10: CPI normalised to the 1-D parity cache
# ----------------------------------------------------------------------

FIG10_SCHEMES = ("parity", "cppc", "2d-parity")


def _fig10_overhead_schemes() -> List[str]:
    """Schemes shown against the parity baseline, in figure order."""
    return [s for s in FIG10_SCHEMES if s != "parity"]


@dataclasses.dataclass
class Figure10Result:
    """Normalised CPIs per benchmark (paper Figure 10)."""

    per_benchmark: Dict[str, Dict[str, float]]

    def normalized(self, scheme: str, benchmark: str) -> float:
        """CPI of ``scheme`` over the parity baseline for ``benchmark``."""
        row = self.per_benchmark[benchmark]
        return row[scheme] / row["parity"]

    def average_overhead(self, scheme: str) -> float:
        """Mean normalised-CPI overhead of ``scheme`` across benchmarks."""
        return statistics.mean(
            self.normalized(scheme, b) - 1.0 for b in self.per_benchmark
        )

    def max_overhead(self, scheme: str) -> float:
        """Worst-case normalised-CPI overhead of ``scheme``."""
        return max(self.normalized(scheme, b) - 1.0 for b in self.per_benchmark)

    def to_text(self) -> str:
        """Paper-style table: normalised CPIs per benchmark."""
        schemes = _fig10_overhead_schemes()
        rows = []
        for bench in self.per_benchmark:
            rows.append(
                [bench] + [self.normalized(s, bench) for s in schemes]
            )
        rows.append(
            ["average"]
            + [1.0 + self.average_overhead(s) for s in schemes]
        )
        return format_table(
            ["benchmark"] + schemes,
            rows,
            title="Figure 10: CPI normalised to 1-D parity L1",
            precision=4,
        )


def figure10(
    runs: Sequence[BenchmarkRun],
    timing_config: Optional[TimingConfig] = None,
) -> Figure10Result:
    """Price each benchmark's event stream under each scheme's ports.

    Columnar event streams (the batch engine's) are priced by the
    bit-identical vectorized engine; scalar lists take the reference
    loop.
    """
    per_benchmark: Dict[str, Dict[str, float]] = {}
    for run in runs:
        pricer = (
            timing_fast.time_events_fast
            if isinstance(run.events, timing_fast.EventColumns)
            else time_events
        )
        row = {}
        for scheme in FIG10_SCHEMES:
            result = pricer(
                run.events,
                timing_policy(scheme),
                timing_config,
                units_per_block=run.units_per_block,
            )
            row[scheme] = result.cpi
        per_benchmark[run.name] = row
    return Figure10Result(per_benchmark=per_benchmark)


# ----------------------------------------------------------------------
# Figures 11/12: dynamic energy normalised to the 1-D parity cache
# ----------------------------------------------------------------------


@dataclasses.dataclass
class EnergyFigureResult:
    """Normalised energies per benchmark (paper Figures 11 and 12)."""

    level: str
    per_benchmark: Dict[str, Dict[str, float]]

    def average(self, scheme: str) -> float:
        """Mean normalised energy of ``scheme`` across benchmarks."""
        return statistics.mean(
            row[scheme] for row in self.per_benchmark.values()
        )

    def to_text(self) -> str:
        """Paper-style table of normalised energies."""
        schemes = [s for s in SCHEMES if s != "parity"]
        rows = [
            [bench] + [row[s] for s in schemes]
            for bench, row in self.per_benchmark.items()
        ]
        rows.append(["average"] + [self.average(s) for s in schemes])
        figure = "11" if self.level == "L1" else "12"
        return format_table(
            ["benchmark"] + schemes,
            rows,
            title=(
                f"Figure {figure}: {self.level} dynamic energy normalised "
                "to 1-D parity"
            ),
        )


def _energy_figure(
    runs: Sequence[BenchmarkRun], level: str, config: HierarchyConfig
) -> EnergyFigureResult:
    geometry = config.l1d if level == "L1" else config.l2
    per_benchmark = {}
    for run in runs:
        stats = run.l1 if level == "L1" else run.l2
        per_benchmark[run.name] = normalized_energies(stats, geometry)
    return EnergyFigureResult(level=level, per_benchmark=per_benchmark)


def figure11(
    runs: Sequence[BenchmarkRun], config: HierarchyConfig = PAPER_CONFIG
) -> EnergyFigureResult:
    """L1 dynamic energy per scheme, normalised to 1-D parity."""
    return _energy_figure(runs, "L1", config)


def figure12(
    runs: Sequence[BenchmarkRun], config: HierarchyConfig = PAPER_CONFIG
) -> EnergyFigureResult:
    """L2 dynamic energy per scheme, normalised to 1-D parity."""
    return _energy_figure(runs, "L2", config)


# ----------------------------------------------------------------------
# Table 2: dirty-data percentage and Tavg
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Table2Result:
    """Measured dirty residency and scrub intervals (paper Table 2)."""

    per_benchmark: Dict[str, Dict[str, float]]

    def average(self, key: str) -> float:
        """Mean of one column across benchmarks."""
        return statistics.mean(row[key] for row in self.per_benchmark.values())

    def reliability_inputs(
        self, level: str, config: HierarchyConfig = PAPER_CONFIG
    ) -> ReliabilityInputs:
        """Bundle the measured averages for the Table 3 models."""
        geometry = config.l1d if level == "L1" else config.l2
        prefix = "l1" if level == "L1" else "l2"
        return ReliabilityInputs(
            size_bits=geometry.size_bytes * 8,
            dirty_fraction=max(1e-6, self.average(f"{prefix}_dirty_fraction")),
            tavg_cycles=max(1.0, self.average(f"{prefix}_tavg_cycles")),
            frequency_hz=config.frequency_hz,
        )

    def to_text(self) -> str:
        """Paper-style Table 2 with per-benchmark detail."""
        rows = [
            [
                bench,
                100.0 * row["l1_dirty_fraction"],
                100.0 * row["l2_dirty_fraction"],
                row["l1_tavg_cycles"],
                row["l2_tavg_cycles"],
            ]
            for bench, row in self.per_benchmark.items()
        ]
        rows.append(
            [
                "average",
                100.0 * self.average("l1_dirty_fraction"),
                100.0 * self.average("l2_dirty_fraction"),
                self.average("l1_tavg_cycles"),
                self.average("l2_tavg_cycles"),
            ]
        )
        return format_table(
            ["benchmark", "L1 dirty %", "L2 dirty %", "L1 Tavg", "L2 Tavg"],
            rows,
            title="Table 2: dirty-data residency and Tavg",
        )


def table2(runs: Sequence[BenchmarkRun]) -> Table2Result:
    """Collect the Table 2 metrics from the shared simulations."""
    per_benchmark = {}
    for run in runs:
        per_benchmark[run.name] = {
            "l1_dirty_fraction": run.l1.dirty_fraction,
            "l2_dirty_fraction": run.l2.dirty_fraction,
            "l1_tavg_cycles": run.l1.tavg_cycles,
            "l2_tavg_cycles": run.l2.tavg_cycles,
        }
    return Table2Result(per_benchmark=per_benchmark)


# ----------------------------------------------------------------------
# Table 3: MTTF against temporal multi-bit errors
# ----------------------------------------------------------------------

#: The paper's own Table 2 averages, used when reproducing Table 3 with
#: the authors' inputs rather than freshly measured ones.
PAPER_TABLE2_L1 = ReliabilityInputs(
    size_bits=32 * 1024 * 8, dirty_fraction=0.16, tavg_cycles=1828
)
PAPER_TABLE2_L2 = ReliabilityInputs(
    size_bits=1024 * 1024 * 8, dirty_fraction=0.35, tavg_cycles=378997
)


@dataclasses.dataclass
class Table3Result:
    """MTTF (years) per scheme and level (paper Table 3)."""

    mttf_years: Dict[str, Dict[str, float]]  # scheme -> level -> years
    aliasing_l2_years: float

    def to_text(self) -> str:
        """Paper-style Table 3."""
        rows = [
            [scheme, values["L1"], values["L2"]]
            for scheme, values in self.mttf_years.items()
        ]
        table = format_table(
            ["cache", "MTTF of L1 (years)", "MTTF of L2 (years)"],
            rows,
            title="Table 3: MTTF against temporal MBE faults",
        )
        return (
            table
            + "\n\nSection 4.7 aliasing MTTF (L2, one register pair): "
            + f"{self.aliasing_l2_years:.3g} years"
        )


def table3(
    l1_inputs: ReliabilityInputs = PAPER_TABLE2_L1,
    l2_inputs: ReliabilityInputs = PAPER_TABLE2_L2,
    config: HierarchyConfig = PAPER_CONFIG,
) -> Table3Result:
    """Evaluate the analytical MTTF models for every scheme and level."""
    l1_unit_bits = config.l1d.unit_bytes * 8
    l2_unit_bits = config.l2.unit_bytes * 8
    mttf = {
        "one-dimensional parity": {
            "L1": mttf_parity_years(l1_inputs),
            "L2": mttf_parity_years(l2_inputs),
        },
        "cppc": {
            "L1": mttf_cppc_years(l1_inputs),
            "L2": mttf_cppc_years(l2_inputs),
        },
        "secded": {
            "L1": mttf_secded_years(l1_inputs, l1_unit_bits),
            "L2": mttf_secded_years(l2_inputs, l2_unit_bits),
        },
    }
    return Table3Result(
        mttf_years=mttf,
        aliasing_l2_years=mttf_aliasing_years(l2_inputs),
    )
