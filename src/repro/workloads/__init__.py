"""Workloads: trace format, synthetic generators, SPEC2000-like profiles."""

from .generators import SyntheticWorkload, WorkloadProfile
from .replay import (
    FastReplay,
    FastReplayResult,
    GoldenMemory,
    ReplayResult,
    TraceReplayer,
)
from .spec import (
    BENCHMARKS,
    PROFILES,
    benchmark_names,
    get_profile,
    make_workload,
)
from .trace import TraceRecord, load_trace, materialize, save_trace

__all__ = [
    "SyntheticWorkload",
    "WorkloadProfile",
    "FastReplay",
    "FastReplayResult",
    "GoldenMemory",
    "ReplayResult",
    "TraceReplayer",
    "BENCHMARKS",
    "PROFILES",
    "benchmark_names",
    "get_profile",
    "make_workload",
    "TraceRecord",
    "load_trace",
    "materialize",
    "save_trace",
]
