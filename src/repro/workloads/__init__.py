"""Workloads: trace format, synthetic generators, SPEC2000-like profiles."""

from .generators import SyntheticWorkload, WorkloadProfile
from .replay import (
    FastReplay,
    FastReplayResult,
    GoldenMemory,
    ReplayResult,
    TraceReplayer,
    fast_replay,
    replay,
)
from .spec import (
    BENCHMARKS,
    PROFILES,
    benchmark_names,
    get_profile,
    make_workload,
)
from .store import (
    ColumnarTraceReader,
    ColumnarTraceWriter,
    TraceCache,
    cached_records,
    default_trace_cache,
    load_batch_trace,
    write_trace,
)
from .trace import TraceRecord, load_trace, materialize, save_trace, trace_stats

__all__ = [
    "SyntheticWorkload",
    "WorkloadProfile",
    "FastReplay",
    "FastReplayResult",
    "GoldenMemory",
    "ReplayResult",
    "TraceReplayer",
    "fast_replay",
    "replay",
    "BENCHMARKS",
    "PROFILES",
    "benchmark_names",
    "get_profile",
    "make_workload",
    "ColumnarTraceReader",
    "ColumnarTraceWriter",
    "TraceCache",
    "cached_records",
    "default_trace_cache",
    "load_batch_trace",
    "write_trace",
    "TraceRecord",
    "load_trace",
    "materialize",
    "save_trace",
    "trace_stats",
]
