"""Trace-driven timing models: fast analytical and cycle-stepped OoO."""

from .fast import (
    EventColumns,
    FastRun,
    collect_run_fast,
    collect_scalar,
    time_events_fast,
    timing_mismatches,
)
from .pipeline import (
    DetailedPipeline,
    PipelineConfig,
    PipelineResult,
    simulate_detailed_cpi,
)
from .model import (
    TIMING_POLICIES,
    AccessEvent,
    CppcTiming,
    ParityTiming,
    SchemeTimingPolicy,
    SecdedTiming,
    TimingConfig,
    TimingResult,
    TwoDParityTiming,
    collect_events,
    time_events,
    timing_policy,
)

__all__ = [
    "TIMING_POLICIES",
    "AccessEvent",
    "CppcTiming",
    "ParityTiming",
    "SchemeTimingPolicy",
    "SecdedTiming",
    "TimingConfig",
    "TimingResult",
    "TwoDParityTiming",
    "collect_events",
    "time_events",
    "timing_policy",
    "EventColumns",
    "FastRun",
    "collect_run_fast",
    "collect_scalar",
    "time_events_fast",
    "timing_mismatches",
    "DetailedPipeline",
    "PipelineConfig",
    "PipelineResult",
    "simulate_detailed_cpi",
]
