"""Vectorized Figure-10 timing fast path (columnar events, scanned pricing).

The scalar pipeline replays every benchmark trace through the scalar
``Cache`` (:func:`repro.timing.model.collect_events`) and then walks a
Python loop per scheme (:func:`repro.timing.model.time_events`).  Both
halves vectorize, and both halves must stay *bit-identical* to the
scalar code — Figure 10 normalises CPIs against each other, so even a
last-ulp drift would show up in the reproduction tables.

Columnar collection (:func:`collect_run_fast`) resolves the whole trace
once with :class:`~repro.memsim.batch.ResolvedStream` — the batch
engine's LRU residency kernel plus its dirty-unit accounting — and
reads the warm-up boundary as masked sums of the per-access columns
instead of a second replay.  The L1's traffic columns (miss reads and
dirty write-backs, in access order) run through the same kernel as the
L2, which reproduces the L2 statistics and the per-access
``miss_level`` exactly as the scalar hierarchy saw them.

Pricing (:func:`time_events_fast`) computes the issue and miss-stall
terms as pure array ops.  The store-buffer backlog recurrence
(``backlog = clip(backlog + demand - supply, 0, cap)`` per event) is
sequential, but it spends almost all its time pinned at one of its two
clip rails; the scan below jumps over those pinned runs with
precomputed one-event transition tables and steps through each
excursion between the rails with the scalar loop's own float
operations, so every value rounds exactly as the scalar loop rounds it.
"""

from __future__ import annotations

import dataclasses
import itertools
from bisect import bisect_left
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from ..errors import (
    ConfigurationError,
    check_equivalence_mode,
    cross_checks,
    raise_mismatches,
)
from ..memsim.batch import BatchReplayEngine, BatchTrace, ResolvedStream
from ..memsim.hierarchy import PAPER_CONFIG, HierarchyConfig, MemoryHierarchy
from ..memsim.stats import CacheStats
from .model import (
    TIMING_POLICIES,
    AccessEvent,
    SchemeTimingPolicy,
    TimingConfig,
    TimingResult,
    collect_events,
    time_events,
)


@dataclasses.dataclass(frozen=True)
class EventColumns:
    """The :class:`~repro.timing.model.AccessEvent` stream as columns.

    One row per measured reference; iterating yields the exact
    ``AccessEvent`` tuples, so every scalar consumer (``time_events``,
    the detailed pipeline) accepts an ``EventColumns`` unchanged.
    """

    is_load: np.ndarray
    instructions: np.ndarray
    was_dirty: np.ndarray
    miss_level: np.ndarray

    def __post_init__(self):
        n = len(self.is_load)
        if not (
            len(self.instructions) == len(self.was_dirty) == len(self.miss_level) == n
        ):
            raise ConfigurationError("event columns must share one length")

    def __len__(self) -> int:
        return len(self.is_load)

    def __iter__(self):
        for row in zip(
            self.is_load.tolist(),
            self.instructions.tolist(),
            self.was_dirty.tolist(),
            self.miss_level.tolist(),
        ):
            yield AccessEvent(*row)

    @classmethod
    def from_events(cls, events: Iterable[AccessEvent]) -> "EventColumns":
        """Pack scalar ``AccessEvent`` tuples into columns."""
        events = list(events)
        n = len(events)
        return cls(
            is_load=np.fromiter((e.is_load for e in events), dtype=bool, count=n),
            instructions=np.fromiter(
                (e.instructions for e in events), dtype=np.int64, count=n
            ),
            was_dirty=np.fromiter((e.was_dirty for e in events), dtype=bool, count=n),
            miss_level=np.fromiter(
                (e.miss_level for e in events), dtype=np.int8, count=n
            ),
        )

    def mismatches(self, other: "EventColumns", limit: int = 5) -> List[str]:
        """Human-readable per-column differences against ``other``."""
        problems: List[str] = []
        if len(self) != len(other):
            return [f"event count diverges: {len(self)} vs {len(other)}"]
        for field in ("is_load", "instructions", "was_dirty", "miss_level"):
            mine = getattr(self, field)
            theirs = getattr(other, field)
            bad = np.flatnonzero(mine != theirs)
            for i in bad[:limit].tolist():
                problems.append(
                    f"event[{i}].{field} diverges: "
                    f"{mine[i].item()} vs {theirs[i].item()}"
                )
            if len(bad) > limit:
                problems.append(f"... and {len(bad) - limit} more {field} divergences")
        return problems


@dataclasses.dataclass
class FastRun:
    """Everything :func:`collect_run_fast` produced for one trace."""

    events: EventColumns
    l1: CacheStats
    l2: CacheStats
    references: int
    units_per_block: int


# ----------------------------------------------------------------------
# Columnar event collection
# ----------------------------------------------------------------------


def _replay_l2(
    l1: ResolvedStream, blocks: np.ndarray, geometry, warmup: int
) -> Tuple[CacheStats, np.ndarray]:
    """L2 statistics and per-access miss levels from the L1's traffic.

    The L2 sees exactly the ``read_block``/``write_block`` calls the
    scalar L1 issues: a read per L1 miss and a write-back per dirty
    eviction, in access order with a miss's read before its victim's
    write-back, each at its access's cycle (access index + 1 on the
    gap-free clock).  :meth:`~repro.memsim.hierarchy.HierarchyConfig.check_geometry`
    makes every L2 line one unit of one L1 block, so the same kernel and
    accounting reproduce the L2 statistics, including the
    ``reset_stats()`` before the first event at or after ``warmup``.
    ``miss_level`` is classified per L1-missing access the way
    ``collect_events`` does: level 2 whenever the access grew the L2
    miss counter (its own fill *or* its victim's write-back missing L2).
    """
    access, is_write, source = l1.traffic()
    block = blocks[source]
    del source
    num_sets = geometry.size_bytes // (geometry.ways * geometry.block_bytes)
    l2 = ResolvedStream(block % num_sets, block, is_write, access + 1, geometry.ways)
    stats = l2.stats(int(np.searchsorted(access, warmup)), num_sets * geometry.ways)
    level = np.zeros(len(l1), dtype=np.int8)
    level[access] = 1
    level[access[~l2.hit]] = 2
    return stats, level[warmup:]


def collect_run_fast(
    records: Union[BatchTrace, Iterable],
    config: HierarchyConfig = PAPER_CONFIG,
    *,
    warmup: int = 0,
    equivalence: str = "auto",
) -> FastRun:
    """One batch resolution -> measured events plus L1/L2 statistics.

    The first ``warmup`` references fill the caches and are excluded
    from the returned events and statistics, exactly like
    ``reset_stats()`` at the boundary of a scalar run — but without
    replaying anything twice: the whole trace is resolved once and the
    measured window is a masked sum over its per-access columns.

    Args:
        records: a :class:`~repro.memsim.batch.BatchTrace` or an
            iterable of :class:`~repro.workloads.trace.TraceRecord`.
        config: hierarchy geometry.  A geometry
            :meth:`~repro.memsim.hierarchy.HierarchyConfig.check_geometry`
            rejects raises :class:`~repro.errors.ConfigurationError`, as
            the scalar pipeline does.  The batch engine models 64-bit L1
            protection units only; any other L1 raises it with ``reason``
            ``"unit_bytes"``.  Both are raised before ``records`` is
            consumed.
        warmup: references to exclude from the front of the trace.
        equivalence: ``"auto"`` (cross-check against the scalar
            pipeline with :func:`timing_mismatches` when the trace has
            at most :data:`~repro.errors.DEFAULT_EQUIVALENCE_LIMIT`
            references), ``"always"`` or ``"never"`` — the
            :class:`~repro.workloads.replay.FastReplay` convention.
    """
    check_equivalence_mode(equivalence)
    config.check_geometry()
    geometry = config.l1d
    engine = BatchReplayEngine(
        geometry.size_bytes,
        geometry.ways,
        geometry.block_bytes,
        unit_bytes=geometry.unit_bytes,
    )
    engine.check_trace_units()
    trace = (
        records if isinstance(records, BatchTrace) else BatchTrace.from_records(records)
    )
    n_total = len(trace)
    if not 0 <= warmup <= n_total:
        raise ConfigurationError(
            f"warmup must be within the trace: {warmup} vs {n_total} references"
        )
    trace.validate()
    blocks, sets, units = engine.decompose(trace)
    # The scalar hierarchy's clock advances one per reference
    # (``collect_events`` passes no cycle), so every Tavg/dirty-residency
    # statistic and L2 cycle lands on the scalar values on this gap-free
    # clock; the gaps reach the timing model via ``instructions``.
    l1 = ResolvedStream(
        sets,
        blocks,
        trace.is_store,
        np.arange(1, n_total + 1),
        geometry.ways,
        units=units,
        units_per_block=engine.units_per_block,
    )
    del sets, units
    l1_stats = l1.stats(warmup, engine.num_sets * engine.ways * engine.units_per_block)
    was_dirty = l1.was_dirty[warmup:] & trace.is_store[warmup:]
    l2_stats, miss_level = _replay_l2(l1, blocks, config.l2, warmup)
    del l1, blocks
    run = FastRun(
        events=EventColumns(
            is_load=~trace.is_store[warmup:],
            instructions=trace.gap[warmup:] + 1,
            was_dirty=was_dirty,
            miss_level=miss_level,
        ),
        l1=l1_stats,
        l2=l2_stats,
        references=n_total - warmup,
        units_per_block=engine.units_per_block,
    )
    if cross_checks(equivalence, n_total):
        raise_mismatches(
            "timing fast path diverged from the scalar pipeline",
            timing_mismatches(trace, config, warmup=warmup, run=run),
        )
    return run


def collect_scalar(
    records: Iterable, config: HierarchyConfig = PAPER_CONFIG, *, warmup: int = 0
) -> Tuple[List[AccessEvent], MemoryHierarchy]:
    """The scalar reference of :func:`collect_run_fast`.

    Replays ``records`` through a fresh :class:`MemoryHierarchy` with
    :func:`~repro.timing.model.collect_events`, resetting the cache
    statistics after the first ``warmup`` references.  Returns the
    measured events and the hierarchy, whose ``l1d``/``l2`` hold the
    measured-window statistics.
    """
    hierarchy = MemoryHierarchy(config)
    records = iter(records)
    if warmup:
        collect_events(itertools.islice(records, warmup), hierarchy)
        hierarchy.l1d.reset_stats()
        hierarchy.l2.reset_stats()
    return collect_events(records, hierarchy), hierarchy


def timing_mismatches(
    records: Union[BatchTrace, Iterable],
    config: HierarchyConfig = PAPER_CONFIG,
    *,
    warmup: int = 0,
    timing_config: Optional[TimingConfig] = None,
    run: Optional[FastRun] = None,
) -> List[str]:
    """How the Figure-10 fast path diverges from the scalar pipeline.

    Compares ``run`` (by default :func:`collect_run_fast` of the same
    records) with :func:`collect_scalar`: the event streams, the L1 and
    L2 statistics, and every scheme's :class:`TimingResult` priced by
    the scalar :func:`~repro.timing.model.time_events` and by
    :func:`time_events_fast`.  Returns one line per mismatch, so an
    empty list means the two paths agree bit for bit.
    """
    if isinstance(records, BatchTrace):
        trace, records = records, records.to_records()
    else:
        records = list(records)
        trace = BatchTrace.from_records(records)
    if run is None:
        run = collect_run_fast(trace, config, warmup=warmup, equivalence="never")
    events, hierarchy = collect_scalar(records, config, warmup=warmup)
    problems = EventColumns.from_events(events).mismatches(run.events)
    for level, scalar, fast in (
        ("L1", hierarchy.l1d.stats, run.l1),
        ("L2", hierarchy.l2.stats, run.l2),
    ):
        if scalar != fast:
            problems.append(
                f"{level} stats diverge: {scalar.snapshot()} vs {fast.snapshot()}"
            )
    for scheme, factory in TIMING_POLICIES.items():
        scalar_result = time_events(
            events,
            factory(),
            timing_config,
            units_per_block=hierarchy.l1d.units_per_block,
        )
        fast_result = time_events_fast(
            run.events, factory(), timing_config, units_per_block=run.units_per_block
        )
        if scalar_result != fast_result:
            problems.append(f"{scheme}: {scalar_result!r} != {fast_result!r}")
    return problems


# ----------------------------------------------------------------------
# Vectorized pricing
# ----------------------------------------------------------------------


def time_events_fast(
    events: Union[EventColumns, Iterable[AccessEvent]],
    policy: SchemeTimingPolicy,
    config: Optional[TimingConfig] = None,
    *,
    units_per_block: int = 4,
) -> TimingResult:
    """Bit-identical vectorization of :func:`repro.timing.model.time_events`.

    Every term the scalar loop accumulates is reproduced with the same
    sequence of float64 operations: per-event quantities are elementwise
    array ops, running totals fold left-to-right via
    ``np.add.accumulate``, and the backlog recurrence is resolved by the
    rail-jumping scan described in the module docstring.
    """
    cfg = config or TimingConfig()
    cols = (
        events if isinstance(events, EventColumns) else EventColumns.from_events(events)
    )
    n = len(cols)
    result = TimingResult()
    if n == 0:
        return result

    is_load = cols.is_load
    miss = cols.miss_level > 0
    issue = cols.instructions / float(cfg.issue_width)
    supply = issue - is_load.astype(np.float64)
    drain = np.maximum(supply, 0.0)

    store_demand = np.zeros(n)
    dirty_demand = float(policy.store_demand(True))
    clean_demand = float(policy.store_demand(False))
    if dirty_demand or clean_demand:
        stores = ~is_load
        store_demand[stores & cols.was_dirty] = dirty_demand
        store_demand[stores & ~cols.was_dirty] = clean_demand
    miss_demand = np.zeros(n)
    demand_per_miss = float(policy.miss_demand(units_per_block))
    if demand_per_miss:
        miss_demand[miss] = demand_per_miss

    penalty = np.where(
        cols.miss_level == 2, float(cfg.memory_latency), float(cfg.l2_hit_latency)
    )
    stall = np.where(miss, penalty * (1.0 - cfg.miss_overlap), 0.0)
    shadow = 0.25 * stall

    port = _resolve_backlog(
        float(cfg.store_buffer_capacity),
        drain,
        supply,
        store_demand,
        miss_demand,
        miss,
        shadow,
    )

    result.references = n
    result.instructions = int(cols.instructions.sum())
    result.loads = int(np.count_nonzero(is_load))
    result.stores = n - result.loads
    result.issue_cycles = float(np.add.accumulate(issue)[-1])
    result.miss_stall_cycles = float(np.add.accumulate(stall)[-1])
    result.port_stall_cycles = float(np.add.accumulate(port)[-1])
    interleaved = np.empty((n, 3))
    interleaved[:, 0] = issue
    interleaved[:, 1] = stall
    interleaved[:, 2] = port
    result.cycles = float(np.add.accumulate(interleaved.reshape(-1))[-1])
    return result


def _resolve_backlog(
    cap: float,
    drain: np.ndarray,
    supply: np.ndarray,
    store_demand: np.ndarray,
    miss_demand: np.ndarray,
    miss: np.ndarray,
    shadow: np.ndarray,
) -> np.ndarray:
    """Per-event port stalls of the clipped-backlog recurrence.

    The backlog is a clipped linear recurrence that spends nearly all
    its time *pinned at a rail* — exactly 0.0 (nothing owed) or exactly
    ``cap`` (saturated) — because both clips assign those exact floats.
    Rail states are memoryless, so one-event transition tables computed
    elementwise describe every possible departure, and a sorted-index
    jump skips each pinned run in O(log n).  An excursion off the rails
    runs event by event, as the scalar loop does, until the backlog
    lands on a rail again.
    """
    n = len(drain)
    port = np.zeros(n)

    # Departures from the 0.0 rail: no drain applies, demands land on an
    # empty buffer, the miss shadow may clip straight back to the rail.
    from_zero = store_demand + miss_demand
    from_zero = np.where(miss, np.maximum(from_zero - shadow, 0.0), from_zero)
    zero_port = np.maximum(from_zero - cap, 0.0)
    zero_next = np.minimum(from_zero, cap)
    # Rail departures are consumed by a monotone cursor (``p`` only
    # grows) bisecting plain sorted Python lists, cheaper per jump than
    # ``np.searchsorted``.
    zero_exits = np.flatnonzero(zero_next != 0.0).tolist()
    zero_cursor = 0

    # Departures from the cap rail, built lazily (parity-like policies
    # never saturate).  Mirrors the scalar op order exactly: drain,
    # store demand, miss demand, shadow clip, cap clip.
    cap_tables = None

    def cap_transitions():
        after_drain = np.maximum(cap - drain, 0.0)
        value = after_drain + store_demand
        value = value + miss_demand
        value = np.where(miss, np.maximum(value - shadow, 0.0), value)
        return (
            np.maximum(value - cap, 0.0),
            np.minimum(value, cap),
            np.flatnonzero(np.minimum(value, cap) != cap).tolist(),
        )

    # Excursions index these Python lists instead of the arrays: the
    # values are the same IEEE doubles, but list indexing skips the
    # numpy-scalar boxing that would otherwise dominate the loop.  Built
    # on the first excursion; a scan that never leaves the rails
    # (parity-like policies) needs none.
    supply_l = store_l = missd_l = miss_l = shadow_l = None

    backlog = 0.0
    p = 0
    n_zero_exits = len(zero_exits)
    cap_cursor = 0
    while p < n:
        if backlog == 0.0:
            k = zero_cursor = bisect_left(zero_exits, p, zero_cursor)
            if k == n_zero_exits:
                break
            e = zero_exits[k]
            port[e] = zero_port[e]
            backlog = float(zero_next[e])
            p = e + 1
            continue
        if backlog == cap:
            if cap_tables is None:
                cap_tables = cap_transitions()
            cap_port, cap_next, cap_exits = cap_tables
            k = cap_cursor = bisect_left(cap_exits, p, cap_cursor)
            e = cap_exits[k] if k < len(cap_exits) else n
            if e > p:
                port[p:e] = cap_port[p:e]
            if e == n:
                break
            backlog = float(cap_next[e])
            p = e + 1
            continue
        # Interior: step event by event until the backlog lands on a rail.
        if supply_l is None:
            supply_l = supply.tolist()
            store_l = store_demand.tolist()
            missd_l = miss_demand.tolist()
            miss_l = miss.tolist()
            shadow_l = shadow.tolist()
        while p < n:
            # The scalar loop's event; ``x if x > 0.0 else 0.0`` is
            # ``max(0.0, x)`` without the call, and the backlog is off
            # the zero rail, so a positive supply always drains.
            supplied = supply_l[p]
            if supplied > 0:
                backlog = backlog - supplied
                backlog = backlog if backlog > 0.0 else 0.0
            backlog = backlog + store_l[p]
            if miss_l[p]:
                backlog = backlog + missd_l[p] - shadow_l[p]
                backlog = backlog if backlog > 0.0 else 0.0
            if backlog > cap:
                port[p] = backlog - cap
                backlog = cap
            p += 1
            # A step keeps the backlog within [0, cap]; stop on a rail.
            if backlog == 0.0 or backlog == cap:
                break
    return port
