"""Vectorized Figure-10 timing fast path (columnar events, scanned pricing).

The scalar pipeline replays every benchmark trace through the scalar
``Cache`` (:func:`repro.timing.model.collect_events`) and then walks a
Python loop per scheme (:func:`repro.timing.model.time_events`).  Both
halves vectorize, and both halves must stay *bit-identical* to the
scalar code — Figure 10 normalises CPIs against each other, so even a
last-ulp drift would show up in the reproduction tables.

Columnar collection (:func:`collect_run_fast`) drives the
:class:`~repro.memsim.batch.BatchReplayEngine` once over the whole
trace, splitting warmup from the measured window with a mid-stream
:meth:`~repro.memsim.batch._ReplayState.checkpoint` instead of a second
replay.  The engine's :class:`~repro.memsim.batch.ReplayCapture` records
the next-level traffic; replaying that (sparse) traffic through a lean
single-unit-line L2 model reproduces the L2 statistics and the
per-access ``miss_level`` exactly as the scalar hierarchy saw them.

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
from ..memsim.batch import BatchReplayEngine, BatchTrace, ReplayCapture
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

    def to_events(self) -> List[AccessEvent]:
        """The exact scalar ``AccessEvent`` list."""
        return list(self)

    def slice(self, start: int, stop: int) -> "EventColumns":
        """A zero-copy view of rows ``[start:stop)``."""
        return EventColumns(
            is_load=self.is_load[start:stop],
            instructions=self.instructions[start:stop],
            was_dirty=self.was_dirty[start:stop],
            miss_level=self.miss_level[start:stop],
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
                problems.append(
                    f"... and {len(bad) - limit} more {field} divergences"
                )
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

#: Batch-engine counter name -> CacheStats field name.
_COUNTER_FIELDS = (
    ("read_hits", "read_hits"),
    ("read_misses", "read_misses"),
    ("write_hits", "write_hits"),
    ("write_misses", "write_misses"),
    ("fills", "fills"),
    ("writebacks", "writebacks"),
    ("evictions_clean", "evictions_clean"),
    ("evictions_dirty", "evictions_dirty"),
    ("stores_to_dirty", "stores_to_dirty_units"),
)


def _zero_gap(trace: BatchTrace) -> BatchTrace:
    """The same accesses on a gap-free clock.

    The scalar hierarchy advances its access counter by exactly one per
    reference (``collect_events`` passes no cycle), while the batch
    engine advances by ``gap + 1``; replaying a gap-free copy makes the
    batch clock — and therefore every Tavg/dirty-residency statistic and
    captured next-level cycle — land on the scalar values.  The
    instruction gaps still reach the timing model via the
    ``instructions`` column.
    """
    return BatchTrace(
        addr=trace.addr,
        size=trace.size,
        is_store=trace.is_store,
        gap=np.zeros(len(trace), dtype=np.int64),
        value_word=trace.value_word,
        value_mask=trace.value_mask,
    )


def _delta_stats(engine: BatchReplayEngine, warm: dict, end: dict) -> CacheStats:
    """Measured-window L1 stats from two replay checkpoints.

    Field-for-field what the scalar cache reports after
    ``reset_stats()`` at the warmup boundary: counters are checkpoint
    deltas, the dirty-occupancy integral telescopes across the boundary,
    and the stats clock carries the absolute final cycle (the scalar
    clock is not rewound by a reset).  ``read_before_writes`` stays 0 —
    event collection runs on an unprotected hierarchy, and only
    protection schemes perform read-before-writes (the batch engine
    models CPPC's).
    """
    stats = CacheStats()
    stats.configure(engine.num_sets * engine.ways * engine.units_per_block)
    warm_counters, end_counters = warm["counters"], end["counters"]
    for src, dst in _COUNTER_FIELDS:
        setattr(stats, dst, end_counters[src] - warm_counters[src])
    stats.dirty_time_integral = float(end["integral"] - warm["integral"])
    stats.observed_cycles = float(end["last_cycle"] - warm["last_cycle"])
    stats._last_event_cycle = float(end["last_cycle"])
    stats._current_dirty_units = end["dirty_count"]
    stats.dirty_interval_sum = float(end["interval_sum"] - warm["interval_sum"])
    stats.dirty_interval_count = end["interval_count"] - warm["interval_count"]
    warm_hist = warm["interval_hist"]
    stats.dirty_interval_histogram = {
        bucket: count - warm_hist.get(bucket, 0)
        for bucket, count in sorted(end["interval_hist"].items())
        if count - warm_hist.get(bucket, 0)
    }
    return stats


class _LeanL2:
    """Single-unit-per-line L2 replay with scalar-exact accounting.

    :meth:`~repro.memsim.hierarchy.HierarchyConfig.check_geometry` makes
    every L2 line one unit of one L1 block, so the captured traffic
    always touches exactly one L2 unit covering the whole line.  That
    collapses the scalar ``Cache`` path to a handful of list operations
    per event; the float-bearing statistics still go through the very
    same :class:`CacheStats` methods (``advance_to``,
    ``record_dirty_interval``), so every rounding step matches.
    """

    def __init__(self, geometry):
        self.block_bytes = geometry.block_bytes
        self.ways = geometry.ways
        self.num_sets = geometry.size_bytes // (geometry.ways * geometry.block_bytes)
        self._access_counter = 0.0
        self.stats = CacheStats()
        self.stats.configure(self.num_sets * self.ways)
        lines = self.num_sets * self.ways
        # Flat per-line state (line ``set * ways + way``) and each set's
        # MRU-to-LRU way order at ``order[set * ways : (set + 1) * ways]``.
        # A line holds the capture's memory-image slot of its block, and
        # ``slot_way`` maps every resident slot back to its way, so a
        # probe is one list index.  ``filled`` counts valid ways: lines
        # fill in way order and validity never decreases (every eviction
        # is immediately followed by a fill of the same way), so the
        # first invalid way is simply ``filled``.
        self.line_slot = [-1] * lines
        self.dirty = [False] * lines
        self.last_dirty = [None] * lines
        self.order = list(range(self.ways)) * self.num_sets
        self.filled = [0] * self.num_sets
        self.slot_way: list = []

    def replay(self, events, slot_set, base_access, miss_level) -> None:
        """Drive one capture segment, classifying per-access miss levels.

        ``miss_level`` (when not ``None``) receives 2 for accesses whose
        L2 traffic missed at least once — the scalar ``collect_events``
        classification, which counts a victim write-back missing L2 too
        — and 1 otherwise.  All cache state lives in locals for the
        duration of the segment; only the float-bearing statistics calls
        go through :class:`CacheStats` methods.
        """
        stats = self.stats
        advance_to = stats.advance_to
        record_interval = stats.record_dirty_interval
        dirty_changed = stats.dirty_units_changed
        ways = self.ways
        line_slot, dirty, last_dirty = self.line_slot, self.dirty, self.last_dirty
        order, filled_l = self.order, self.filled
        slot_way = self.slot_way
        if len(slot_way) < len(slot_set):
            slot_way.extend([-1] * (len(slot_set) - len(slot_way)))
        counter = self._access_counter
        current = -1
        missed = False
        for access, kind, slot, cycle, _words in events:
            if access != current:
                if miss_level is not None and current >= 0:
                    miss_level[current - base_access] = 2 if missed else 1
                current = access
                missed = False
            if cycle > counter:
                counter = cycle
            now = counter
            advance_to(now)
            set_index = slot_set[slot]
            base = set_index * ways
            way = slot_way[slot]
            if way >= 0:
                if kind:
                    stats.write_hits += 1
                else:
                    stats.read_hits += 1
            else:
                missed = True
                if kind:
                    stats.write_misses += 1
                else:
                    stats.read_misses += 1
                filled = filled_l[set_index]
                if filled < ways:
                    way = filled
                    filled_l[set_index] = filled + 1
                else:
                    way = order[base + ways - 1]
                    line = base + way
                    if dirty[line]:
                        stats.writebacks += 1
                        stats.evictions_dirty += 1
                        dirty_changed(-1)
                        dirty[line] = False
                        last_dirty[line] = None
                    else:
                        stats.evictions_clean += 1
                    slot_way[line_slot[line]] = -1
                line_slot[base + way] = slot
                slot_way[slot] = way
                stats.fills += 1
            line = base + way
            if kind:
                if dirty[line]:
                    stats.stores_to_dirty_units += 1
                else:
                    dirty[line] = True
                    dirty_changed(1)
                last = last_dirty[line]
                if last is not None:
                    record_interval(now - last)
                last_dirty[line] = now
            elif dirty[line]:
                record_interval(now - last_dirty[line])
                last_dirty[line] = now
            if order[base] != way:
                pos = order.index(way, base)
                while pos > base:
                    order[pos] = order[pos - 1]
                    pos -= 1
                order[base] = way
        if miss_level is not None and current >= 0:
            miss_level[current - base_access] = 2 if missed else 1
        self._access_counter = counter

    def reset_stats(self) -> None:
        last = max(self._access_counter, self.stats._last_event_cycle)
        self._access_counter = last
        fresh = CacheStats()
        fresh.configure(self.num_sets * self.ways)
        fresh._last_event_cycle = last
        fresh._current_dirty_units = self.stats._current_dirty_units
        self.stats = fresh


def _replay_l2(
    capture: ReplayCapture,
    config: HierarchyConfig,
    warmup: int,
    n_total: int,
) -> Tuple[CacheStats, np.ndarray]:
    """Reproduce L2 behaviour from the captured next-level traffic.

    The capture holds exactly the ``read_block``/``write_block`` calls
    the scalar L1 would have issued (same order, same cycles), so
    feeding them to an L2 model reproduces its statistics bit-for-bit,
    including the ``reset_stats()`` at the warmup boundary.  The lean
    single-unit model covers every geometry
    :meth:`~repro.memsim.hierarchy.HierarchyConfig.check_geometry` accepts.
    ``miss_level`` is classified per L1-missing access the way
    ``collect_events`` does: level 2 whenever the access grew the L2
    miss counter (its own fill *or* its victim's write-back missing L2).
    """
    geometry = config.l2
    miss_level = np.zeros(n_total - warmup, dtype=np.int8)
    events = capture.events
    split = 0
    while split < len(events) and events[split][0] < warmup:
        split += 1
    l2 = _LeanL2(geometry)
    num_sets, bb = l2.num_sets, l2.block_bytes
    slot_set = [(a // bb) % num_sets for a in capture.slot_addr or []]
    l2.replay(events[:split], slot_set, 0, None)
    if warmup:
        l2.reset_stats()
    l2.replay(events[split:], slot_set, warmup, miss_level)
    return l2.stats, miss_level


def _dirty_flags(dirty_stores: List[int], warmup: int, n_total: int) -> np.ndarray:
    flags = np.zeros(n_total - warmup, dtype=bool)
    if dirty_stores:
        idx = np.asarray(dirty_stores, dtype=np.int64)
        flags[idx[idx >= warmup] - warmup] = True
    return flags


def collect_run_fast(
    records: Union[BatchTrace, Iterable],
    config: HierarchyConfig = PAPER_CONFIG,
    *,
    warmup: int = 0,
    equivalence: str = "auto",
) -> FastRun:
    """One batch replay -> measured events plus L1/L2 statistics.

    The first ``warmup`` references fill the caches and are excluded
    from the returned events and statistics, exactly like
    ``reset_stats()`` at the boundary of a scalar run — but without
    replaying anything twice: the measured window is the delta between
    two checkpoints of one streaming replay.

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
    l1 = config.l1d
    engine = BatchReplayEngine(
        l1.size_bytes, l1.ways, l1.block_bytes, unit_bytes=l1.unit_bytes
    )
    trace = (
        records if isinstance(records, BatchTrace) else BatchTrace.from_records(records)
    )
    n_total = len(trace)
    if not 0 <= warmup <= n_total:
        raise ConfigurationError(
            f"warmup must be within the trace: {warmup} vs {n_total} references"
        )
    capture = ReplayCapture()
    state = engine.begin(capture)
    flat = _zero_gap(trace)
    if warmup:
        engine.feed(state, flat.slice(0, warmup))
    boundary = state.checkpoint()
    engine.feed(state, flat.slice(warmup, n_total))
    engine.close(state)
    l2_stats, miss_level = _replay_l2(capture, config, warmup, n_total)
    run = FastRun(
        events=EventColumns(
            is_load=~trace.is_store[warmup:],
            instructions=trace.gap[warmup:] + 1,
            was_dirty=_dirty_flags(capture.dirty_stores, warmup, n_total),
            miss_level=miss_level,
        ),
        l1=_delta_stats(engine, boundary, state.checkpoint()),
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
