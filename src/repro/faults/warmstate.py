"""Warm-once campaign state: build one snapshot, fork it per trial.

Under ``CampaignConfig.shared_warmup`` every trial of a campaign replays
the *same* fault-free warmup prefix.  :func:`build_warm_state` simulates
that prefix exactly once and captures everything a trial needs:

* a :class:`~repro.memsim.snapshot.HierarchySnapshot` of the warmed-up
  caches, protection state and main memory,
* the golden memory image after the prefix's stores,
* the materialized post-warmup suffix records, and
* the cycle clock at the fork point.

:meth:`WarmState.fork` then rebuilds a live hierarchy with a few slice
copies per cache instead of re-simulating thousands of references, and
the forked trial is bit-identical to a legacy warm-every-trial one (same
resident units in the same iteration order, so the per-trial injection
RNG sees the same sample space; same statistics baselines; same cycle
clock).

Where the L1 scheme is batch-compatible (CPPC over 64-bit units under
LRU — the configuration :mod:`repro.memsim.batch` vectorizes), the
warmup itself runs through the :class:`~repro.memsim.batch.BatchReplayEngine`:
the engine produces the final L1 state directly, and the L2 absorbs the
next-level traffic it captures (:class:`~repro.memsim.batch.ReplayCapture`)
in original access order, in one pass of its whole-line kernel
(:meth:`~repro.memsim.cache.Cache.absorb_line_traffic`), which warms the
rest of the hierarchy exactly as the per-access path would.  Everything
else falls back to a scalar warmup, and the warm state records which
condition sent it there.

After taking the snapshot, :func:`build_warm_state` keeps replaying its
own hierarchy through the suffix, fault-free, and records the golden run
in a small :class:`GoldenRecord`: the first suffix step that touches
each unit, the pre-flush state as a delta against the snapshot, and a
digest of that state.  A flipped unit is inert until its first touch,
so a trial whose struck units the suffix never touches need not replay
it; a trial whose pre-flush state equals the golden one need not flush
(:meth:`~repro.faults.campaign.FaultCampaign._classify_trial_fast`).

:func:`warm_state_for` memoizes warm states in a bounded module-level
:class:`~repro.memsim.snapshot.SnapshotCache`, keyed by everything the
warm image depends on — scheme factory, benchmark, prefix length, trace
length and workload seed stream.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Dict, Iterable, List, Optional, Tuple

from ..cppc.protection import CppcProtection
from ..errors import UncorrectableError
from ..memsim.batch import BatchReplayEngine, BatchTrace, ReplayCapture
from ..memsim.cache import Cache
from ..memsim.hierarchy import MemoryHierarchy
from ..memsim.replacement import LRUPolicy
from ..memsim.snapshot import (
    HierarchyDelta,
    HierarchySnapshot,
    SnapshotCache,
    apply_delta,
    diff_hierarchy,
    restore_hierarchy,
    snapshot_hierarchy,
    state_digest,
)
from ..memsim.types import AccessType, UnitLocation
from ..workloads.replay import GoldenMemory, TraceReplayer
from ..workloads.spec import make_workload
from ..workloads.trace import TraceRecord
from .campaign import CampaignConfig


@dataclasses.dataclass
class GoldenRecord:
    """The fault-free run of a warm state's suffix, recorded once.

    Holds no full image: the pre-flush state is a delta against the
    warm snapshot, and the rejoin test compares digests.

    Attributes:
        first_touch: per cache level name, the first suffix step that
            touches each unit slot (``line * units_per_block + unit``).
            A step touches a unit when it loads or stores any byte of
            it, or fills or evicts its line; a unit missing here keeps
            its warm state through the whole suffix.
        delta: the golden pre-flush hierarchy against the warm snapshot
            (:func:`~repro.memsim.snapshot.diff_hierarchy`).
        image_delta: the golden memory bytes the suffix's stores set;
            applied with ``dict.update``, addresses new to the image
            follow it in first-store order, as in the golden run.
        digest: :func:`~repro.memsim.snapshot.state_digest` of the
            golden pre-flush hierarchy.
        flush_clean: whether the golden run's own flush detected nothing
            and left memory equal to the golden image.  When it did not,
            no trial skips its flush.
    """

    first_touch: Dict[str, Dict[int, int]]
    delta: HierarchyDelta
    image_delta: Dict[int, int]
    digest: bytes
    flush_clean: bool

    def touches(self, cache: Cache, locs: Iterable[UnitLocation]) -> bool:
        """Whether the suffix touches any of the units at ``locs``."""
        first = self.first_touch[cache.name]
        ways = cache.ways
        upb = cache.units_per_block
        return any(
            (loc.set_index * ways + loc.way) * upb + loc.unit_index in first
            for loc in locs
        )

    def apply(self, hierarchy: MemoryHierarchy, golden: GoldenMemory) -> None:
        """Move a fork to the golden run's pre-flush state.

        Only units the suffix touched are written, so a flipped unit it
        never touches keeps its flips: the fork then equals a fork
        injected with the same flips that replayed the whole suffix.
        """
        apply_delta(self.delta, hierarchy)
        golden.update(self.image_delta)

    def rejoins(self, hierarchy: MemoryHierarchy) -> bool:
        """Whether a trial's pre-flush state equals the golden run's, up
        to statistics, with a golden flush that needed no correction.

        Such a trial's flush repeats the golden one: memory ends equal
        to the golden image, and nothing is detected.
        """
        return self.flush_clean and state_digest(hierarchy) == self.digest


class _TouchRecorder:
    """Trace sink for the golden pass: the first step that touches each
    unit slot, and every set an access reached (where the delta looks).

    ``load``/``store`` events name an access; on a hit the line holding
    its address is resident, so the touched units are known.  ``evict``
    events name the slot a fill replaces.  A fill into an empty way
    emits no event, but that way held no valid line at the fork point
    or lost it to an earlier eviction, so no fault can sit there.
    """

    enabled = True

    def __init__(self, hierarchy: MemoryHierarchy):
        self.step = 0
        self._levels = {level.name: level for level in hierarchy.levels()}
        self.first_touch: Dict[str, Dict[int, int]] = {
            name: {} for name in self._levels
        }
        self.sets: Dict[str, set] = {name: set() for name in self._levels}

    def emit(self, category, name, args=None, ts=None) -> None:
        if category != "cache":
            return
        if name == "evict":
            self._evict(self._levels[args["level"]], args["set"], args["way"])
        elif name in ("load", "store"):
            cache = self._levels[args["level"]]
            self._access(cache, args["addr"], args["size"], args["hit"])

    def _access(self, cache: Cache, addr: int, size: int, hit: bool) -> None:
        self.sets[cache.name].add(cache.mapper.set_index(addr))
        if hit:
            ub = cache.unit_bytes
            u0 = cache._line_of(addr) * cache.units_per_block
            off = cache.mapper.block_offset(addr)
            self._touch(cache, range(u0 + off // ub, u0 + (off + size - 1) // ub + 1))

    def _evict(self, cache: Cache, set_index: int, way: int) -> None:
        upb = cache.units_per_block
        first = (set_index * cache.ways + way) * upb
        self._touch(cache, range(first, first + upb))

    def _touch(self, cache: Cache, units: range) -> None:
        first_touch = self.first_touch[cache.name]
        for ui in units:
            first_touch.setdefault(ui, self.step)


def _detections(hierarchy: MemoryHierarchy) -> int:
    return sum(level.stats.detected_faults for level in hierarchy.levels())


def _golden_pass(
    state: "WarmState", hierarchy: MemoryHierarchy, golden: GoldenMemory
) -> Optional[GoldenRecord]:
    """Replay ``state``'s suffix fault-free on the hierarchy and golden
    memory its snapshot was taken from, record the run, then flush.

    None when the fault-free run itself detects a fault or loads wrong
    data, which no correct simulator does; trials then replay in full.
    """
    recorder = _TouchRecorder(hierarchy)
    replayer = TraceReplayer(
        hierarchy, golden=golden, check_loads=True, start_cycle=state.start_cycle
    )
    detected = _detections(hierarchy)
    hierarchy.set_observer(recorder)
    try:
        for step, record in enumerate(state.suffix_records):
            recorder.step = step
            if replayer.step(record):
                return None
    except UncorrectableError:
        return None
    finally:
        hierarchy.set_observer(None)
    if _detections(hierarchy) != detected:
        return None
    # The suffix's stores, replayed into an empty image: the final bytes,
    # new addresses in the order the golden image gained them.
    stores = GoldenMemory()
    for record in state.suffix_records:
        if record.op is AccessType.STORE:
            stores.store(record.addr, record.value)
    sets = [recorder.sets[level.name] for level in hierarchy.levels()]
    golden_run = GoldenRecord(
        first_touch=recorder.first_touch,
        delta=diff_hierarchy(state.snapshot, hierarchy, sets),
        image_delta=stores.snapshot(),
        digest=state_digest(hierarchy),
        flush_clean=False,
    )
    try:
        hierarchy.flush()
    except UncorrectableError:
        return golden_run
    golden_run.flush_clean = (
        _detections(hierarchy) == detected
        and hierarchy.memory.first_mismatch(golden.items()) is None
    )
    return golden_run


@dataclasses.dataclass
class WarmState:
    """One warmed-up campaign image, ready to fork per trial.

    Attributes:
        key: the :func:`warm_key` this state was built for.
        config: the campaign configuration (supplies the scheme factory
            for forked hierarchies).
        snapshot: the post-warmup hierarchy state.
        golden_image: golden memory bytes after the warmup stores, in
            store order (dict order matters for bit-identical SDC
            details).
        suffix_records: the post-warmup trace suffix, shared read-only
            across trials.
        start_cycle: cycle clock at the fork point.
        warm_engine: how the prefix was simulated — ``"batch"``,
            ``"scalar"`` or ``"pristine"`` (zero-length warmup).
        warm_fallback: why a scalar warmup ran instead of the batch
            engine (the :func:`_batch_compatible` condition that failed,
            e.g. ``"l1_scheme"``), else None.
        golden_record: the fault-free suffix run (:class:`GoldenRecord`)
            that lets trials skip what their fault cannot change; None
            when that run was unusable, and every trial replays in full.
            It depends on the warm state alone, so it rides to workers
            in the payload and is dropped with the state.
        size_bytes: pickled size (cache accounting and lane shipping).
    """

    key: tuple
    config: CampaignConfig
    snapshot: HierarchySnapshot
    golden_image: Dict[int, int]
    suffix_records: List[TraceRecord]
    start_cycle: int
    warm_engine: str
    warm_fallback: Optional[str] = None
    golden_record: Optional[GoldenRecord] = None
    size_bytes: int = 0

    def fork(self) -> Tuple[MemoryHierarchy, GoldenMemory, TraceReplayer]:
        """A fresh live ``(hierarchy, golden, replayer)`` at the fork point.

        The hierarchy's caches hold flat per-cache containers, so the
        fork allocates a bounded number of objects whatever the warm
        state's size, and holds no reference cycle: it is freed as soon
        as the trial drops it.
        """
        hierarchy = MemoryHierarchy(protection_factory=self.config.scheme_factory)
        restore_hierarchy(self.snapshot, hierarchy)
        golden = GoldenMemory()
        golden.restore(self.golden_image)
        replayer = TraceReplayer(
            hierarchy,
            golden=golden,
            check_loads=True,
            start_cycle=self.start_cycle,
        )
        return hierarchy, golden, replayer


def warm_key(config: CampaignConfig) -> tuple:
    """Everything the warm image depends on (the memoization key).

    ``post_fault_references`` is included because the workload generator
    is seeded once for the whole trace — the suffix records depend on the
    total length requested, not only on the prefix.
    """
    return (
        repr(config.scheme_factory),
        config.benchmark,
        config.warmup_references,
        config.post_fault_references,
        repr(config.workload_seed(0)),
    )


def _batch_compatible(l1) -> Optional[str]:
    """None when the batch engine models this L1 exactly, else the first
    condition that fails (a short tag such as ``"l1_scheme"``)."""
    prot = l1.protection
    if not isinstance(prot, CppcProtection):
        return "l1_scheme"
    if l1.unit_bytes != 8:
        return "l1_unit_bytes"
    if prot.code.ways != 8:
        return "l1_parity_ways"
    if not isinstance(l1.policy, LRUPolicy):
        return "l1_policy"
    if l1.write_through:
        return "l1_write_through"
    if not l1.allocate_on_write:
        return "l1_no_write_allocate"
    if l1.tag_protection is not None:
        return "l1_tag_protection"
    return None


def _batch_warm(hierarchy: MemoryHierarchy, warm_records: List[TraceRecord]) -> None:
    """Warm ``hierarchy`` through the batch engine (L1) plus event replay.

    The engine resolves the whole L1 access stream vectorized and
    captures its next-level block traffic.  The L2 absorbs those events
    in original access order in one pass
    (:meth:`~repro.memsim.cache.Cache.absorb_line_traffic`, exact for
    its single-unit lines), which reproduces exactly the L2/memory state
    of a scalar warmup, because the scalar L1 would have issued exactly
    these reads and write-backs at these cycles.
    """
    l1 = hierarchy.l1d
    prot = l1.protection
    engine = BatchReplayEngine(
        l1.size_bytes,
        l1.ways,
        l1.block_bytes,
        num_pairs=prot.registers.num_pairs,
        byte_shifting=prot.rotation.enabled,
        num_classes=prot.registers.num_classes,
    )
    capture = ReplayCapture()
    result = engine.replay(BatchTrace.from_records(warm_records), capture=capture)
    hierarchy.l2.absorb_line_traffic(capture.events, capture.slot_addr)

    upb = l1.units_per_block
    for (set_index, way), state in result.lines.items():
        u0 = (set_index * l1.ways + way) * upb
        l1.install_line(
            set_index,
            way,
            state.tag,
            state.data,
            state.dirty,
            state.check,
            capture.line_last[u0 : u0 + upb],
        )
    for set_index, order in capture.lru.items():
        l1.policy.set_recency_order(set_index, order)
    stats = result.stats
    # The scalar cache keeps integer cycle stamps; normalize the one
    # float the reducer produces so snapshots compare field-for-field.
    stats._last_event_cycle = int(stats._last_event_cycle)
    l1.stats = stats
    l1._access_counter = capture.final_cycle
    for pair, src in zip(prot.registers.pairs, result.registers.pairs):
        pair.r1 = src.r1
        pair.r2 = src.r2
        pair.r1_parity = src.r1_parity
        pair.r2_parity = src.r2_parity


def build_warm_state(config: CampaignConfig) -> WarmState:
    """Simulate the shared warmup prefix once and package the result,
    then run the suffix fault-free on the same hierarchy to record its
    :class:`GoldenRecord`."""
    workload = make_workload(config.benchmark, seed=config.workload_seed(0))
    length = config.warmup_references + config.post_fault_references
    records = list(workload.records(length))
    warm_records = records[: config.warmup_references]
    suffix_records = records[config.warmup_references :]

    golden = GoldenMemory()
    for record in warm_records:
        if record.op is AccessType.STORE:
            golden.store(record.addr, record.value)
    start_cycle = sum(r.instructions for r in warm_records)

    hierarchy = MemoryHierarchy(protection_factory=config.scheme_factory)
    fallback = None
    if not warm_records:
        warm_engine = "pristine"
    else:
        fallback = _batch_compatible(hierarchy.l1d)
        if fallback is None:
            _batch_warm(hierarchy, warm_records)
            warm_engine = "batch"
        else:
            TraceReplayer(hierarchy).run(warm_records)
            warm_engine = "scalar"

    state = WarmState(
        key=warm_key(config),
        config=config,
        snapshot=snapshot_hierarchy(hierarchy),
        golden_image=golden.snapshot(),
        suffix_records=suffix_records,
        start_cycle=start_cycle,
        warm_engine=warm_engine,
        warm_fallback=fallback,
    )
    state.golden_record = _golden_pass(state, hierarchy, golden)
    # The flushed build hierarchy is done: free it before pickling.
    del hierarchy, golden
    state.size_bytes = len(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
    return state


#: Campaign-side warm-state memo, bounded so sweeps over many
#: configurations cannot grow without bound.
_WARM_CACHE = SnapshotCache(max_entries=8, max_bytes=1 << 30)


def warm_cache() -> SnapshotCache:
    """The module-level warm-state cache (metrics export, tests)."""
    return _WARM_CACHE


def clear_warm_cache() -> None:
    """Drop every memoized warm state (benchmarks and tests)."""
    _WARM_CACHE.clear()


def warm_state_for(config: CampaignConfig) -> WarmState:
    """The memoized warm state for ``config`` (built on first use)."""
    key = warm_key(config)
    state = _WARM_CACHE.get(key)
    if state is None:
        state = build_warm_state(config)
        _WARM_CACHE.put(key, state, state.size_bytes)
    return state
