"""Warm-once campaign state: build one snapshot, fork it per trial.

Under ``CampaignConfig.shared_warmup`` every trial of a campaign replays
the *same* fault-free warmup prefix.  :func:`build_warm_state` simulates
that prefix exactly once and captures everything a trial needs:

* a :class:`~repro.memsim.snapshot.HierarchySnapshot` of the warmed-up
  caches, protection state and main memory,
* the golden memory image after the prefix's stores,
* the materialized post-warmup suffix records, and
* the cycle clock at the fork point.

:meth:`WarmState.fork` then loads the snapshot into a live hierarchy
with a few slice copies per cache instead of re-simulating thousands of
references, and the forked trial is bit-identical to a legacy
warm-every-trial one (same resident units in the same iteration order,
so the per-trial injection RNG sees the same sample space; same
statistics baselines; same cycle clock).  Trials recycle one hierarchy:
a finished trial hands it back (:meth:`WarmState.release`) with the
sets it may have changed (:meth:`GoldenRecord.changed_sets`), and the
next fork resets only those sets' lines, units and way orders, plus
every level's clock, statistics, registers and replacement RNG and main
memory, to the snapshot.  A trial that ran the whole flush or met a DUE
hands back None, and the next fork resets every set.

Where both levels are batch-compatible (CPPC over 8-way parity under LRU
with write-back and write-allocate, 64-bit L1 units, one unit per L2
line, no L3 — the configuration :mod:`repro.memsim.batch` vectorizes),
the warmup itself runs through the
:class:`~repro.memsim.batch.BatchReplayEngine`, one engine per level: the
L1's resolves the warmup trace and returns its next-level block traffic
(:class:`~repro.memsim.batch.LineTraffic`), and the L2's replays that
traffic as the scalar L1's ``read_block``/``write_block`` calls.  Their
:class:`~repro.memsim.snapshot.CacheSnapshot` and the L2's write-backs
to memory are the warm state's snapshot, equal to the one a scalar
warmup leaves, which :func:`~repro.memsim.snapshot.restore_hierarchy`
loads into a live hierarchy for the golden pass.  Everything else falls
back to a scalar warmup, and the warm state records which condition
sent it there.

After taking the snapshot, :func:`build_warm_state` keeps replaying its
own hierarchy through the suffix, fault-free, and records the golden run
in a small :class:`GoldenRecord`: the first suffix step that touches
each unit, a checkpoint every :data:`CHECKPOINT_STEPS` steps and at the
end of the suffix (the state there as a delta against the snapshot, and
the sets reached and golden-image bytes stored since the checkpoint
before), and the units an upper level's drain touches in the flush.  A
flipped unit is inert until its first touch, so every trial resumes at
the last checkpoint before the first touch of a struck unit
(:meth:`GoldenRecord.resume`).  A trial whose struck units the suffix
never touches resumes at the end of the suffix, the golden pre-flush
state, and need not drain more of the flush than its struck lines.  One
whose state equals the golden run's at the first checkpoint after its
last touch, or at the end, is classified there, without the rest of the
suffix or the flush, or, when flips the suffix never reads are left,
resumed at the end of the suffix with those flips and settled like an
untouched trial
(:meth:`~repro.faults.campaign.FaultCampaign._finish_trial`).

Nothing here is memoized: a campaign owns its warm state.
:meth:`FaultCampaign.run <repro.faults.campaign.FaultCampaign.run>`
builds it once per run and hands it to every trial, and the runtime
builds it once in the parent process and ships it to each worker in the
campaign's payload (:func:`repro.runtime.campaign.run_campaign`).
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..cppc.protection import CppcProtection
from ..errors import UncorrectableError
from ..memsim.batch import BatchReplayEngine, BatchTrace
from ..memsim.cache import Cache
from ..memsim.hierarchy import MemoryHierarchy
from ..memsim.replacement import LRUPolicy
from ..memsim.snapshot import (
    CacheSnapshot,
    HierarchyDelta,
    HierarchySnapshot,
    apply_delta,
    diff_hierarchy,
    restore_hierarchy,
    same_state,
    snapshot_hierarchy,
)
from ..memsim.types import AccessType, UnitLocation
from ..workloads.replay import GoldenMemory, TraceReplayer
from ..workloads.spec import make_workload
from ..workloads.trace import TraceRecord
from .campaign import CampaignConfig
from .models import BitFlip


#: Suffix steps between two checkpoints of the golden run.  A trial
#: struck at one unit replays from the last checkpoint before its touch
#: to the first one after it, and each checkpoint costs the golden pass
#: a diff of the sets reached since the one before.
CHECKPOINT_STEPS = 100


@dataclasses.dataclass
class GoldenCheckpoint:
    """The golden run after its first ``step`` suffix steps.

    Attributes:
        step: suffix steps the golden run had replayed.
        cycle: the replayer's cycle clock there.
        delta: the golden hierarchy there against the warm snapshot; None
            at step 0, where it is the snapshot.
        sets: per cache level, innermost first, the sets the golden run's
            loads and stores reached since the checkpoint before, which
            hold every line and way order it changed in between.
        image: the golden-image bytes the suffix's stores set since the
            checkpoint before, addresses in the order the golden image
            gained them; empty at step 0.
    """

    step: int
    cycle: int
    delta: Optional[HierarchyDelta]
    sets: List[FrozenSet[int]]
    image: Dict[int, int]


@dataclasses.dataclass
class GoldenRecord:
    """The fault-free run of a warm state's suffix, recorded once.

    Holds no full image: each checkpoint is a delta against the warm
    snapshot plus the golden-image bytes stored since the one before.

    Attributes:
        first_touch: per cache level name, the first suffix step that
            touches each unit slot (``line * units_per_block + unit``).
            A step touches a unit when it loads or stores any byte of
            it, or fills or evicts its line; a unit missing here keeps
            its warm state through the whole suffix.
        flush_clean: whether the golden run's own flush detected nothing
            and left memory equal to the golden image.  When it did not,
            no trial skips its flush or any part of it.
        flush_touch: per cache level name, the unit slots an upper
            level's drain touches in the golden flush: the lower level's
            lines the upper level's write-backs store into, and the
            victims their fills evict.  A few hundred slots, empty for
            the L1D.  A trial struck there drains the whole flush.
        base: the warm snapshot every delta is taken against (the warm
            state's own, so pickling the state stores it once).
        checkpoints: the golden run at step 0, every
            :data:`CHECKPOINT_STEPS` steps after it, and at the end of
            the suffix, where it is the golden pre-flush state.
    """

    first_touch: Dict[str, Dict[int, int]]
    flush_clean: bool
    flush_touch: Dict[str, FrozenSet[int]] = dataclasses.field(default_factory=dict)
    base: Optional[HierarchySnapshot] = None
    checkpoints: List[GoldenCheckpoint] = dataclasses.field(default_factory=list)

    def changed_sets(
        self,
        hierarchy: MemoryHierarchy,
        resumed: GoldenCheckpoint,
        reached: Sequence[Iterable[int]],
        cache: Cache,
        locs: Iterable[UnitLocation],
        settled: Sequence[UnitLocation] = (),
    ) -> List[set]:
        """Per level of ``hierarchy``, every set where a trial forked from
        the warm snapshot and struck at the units at ``locs`` of ``cache``
        may differ from the snapshot, so that
        :func:`~repro.memsim.snapshot.restore_hierarchy` over them resets
        it (:meth:`WarmState.release`).

        They are the sets the golden run reached up to ``resumed``, the
        checkpoint the trial last resumed at (the
        :attr:`~GoldenCheckpoint.sets` of it and of every checkpoint
        before), which hold every line and way order that resume wrote;
        ``reached``, the sets the trial's own loads and stores reached
        since its first resume; the struck units' sets; and, when the
        trial settled its flush at the struck lines at ``settled``
        (:func:`~repro.faults.campaign._flush_struck_lines`), the next
        level's sets their write-backs land in.  That holds for a trial
        that neither ran the whole flush nor raised a DUE, by the
        invariant :meth:`rejoins_at` rests on: a run changes lines and way
        orders only in the sets its loads and stores reach, and a recovery
        repairs only struck units.  A write-back's fill and victim share
        its set, and the L2's victims go to main memory, which a restore
        loads whole.
        """
        levels = hierarchy.levels()
        index = levels.index(cache)
        sets = [set(mine) for mine in reached]
        for checkpoint in self.checkpoints:
            if checkpoint.step > resumed.step:
                break
            for level_sets, window in zip(sets, checkpoint.sets):
                level_sets |= window
        sets[index].update(loc.set_index for loc in locs)
        if settled and index + 1 < len(levels):
            lower = levels[index + 1]
            sets[index + 1].update(
                lower.mapper.set_index(cache.address_of(loc)) for loc in settled
            )
        return sets

    def checkpoints_for(
        self, cache: Cache, locs: Sequence[UnitLocation]
    ) -> Tuple[GoldenCheckpoint, List[GoldenCheckpoint]]:
        """Where a trial struck at the units at ``locs`` of ``cache``
        resumes, and where it may rejoin.

        It resumes at the last checkpoint at or before the first touch of
        a struck unit: up to there the golden run never read one, so the
        trial's state is the golden one with the flips.  A trial whose
        struck units the suffix never touches counts as first touched at
        the end of the suffix: it resumes at the last checkpoint, with
        nothing to replay and every flip inert.  Any other trial may
        rejoin at the first checkpoint after the last touch of a struck
        unit and at the end of the suffix, or nowhere if the golden flush
        was not clean.
        """
        first = self.first_touch[cache.name]
        ways = cache.ways
        upb = cache.units_per_block
        end = self.checkpoints[-1]
        slots = [
            (loc.set_index * ways + loc.way) * upb + loc.unit_index for loc in locs
        ]
        touched = [first[slot] for slot in slots if slot in first] or [end.step]
        stops = [checkpoint.step for checkpoint in self.checkpoints]
        start = self.checkpoints[bisect_right(stops, min(touched)) - 1]
        if start is end or not self.flush_clean:
            return start, []
        checks = {bisect_right(stops, max(touched)), len(stops) - 1}
        return start, [self.checkpoints[i] for i in sorted(checks)]

    def resume(
        self,
        checkpoint: GoldenCheckpoint,
        hierarchy: MemoryHierarchy,
        golden: GoldenMemory,
        replayer: TraceReplayer,
    ) -> None:
        """Move a fork to ``checkpoint`` of the golden run: its state
        there (units the run has not changed keep their flips), the
        golden-image bytes the suffix's stores set before it, and its
        clock.

        The images go in window by window with ``dict.update``, so the
        addresses new to ``golden`` follow it in first-store order, as in
        the golden run, and bytes a trial already stored by replaying
        part of the suffix keep their place.
        """
        if checkpoint.delta is None:
            return
        apply_delta(checkpoint.delta, hierarchy)
        for window in self.checkpoints:
            if window.step > checkpoint.step:
                break
            golden.update(window.image)
        replayer.cycle = checkpoint.cycle

    def rejoins_at(
        self,
        start: GoldenCheckpoint,
        checkpoint: GoldenCheckpoint,
        hierarchy: MemoryHierarchy,
        reached: Sequence[Iterable[int]],
        cache: Cache,
        flips: Sequence[BitFlip],
    ) -> Optional[List[BitFlip]]:
        """Whether a trial struck by ``flips`` in ``cache``, resumed at
        ``start`` and replayed up to ``checkpoint``, equals the golden run
        there up to statistics and to inert flips: the flips still set in
        struck units the golden suffix never touches.

        Returns those inert flips (empty when none are left), or None when
        the states differ in anything else.  A unit the suffix never
        touches must hold its warm value, or that value with its flips
        (a recovery corrects every faulty dirty unit it scans).

        ``reached`` holds, per level, the sets the trial's loads and
        stores reached since ``start``.  A run changes lines and way
        orders only in the sets its loads and stores reach, and a
        recovery corrects only struck units.  So outside the sets either
        run reached since ``start`` and the struck units' sets, both
        states are what they were at ``start``, where they differed only
        in the flips, and the test compares the rest
        (:func:`~repro.memsim.snapshot.same_state`): those sets against
        the checkpoint's delta, the whole-cache state and main memory.

        Equal, the trial goes on as the golden run does, which never
        reads an inert flip, loads correct data and detects nothing, so
        its pre-flush state is the golden one with the inert flips: the
        warm snapshot with those flips, resumed at the end of the suffix.
        """
        levels = hierarchy.levels()
        index = levels.index(cache)
        inert = self._inert_flips(cache, self.base.caches[index], flips)
        if inert is None:
            return None
        sets = [set(mine) for mine in reached]
        for window in self.checkpoints:
            if start.step < window.step <= checkpoint.step:
                for level_sets, window_sets in zip(sets, window.sets):
                    level_sets |= window_sets
        sets[index].update(flip.loc.set_index for flip in flips)
        for flip in inert:
            cache.corrupt_data(flip.loc, flip.mask)
        try:
            here = diff_hierarchy(self.base, hierarchy, sets, previous=checkpoint.delta)
        finally:
            for flip in inert:
                cache.corrupt_data(flip.loc, flip.mask)
        return inert if same_state(here, checkpoint.delta) else None

    def _inert_flips(
        self, cache: Cache, warm: CacheSnapshot, flips: Sequence[BitFlip]
    ) -> Optional[List[BitFlip]]:
        """The flips still set in struck units of ``cache`` the golden
        suffix never touches, one per unit; None when such a unit holds
        neither its ``warm`` value nor that value with its flips."""
        first = self.first_touch[cache.name]
        ways = cache.ways
        upb = cache.units_per_block
        ub = cache.unit_bytes
        masks: Dict[int, int] = {}
        for flip in flips:
            loc = flip.loc
            slot = (loc.set_index * ways + loc.way) * upb + loc.unit_index
            if slot not in first:
                masks[slot] = masks.get(slot, 0) ^ flip.mask
        inert = []
        for slot, mask in masks.items():
            line = slot // upb
            if not cache._valid[line] or cache._tags[line] != warm.tags[line]:
                return None
            off = slot * ub
            now = int.from_bytes(cache._data[off : off + ub], "big")
            flipped = now ^ int.from_bytes(warm.data[off : off + ub], "big")
            if flipped == mask:
                loc = UnitLocation(*divmod(line, ways), slot % upb)
                inert.append(BitFlip(loc, mask))
            elif flipped:
                return None
        return inert

    def settles_flush(self, cache: Cache, locs: Iterable[UnitLocation]) -> bool:
        """Whether a trial in the golden pre-flush state with flips in the
        units at ``locs`` of ``cache`` may settle its flush at their lines:
        the golden flush was clean, and no upper level's drain touches
        them.

        Until the drain reaches a struck line it is the golden drain,
        and what the eviction of a struck line reads does not depend on
        how far the drain got
        (:func:`~repro.faults.campaign._flush_struck_lines`).
        """
        touched = self.flush_touch[cache.name]
        ways = cache.ways
        upb = cache.units_per_block
        return self.flush_clean and not any(
            (loc.set_index * ways + loc.way) * upb + loc.unit_index in touched
            for loc in locs
        )


class SetRecorder:
    """Trace sink: every set each level's loads and stores reach, which
    holds every line and way order a run changes (a fill and its victim
    share the access's set), passing each event on to ``sink``.

    Attach it with :meth:`MemoryHierarchy.set_observer
    <repro.memsim.hierarchy.MemoryHierarchy.set_observer>` and detach it
    (attach ``sink`` again) when done: it holds the levels, so while
    attached it and the hierarchy form a reference cycle.
    """

    enabled = True

    def __init__(self, hierarchy: MemoryHierarchy, sink=None):
        self._levels = {level.name: level for level in hierarchy.levels()}
        self._sink = sink
        self.sets: Dict[str, set] = {name: set() for name in self._levels}

    def reached(self, hierarchy: MemoryHierarchy) -> List[set]:
        """The sets reached, per level of ``hierarchy``, innermost first."""
        return [self.sets[level.name] for level in hierarchy.levels()]

    def emit(self, category, name, args=None, ts=None) -> None:
        if self._sink is not None:
            self._sink.emit(category, name, args, ts)
        if category == "cache" and name in ("load", "store"):
            cache = self._levels[args["level"]]
            self.sets[cache.name].add(cache.mapper.set_index(args["addr"]))


class _TouchRecorder(SetRecorder):
    """Trace sink for the golden pass: the first step that touches each
    unit slot, and every set an access reached (where the delta looks).

    ``load``/``store`` events name an access; on a hit the line holding
    its address is resident, so the touched units are known.  ``evict``
    events name the slot a fill replaces.  A fill into an empty way
    emits no event, but that way held no valid line at the fork point
    or lost it to an earlier eviction, so no fault can sit there.
    """

    def __init__(self, hierarchy: MemoryHierarchy):
        super().__init__(hierarchy)
        self.step = 0
        self.first_touch: Dict[str, Dict[int, int]] = {
            name: {} for name in self._levels
        }

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


def _golden_drain(hierarchy: MemoryHierarchy) -> Dict[str, FrozenSet[int]]:
    """Flush the golden hierarchy and return, per level, the unit slots
    an upper level's drain touched.

    Each upper level drains with a :class:`_TouchRecorder` attached to
    the levels below it only, so the recorder sees its write-backs and
    the victims their fills evict, never a level's own drain.  The last
    level drains through :meth:`MemoryHierarchy.flush`, which finds the
    upper levels already empty.
    """
    recorder = _TouchRecorder(hierarchy)
    levels = hierarchy.levels()
    for level in levels[1:]:
        level.set_observer(recorder)
    try:
        for level in levels[:-1]:
            level.set_observer(None)
            level.flush()
    finally:
        hierarchy.set_observer(None)
    hierarchy.flush()
    return {name: frozenset(slots) for name, slots in recorder.first_touch.items()}


def _golden_pass(
    state: "WarmState", hierarchy: MemoryHierarchy, golden: GoldenMemory
) -> Optional[GoldenRecord]:
    """Replay ``state``'s suffix fault-free on the hierarchy and golden
    memory its snapshot was taken from, record the run with a checkpoint
    every :data:`CHECKPOINT_STEPS` steps and at the end, then flush it
    level by level (:func:`_golden_drain`).

    Each checkpoint's delta is the one before it brought up to date over
    the sets reached in between, so the pass diffs every set only where
    it was reached, and its image holds the bytes the stores in between
    set, collected as the pass replays them.

    None when the fault-free run itself detects a fault or loads wrong
    data, which no correct simulator does; trials then replay in full.
    """
    recorder = _TouchRecorder(hierarchy)
    replayer = TraceReplayer(
        hierarchy, golden=golden, check_loads=True, start_cycle=state.start_cycle
    )
    checkpoints = [GoldenCheckpoint(0, state.start_cycle, None, [], {})]
    stores = GoldenMemory()

    def checkpoint(step: int) -> None:
        """Record the golden run after ``step`` steps, with the sets it
        reached and the image bytes it stored since the checkpoint
        before."""
        sets = [frozenset(s) for s in recorder.reached(hierarchy)]
        for level_sets in recorder.sets.values():
            level_sets.clear()
        delta = diff_hierarchy(state.snapshot, hierarchy, sets, checkpoints[-1].delta)
        checkpoints.append(
            GoldenCheckpoint(step, replayer.cycle, delta, sets, stores.snapshot())
        )
        stores.restore({})

    detected = _detections(hierarchy)
    hierarchy.set_observer(recorder)
    try:
        for step, record in enumerate(state.suffix_records):
            if step and step % CHECKPOINT_STEPS == 0:
                checkpoint(step)
            recorder.step = step
            if replayer.step(record):
                return None
            if record.op is AccessType.STORE:
                stores.store(record.addr, record.value)
    except UncorrectableError:
        return None
    finally:
        hierarchy.set_observer(None)
    if _detections(hierarchy) != detected:
        return None
    checkpoint(len(state.suffix_records))
    golden_run = GoldenRecord(
        first_touch=recorder.first_touch,
        flush_clean=False,
        base=state.snapshot,
        checkpoints=checkpoints,
    )
    try:
        golden_run.flush_touch = _golden_drain(hierarchy)
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
    """

    config: CampaignConfig
    snapshot: HierarchySnapshot
    golden_image: Dict[int, int]
    suffix_records: List[TraceRecord]
    start_cycle: int
    warm_engine: str
    warm_fallback: Optional[str] = None
    golden_record: Optional[GoldenRecord] = None

    #: ``(hierarchy, sets)`` that :meth:`release` handed back, until the
    #: next :meth:`fork` takes it.  Not a field (no annotation): it is
    #: left out of comparisons and pickles.
    _returned = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_returned", None)
        return state

    def fork(self) -> Tuple[MemoryHierarchy, GoldenMemory, TraceReplayer]:
        """A live ``(hierarchy, golden, replayer)`` at the fork point.

        The hierarchy is the one the last :meth:`release` handed back,
        reset to the fork point over the sets its trial may have changed
        (:func:`~repro.memsim.snapshot.restore_hierarchy` with ``sets``)
        and with no observer attached.  Only when none was handed back is
        one built and loaded whole.  Each returned hierarchy goes to one
        fork, so two forks held at once are independent.

        The hierarchy's caches hold flat per-cache containers, so a built
        one costs a bounded number of objects whatever the warm state's
        size, and holds no reference cycle: it is freed as soon as its
        trial and this state drop it.
        """
        returned, self._returned = self._returned, None
        if returned is None:
            hierarchy = MemoryHierarchy(protection_factory=self.config.scheme_factory)
            sets = None
        else:
            hierarchy, sets = returned
            hierarchy.set_observer(None)
        restore_hierarchy(self.snapshot, hierarchy, sets=sets)
        golden = GoldenMemory()
        golden.restore(self.golden_image)
        replayer = TraceReplayer(
            hierarchy,
            golden=golden,
            check_loads=True,
            start_cycle=self.start_cycle,
        )
        return hierarchy, golden, replayer

    def release(
        self, hierarchy: MemoryHierarchy, sets: Optional[Sequence[Iterable[int]]]
    ) -> None:
        """Hand a finished fork's hierarchy back for the next :meth:`fork`.

        ``sets`` holds, per level, every set where the hierarchy may
        differ from the warm snapshot
        (:meth:`GoldenRecord.changed_sets`), or is None when it may differ
        anywhere.  One hierarchy is kept: a second release drops the
        first.
        """
        self._returned = (hierarchy, sets)


def _level_incompatible(cache: Cache, unit_bytes: int) -> Optional[str]:
    """None when the batch engine models ``cache`` with ``unit_bytes``
    protection units exactly, else the first condition that fails."""
    prot = cache.protection
    if not isinstance(prot, CppcProtection):
        return "scheme"
    if cache.unit_bytes != unit_bytes:
        return "unit_bytes"
    if prot.code.ways != 8:
        return "parity_ways"
    if not isinstance(cache.policy, LRUPolicy):
        return "policy"
    if cache.write_through:
        return "write_through"
    if not cache.allocate_on_write:
        return "no_write_allocate"
    if cache.tag_protection is not None:
        return "tag_protection"
    return None


def _batch_compatible(hierarchy: MemoryHierarchy) -> Optional[str]:
    """None when the batch engine models ``hierarchy``'s warmup exactly,
    else the first condition that fails (a short tag such as
    ``"l1_scheme"`` or ``"l2_unit_bytes"``, or ``"l3"``).

    The L1 must hold 64-bit units and the L2 one unit per line, and
    there is no L3.  Every CLI builds both levels from one
    :class:`~repro.faults.schemes.SchemeFactory`, so an L2 condition
    fails alone only under a hand-built factory.
    """
    l1, l2 = hierarchy.l1d, hierarchy.l2
    for prefix, cache, unit_bytes in (
        ("l1", l1, 8),
        ("l2", l2, l2.block_bytes),
    ):
        reason = _level_incompatible(cache, unit_bytes)
        if reason is not None:
            return f"{prefix}_{reason}"
    if hierarchy.l3 is not None:
        return "l3"
    return None


def _level_engine(cache: Cache) -> BatchReplayEngine:
    """The batch engine of one level that :func:`_batch_compatible`
    accepts."""
    prot = cache.protection
    return BatchReplayEngine(
        cache.size_bytes,
        cache.ways,
        cache.block_bytes,
        unit_bytes=cache.unit_bytes,
        num_pairs=prot.registers.num_pairs,
        byte_shifting=prot.rotation.enabled,
        num_classes=prot.registers.num_classes,
    )


def _batch_warm(hierarchy: MemoryHierarchy, trace: BatchTrace) -> HierarchySnapshot:
    """The state a scalar warmup of ``hierarchy`` over ``trace`` leaves,
    from the batch engine alone.

    The L1's engine resolves the whole trace and returns the block
    traffic the scalar L1 would send the L2: exactly these reads and
    write-backs, in this order, at these cycles.  The L2's engine replays
    that traffic, so its snapshot and its write-backs to memory are the
    scalar L2's and memory's.
    """
    l1 = _level_engine(hierarchy.l1d).replay(trace, traffic=True)
    l2 = _level_engine(hierarchy.l2).replay(l1.traffic)
    return HierarchySnapshot(caches=[l1.cache, l2.cache], memory=l2.memory)


def build_warm_state(config: CampaignConfig) -> WarmState:
    """Simulate the shared warmup prefix once and package the result,
    then run the suffix fault-free on the same hierarchy to record its
    :class:`GoldenRecord`."""
    workload = make_workload(config.benchmark, seed=config.workload_seed(0))
    length = config.warmup_references + config.post_fault_references
    warm_records = list(workload.records(length))
    suffix_records = warm_records[config.warmup_references :]
    del warm_records[config.warmup_references :]

    golden = GoldenMemory()
    for record in warm_records:
        if record.op is AccessType.STORE:
            golden.store(record.addr, record.value)
    start_cycle = sum(r.instructions for r in warm_records)

    hierarchy = MemoryHierarchy(protection_factory=config.scheme_factory)
    fallback = None
    if not warm_records:
        warm_engine = "pristine"
        snapshot = snapshot_hierarchy(hierarchy)
    else:
        fallback = _batch_compatible(hierarchy)
        if fallback is None:
            trace = BatchTrace.from_records(warm_records)
            # The packed columns hold all the engines need.
            del warm_records
            snapshot = _batch_warm(hierarchy, trace)
            del trace
            restore_hierarchy(snapshot, hierarchy)
            warm_engine = "batch"
        else:
            TraceReplayer(hierarchy).run(warm_records)
            snapshot = snapshot_hierarchy(hierarchy)
            warm_engine = "scalar"

    state = WarmState(
        config=config,
        snapshot=snapshot,
        golden_image=golden.snapshot(),
        suffix_records=suffix_records,
        start_cycle=start_cycle,
        warm_engine=warm_engine,
        warm_fallback=fallback,
    )
    state.golden_record = _golden_pass(state, hierarchy, golden)
    return state
