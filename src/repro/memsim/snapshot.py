"""Structured snapshot/restore of simulator state for campaign forking.

A fault campaign replays the same fault-free warmup prefix before every
trial.  This module captures the complete post-warmup state of a
:class:`~repro.memsim.cache.Cache` (data, tags, dirty bits, check words,
replacement order, statistics, protection-scheme state) and of a whole
:class:`~repro.memsim.hierarchy.MemoryHierarchy`, so one warm image can
be restored into a hierarchy per trial instead of re-simulating the
prefix.

A cache snapshot copies the cache's flat per-line and per-unit
containers whole, with every invalid line blanked (zero tag, data and
check words), so two caches holding the same lines snapshot equal
whatever their eviction history.  Restore overwrites every container of
the target with slice assignments, so the target may be fresh or may
have simulated anything before.  Given the sets a hierarchy restored
from the snapshot has changed since, it overwrites only those sets'
slices, plus the small whole-cache state and main memory, and a fault
campaign resets one hierarchy between trials that way.

The restored simulator is *bit-identical* to the original: replaying the
same suffix produces the same access results, statistics, register
contents and fault classifications.  Equivalence is enforced by the
round-trip property tests and the campaign cross-check.

Protection state is dispatched on the scheme's ``name``:

* ``cppc`` — the (R1, R2) register pairs with their parity bits, plus
  the ``recoveries`` / ``register_repairs`` counters.  The bounded
  ``recovery_log`` is *not* carried — it never influences simulation
  outcomes — and restore empties it, as it is in a fault-free warm
  state.
* ``2d-parity`` — the vertical parity register.
* ``none`` / ``parity`` / ``secded`` — stateless.

Anything else raises :class:`~repro.errors.SnapshotError` rather than
silently dropping state.

Beside the full image sits a *delta*: :func:`diff_hierarchy` records
only the lines, units, replacement orders and memory blocks in which a
live hierarchy differs from a snapshot (plus the small whole-cache
state, carried whole), and :func:`apply_delta` writes them back.  Every
unit the delta does not name is left as it is, so a delta taken from a
fault-free run can be applied to a faulty fork without erasing faults
in units the run never changed.  A delta can also be brought up to date
by comparing only the sets a run reached since it was taken
(``previous``), and :func:`same_state` compares two deltas against one
snapshot up to statistics, an exact equality test that holds no second
image.
"""

from __future__ import annotations

import dataclasses
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import SnapshotError
from .cache import Cache
from .hierarchy import MemoryHierarchy
from .mainmem import MainMemory
from .replacement import FIFOPolicy, LRUPolicy, RandomPolicy
from .stats import CacheStats

#: Protection schemes whose snapshot is the empty dict.
_STATELESS_SCHEMES = ("none", "parity", "secded")


@dataclasses.dataclass
class PolicySnapshot:
    """Replacement-policy state."""

    kind: str
    #: Every set's way order, flat (LRU recency / FIFO fill order; set
    #: ``s`` at ``[s * ways, (s + 1) * ways)``), else ``None``.
    order: Optional[List[int]] = None
    #: ``random.getstate()`` of a :class:`RandomPolicy`, else ``None``.
    rng_state: Optional[tuple] = None


@dataclasses.dataclass
class CacheSnapshot:
    """Complete state of one cache level.

    The line and unit containers follow the cache's flat layout: line
    ``set_index * ways + way``, unit ``line * units_per_block + unit``.
    """

    name: str
    size_bytes: int
    ways: int
    block_bytes: int
    unit_bytes: int
    scheme: str
    access_counter: float
    #: One byte per line, 1 when valid.
    valid: bytes
    tags: List[int]
    data: bytes
    dirty: List[bool]
    check: List[int]
    #: Per-unit cycle of the last dirty access (``Tavg`` bookkeeping).
    #: Values are carried verbatim (int or float) — converting would
    #: perturb interval arithmetic and break bit-identity.
    last_dirty_access: List[Optional[float]]
    policy: PolicySnapshot
    stats: dict
    protection: dict


@dataclasses.dataclass
class MemorySnapshot:
    """State of the sparse backing memory."""

    blocks: Dict[int, bytes]
    reads: int
    writes: int


@dataclasses.dataclass
class HierarchySnapshot:
    """One warm :class:`MemoryHierarchy`: every level plus main memory."""

    caches: List[CacheSnapshot]
    memory: MemorySnapshot


@dataclasses.dataclass
class CacheDelta:
    """How one cache level differs from a :class:`CacheSnapshot`.

    Only lines and units that differ are carried; the clock, statistics
    and protection state are small and carried whole.
    """

    #: ``(line, valid, tag)`` of every line whose valid bit or tag differs.
    lines: List[Tuple[int, int, int]]
    #: ``(unit, data, dirty, check, last_dirty_access)`` of every unit
    #: slot that differs, including every unit of a line in ``lines``.
    units: List[Tuple[int, bytes, bool, int, Optional[float]]]
    #: ``(set_index, way order)`` of every set whose LRU recency or FIFO
    #: fill order differs.
    orders: List[Tuple[int, List[int]]]
    #: ``random.getstate()`` of a :class:`RandomPolicy`, else ``None``.
    rng_state: Optional[tuple]
    access_counter: float
    stats: dict
    protection: dict


@dataclasses.dataclass
class MemoryDelta:
    """Blocks that differ from a :class:`MemorySnapshot`, in the memory's
    own order, plus its counters."""

    blocks: Dict[int, bytes]
    reads: int
    writes: int


@dataclasses.dataclass
class HierarchyDelta:
    """How a :class:`MemoryHierarchy` differs from a
    :class:`HierarchySnapshot`: one delta per level plus main memory."""

    caches: List[CacheDelta]
    memory: MemoryDelta


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
def _snapshot_policy(cache: Cache) -> PolicySnapshot:
    policy = cache.policy
    if isinstance(policy, LRUPolicy):
        return PolicySnapshot(kind="lru", order=list(policy._order))
    if isinstance(policy, FIFOPolicy):
        return PolicySnapshot(kind="fifo", order=list(policy._queues))
    if isinstance(policy, RandomPolicy):
        return PolicySnapshot(kind="random", rng_state=policy._rng.getstate())
    raise SnapshotError(
        f"{cache.name}: cannot snapshot replacement policy "
        f"{type(policy).__name__}"
    )


def _snapshot_protection(cache: Cache) -> dict:
    scheme = cache.protection
    name = scheme.name
    if name in _STATELESS_SCHEMES:
        return {}
    if name == "cppc":
        return {
            "pairs": [
                (p.r1, p.r2, p.r1_parity, p.r2_parity)
                for p in scheme.registers.pairs
            ],
            "recoveries": scheme.recoveries,
            "register_repairs": scheme.register_repairs,
        }
    if name == "2d-parity":
        return {"vertical": scheme.vertical_register.value}
    raise SnapshotError(f"{cache.name}: cannot snapshot protection scheme {name!r}")


def snapshot_cache(cache: Cache) -> CacheSnapshot:
    """Capture the complete state of one cache level."""
    if cache.tag_protection is not None:
        raise SnapshotError(
            f"{cache.name}: tag-protected caches are not snapshot-capable"
        )
    # Copy only the valid lines' tags, data and check words, leaving
    # every invalid line blank.
    bb = cache.block_bytes
    upb = cache.units_per_block
    tags = [0] * len(cache._tags)
    data = bytearray(len(cache._data))
    check = [0] * len(cache._check)
    for set_index, way in cache.resident_lines():
        line = set_index * cache.ways + way
        tags[line] = cache._tags[line]
        off = line * bb
        data[off : off + bb] = cache._data[off : off + bb]
        u0 = line * upb
        check[u0 : u0 + upb] = cache._check[u0 : u0 + upb]
    return CacheSnapshot(
        name=cache.name,
        size_bytes=cache.size_bytes,
        ways=cache.ways,
        block_bytes=cache.block_bytes,
        unit_bytes=cache.unit_bytes,
        scheme=cache.protection.name,
        access_counter=cache._access_counter,
        valid=bytes(cache._valid),
        tags=tags,
        data=bytes(data),
        dirty=list(cache._dirty),
        check=check,
        last_dirty_access=list(cache._last_dirty),
        policy=_snapshot_policy(cache),
        stats=dataclasses.asdict(cache.stats),
        protection=_snapshot_protection(cache),
    )


def snapshot_memory(memory: MainMemory) -> MemorySnapshot:
    """Capture the backing memory (blocks plus access counters)."""
    return MemorySnapshot(
        blocks=dict(memory._blocks),
        reads=memory.reads,
        writes=memory.writes,
    )


def snapshot_hierarchy(hierarchy: MemoryHierarchy) -> HierarchySnapshot:
    """Capture every cache level and main memory of a hierarchy."""
    return HierarchySnapshot(
        caches=[snapshot_cache(level) for level in hierarchy.levels()],
        memory=snapshot_memory(hierarchy.memory),
    )


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def _check_target(snap: CacheSnapshot, cache: Cache) -> None:
    for field in ("name", "size_bytes", "ways", "block_bytes", "unit_bytes"):
        want = getattr(snap, field)
        have = getattr(cache, field)
        if want != have:
            raise SnapshotError(
                f"snapshot of {snap.name!r} does not fit target cache: "
                f"{field} {want!r} != {have!r}"
            )
    if cache.protection.name != snap.scheme:
        raise SnapshotError(
            f"snapshot of {snap.name!r} was taken under scheme "
            f"{snap.scheme!r}, target runs {cache.protection.name!r}"
        )
    if cache.tag_protection is not None:
        raise SnapshotError(
            f"{cache.name}: tag-protected caches are not snapshot-capable"
        )


def _restore_policy(
    snap: PolicySnapshot, cache: Cache, runs: Optional[List[List[int]]]
) -> None:
    """Load the policy state: the way orders of the sets in ``runs``
    (:func:`_set_runs`; every set when None), or a
    :class:`RandomPolicy`'s RNG."""
    policy = cache.policy
    expected = {"lru": LRUPolicy, "fifo": FIFOPolicy, "random": RandomPolicy}
    if snap.kind not in expected:
        raise SnapshotError(f"unknown policy snapshot kind {snap.kind!r}")
    if not isinstance(policy, expected[snap.kind]):
        raise SnapshotError(
            f"{cache.name}: snapshot holds {snap.kind} policy state, target "
            f"policy is {type(policy).__name__}"
        )
    if snap.kind == "random":
        policy._rng.setstate(snap.rng_state)
        return
    order = _order_of(policy)
    if runs is None:
        order[:] = snap.order
        return
    ways = cache.ways
    for lo, hi in runs:
        order[lo * ways : hi * ways] = snap.order[lo * ways : hi * ways]


def _restore_protection(name: str, state: dict, cache: Cache) -> None:
    scheme = cache.protection
    if name in _STATELESS_SCHEMES:
        return
    if name == "cppc":
        pairs = scheme.registers.pairs
        if len(state["pairs"]) != len(pairs):
            raise SnapshotError(
                f"{cache.name}: snapshot holds {len(state['pairs'])} CPPC "
                f"register pairs, target has {len(pairs)}"
            )
        for pair, (r1, r2, r1_parity, r2_parity) in zip(pairs, state["pairs"]):
            pair.r1 = r1
            pair.r2 = r2
            pair.r1_parity = r1_parity
            pair.r2_parity = r2_parity
        scheme.recoveries = state["recoveries"]
        scheme.register_repairs = state["register_repairs"]
        scheme.recovery_log.clear()
        return
    if name == "2d-parity":
        scheme.vertical_register._register = state["vertical"]
        return
    raise SnapshotError(f"{cache.name}: cannot restore protection scheme {name!r}")


def _restore_stats(stats_dict: dict) -> CacheStats:
    fields = dict(stats_dict)
    fields["dirty_interval_histogram"] = dict(fields["dirty_interval_histogram"])
    return CacheStats(**fields)


#: A run of consecutive sets costs :func:`restore_cache` a few slice
#: assignments, about as much as copying this many sets within a whole
#: level; at fewer sets per run it copies the whole level.
_RUN_SETS = 32


def _set_runs(sets: Iterable[int], num_sets: int) -> Optional[List[List[int]]]:
    """``sets`` as sorted runs ``[lo, hi]`` of consecutive sets (``hi``
    exclusive), or None where copying all ``num_sets`` sets is cheaper."""
    runs: List[List[int]] = []
    for set_index in sorted(sets):
        if runs and runs[-1][1] == set_index:
            runs[-1][1] += 1
        else:
            runs.append([set_index, set_index + 1])
            if len(runs) * _RUN_SETS >= num_sets:
                return None
    return runs


def restore_cache(
    snap: CacheSnapshot, cache: Cache, sets: Optional[Iterable[int]] = None
) -> Cache:
    """Load a snapshot into a cache of identical configuration.

    Every line, unit, replacement, statistics and protection container of
    the target is overwritten, so the target may be freshly built or may
    already have simulated anything: afterwards
    ``snapshot_cache(cache) == snap``.

    With ``sets``, only those sets' lines, units and way orders are
    loaded (or, where they are many, every set's); every other set must
    already hold the snapshot's, as in a cache restored from ``snap``
    that has changed nothing outside ``sets`` since.  The clock,
    statistics, replacement RNG and protection state are loaded whole
    either way.
    """
    _check_target(snap, cache)
    runs = None if sets is None else _set_runs(sets, cache.num_sets)
    if runs is None:
        cache._valid[:] = snap.valid
        cache._tags[:] = snap.tags
        cache._data[:] = snap.data
        cache._dirty[:] = snap.dirty
        cache._check[:] = snap.check
        cache._last_dirty[:] = snap.last_dirty_access
    else:
        ways = cache.ways
        upb = cache.units_per_block
        bb = cache.block_bytes
        for lo, hi in runs:
            l0, l1 = lo * ways, hi * ways
            u0, u1 = l0 * upb, l1 * upb
            cache._valid[l0:l1] = snap.valid[l0:l1]
            cache._tags[l0:l1] = snap.tags[l0:l1]
            cache._data[l0 * bb : l1 * bb] = snap.data[l0 * bb : l1 * bb]
            cache._dirty[u0:u1] = snap.dirty[u0:u1]
            cache._check[u0:u1] = snap.check[u0:u1]
            cache._last_dirty[u0:u1] = snap.last_dirty_access[u0:u1]
    cache._access_counter = snap.access_counter
    cache.stats = _restore_stats(snap.stats)
    _restore_policy(snap.policy, cache, runs)
    _restore_protection(snap.scheme, snap.protection, cache)
    return cache


def restore_memory(snap: MemorySnapshot, memory: MainMemory) -> MainMemory:
    """Load a memory snapshot into a :class:`MainMemory`, replacing its
    blocks and counters."""
    memory._blocks = dict(snap.blocks)
    memory.reads = snap.reads
    memory.writes = snap.writes
    return memory


def _check_levels(count: int, hierarchy: MemoryHierarchy) -> list:
    levels = hierarchy.levels()
    if len(levels) != count:
        raise SnapshotError(
            f"snapshot holds {count} cache levels, target hierarchy has "
            f"{len(levels)}"
        )
    return levels


def restore_hierarchy(
    snap: HierarchySnapshot,
    hierarchy: MemoryHierarchy,
    sets: Optional[Sequence[Optional[Iterable[int]]]] = None,
) -> MemoryHierarchy:
    """Load a hierarchy snapshot into a hierarchy, overwriting its state.

    The target must have the same level structure and per-level
    configuration (geometry, scheme, policy) as the hierarchy the
    snapshot was taken from; what it simulated before does not matter.

    ``sets``, as in :func:`diff_hierarchy`, holds per level (innermost
    first) the sets to load, None for the whole level
    (:func:`restore_cache`): a hierarchy restored from ``snap`` that has
    changed no other set since then holds the snapshot's state again.
    Main memory is loaded whole.  None loads every level whole.
    """
    levels = _check_levels(len(snap.caches), hierarchy)
    if sets is None:
        sets = [None] * len(levels)
    for cache_snap, cache, level_sets in zip(snap.caches, levels, sets):
        restore_cache(cache_snap, cache, level_sets)
    restore_memory(snap.memory, hierarchy.memory)
    return hierarchy


# ----------------------------------------------------------------------
# Deltas
# ----------------------------------------------------------------------
def _order_of(policy) -> Optional[List[int]]:
    """The flat per-set way order of an LRU or FIFO policy, else None."""
    if isinstance(policy, LRUPolicy):
        return policy._order
    if isinstance(policy, FIFOPolicy):
        return policy._queues
    return None


def _unit_differs(base: CacheSnapshot, cache: Cache, ui: int) -> bool:
    ub = cache.unit_bytes
    off = ui * ub
    stamp = cache._last_dirty[ui]
    base_stamp = base.last_dirty_access[ui]
    return (
        cache._data[off : off + ub] != base.data[off : off + ub]
        or cache._dirty[ui] != base.dirty[ui]
        or cache._check[ui] != base.check[ui]
        # A dirty-cycle stamp is carried verbatim, int or float.
        or stamp != base_stamp
        or type(stamp) is not type(base_stamp)
    )


def _diff_cache(base: CacheSnapshot, cache: Cache, sets: Iterable[int]) -> CacheDelta:
    """How ``cache`` differs from ``base`` in ``sets``, which must hold
    every set whose lines or order may differ.

    A line whose valid bit or tag differs is carried with all its units
    (blank when it is now invalid); in any other valid line only the
    units that differ are carried.
    """
    _check_target(base, cache)
    ways = cache.ways
    upb = cache.units_per_block
    ub = cache.unit_bytes
    valid, tags, data = cache._valid, cache._tags, cache._data
    dirty, check, stamps = cache._dirty, cache._check, cache._last_dirty
    order = _order_of(cache.policy)
    blank = bytes(ub)
    lines: List[Tuple[int, int, int]] = []
    units: List[Tuple[int, bytes, bool, int, Optional[float]]] = []
    orders: List[Tuple[int, List[int]]] = []
    for set_index in sorted(sets):
        lo = set_index * ways
        if order is not None:
            way_order = order[lo : lo + ways]
            if way_order != base.policy.order[lo : lo + ways]:
                orders.append((set_index, way_order))
        for line in range(lo, lo + ways):
            u0 = line * upb
            is_valid = valid[line]
            if is_valid != base.valid[line] or (
                is_valid and tags[line] != base.tags[line]
            ):
                lines.append((line, is_valid, tags[line] if is_valid else 0))
                changed = range(u0, u0 + upb)
            elif is_valid:
                changed = [
                    ui for ui in range(u0, u0 + upb) if _unit_differs(base, cache, ui)
                ]
            else:
                continue
            for ui in changed:
                if is_valid:
                    unit = bytes(data[ui * ub : (ui + 1) * ub])
                    units.append((ui, unit, dirty[ui], check[ui], stamps[ui]))
                else:
                    units.append((ui, blank, False, 0, None))
    policy = cache.policy
    return CacheDelta(
        lines=lines,
        units=units,
        orders=orders,
        rng_state=(
            policy._rng.getstate() if isinstance(policy, RandomPolicy) else None
        ),
        access_counter=cache._access_counter,
        stats=dataclasses.asdict(cache.stats),
        protection=_snapshot_protection(cache),
    )


def _apply_cache_delta(delta: CacheDelta, cache: Cache) -> None:
    """Write a :func:`_diff_cache` delta into ``cache``; every line and
    unit it does not name keeps its current state."""
    valid, tags, data = cache._valid, cache._tags, cache._data
    dirty, check, stamps = cache._dirty, cache._check, cache._last_dirty
    ub = cache.unit_bytes
    for line, is_valid, tag in delta.lines:
        valid[line] = is_valid
        tags[line] = tag
    for ui, unit, is_dirty, word, stamp in delta.units:
        data[ui * ub : (ui + 1) * ub] = unit
        dirty[ui] = is_dirty
        check[ui] = word
        stamps[ui] = stamp
    order = _order_of(cache.policy)
    ways = cache.ways
    for set_index, way_order in delta.orders:
        order[set_index * ways : (set_index + 1) * ways] = way_order
    if delta.rng_state is not None:
        cache.policy._rng.setstate(delta.rng_state)
    cache._access_counter = delta.access_counter
    cache.stats = _restore_stats(delta.stats)
    _restore_protection(cache.protection.name, delta.protection, cache)


def _diff_memory(base: MemorySnapshot, memory: MainMemory) -> MemoryDelta:
    """The blocks of ``memory`` that differ from ``base``, in the memory's
    order (blocks are never removed, so applying them with ``dict.update``
    also rebuilds that order)."""
    old = base.blocks
    return MemoryDelta(
        blocks={a: b for a, b in memory._blocks.items() if old.get(a) != b},
        reads=memory.reads,
        writes=memory.writes,
    )


def _carry(
    previous: CacheDelta, fresh: CacheDelta, sets: Iterable[int], cache: Cache
) -> CacheDelta:
    """``fresh``, a diff over ``sets``, completed with the lines, units
    and orders ``previous`` holds in every other set, each list in slot
    order as :func:`_diff_cache` makes it."""
    sets = frozenset(sets)
    ways = cache.ways
    per_set = ways * cache.units_per_block
    first = itemgetter(0)
    fresh.lines = sorted(
        [e for e in previous.lines if e[0] // ways not in sets] + fresh.lines,
        key=first,
    )
    fresh.units = sorted(
        [e for e in previous.units if e[0] // per_set not in sets] + fresh.units,
        key=first,
    )
    fresh.orders = sorted(
        [e for e in previous.orders if e[0] not in sets] + fresh.orders, key=first
    )
    return fresh


def diff_hierarchy(
    base: HierarchySnapshot,
    hierarchy: MemoryHierarchy,
    sets: Sequence[Iterable[int]],
    previous: Optional[HierarchyDelta] = None,
) -> HierarchyDelta:
    """How ``hierarchy`` differs from ``base``.

    ``sets`` holds, per level (innermost first), every set whose lines
    or replacement order may differ, such as the sets a run since the
    snapshot reached; the others are not compared.  With ``previous``,
    a delta against ``base`` taken earlier, ``sets`` need only hold the
    sets that may have changed since: every other set's lines, units and
    order are carried from ``previous``.  Main memory and the
    whole-cache state are always compared whole.
    """
    levels = _check_levels(len(base.caches), hierarchy)
    caches = [
        _diff_cache(snap, cache, level_sets)
        for snap, cache, level_sets in zip(base.caches, levels, sets)
    ]
    if previous is not None:
        caches = [
            _carry(old, fresh, level_sets, cache)
            for old, fresh, level_sets, cache in zip(
                previous.caches, caches, sets, levels
            )
        ]
    return HierarchyDelta(
        caches=caches, memory=_diff_memory(base.memory, hierarchy.memory)
    )


def apply_delta(delta: HierarchyDelta, hierarchy: MemoryHierarchy) -> MemoryHierarchy:
    """Write a :func:`diff_hierarchy` delta into ``hierarchy``.

    Applied to a restore of the snapshot the delta was taken against,
    the result equals the diffed hierarchy (``snapshot_hierarchy``
    equality, memory block order included).  Applied to such a restore
    after some of its units were changed, it keeps those changes in
    every unit the delta does not name.
    """
    levels = _check_levels(len(delta.caches), hierarchy)
    for cache_delta, cache in zip(delta.caches, levels):
        _apply_cache_delta(cache_delta, cache)
    memory = hierarchy.memory
    memory._blocks.update(delta.memory.blocks)
    memory.reads = delta.memory.reads
    memory.writes = delta.memory.writes
    return hierarchy


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
#: Protection-state entries that are statistics, not state.
_PROTECTION_COUNTERS = ("recoveries", "register_repairs")


def _protection_state(protection: dict) -> dict:
    """A protection snapshot without its statistics."""
    return {k: v for k, v in protection.items() if k not in _PROTECTION_COUNTERS}


def same_state(a: HierarchyDelta, b: HierarchyDelta) -> bool:
    """Whether two deltas against one snapshot describe the same state up
    to statistics.

    Compares every level's lines, units (data, dirty bits, check words,
    dirty-cycle stamps), replacement state, clock and protection
    registers, and main memory's blocks.  Left out: :class:`CacheStats`,
    CPPC's ``recoveries``/``register_repairs`` counters and memory's
    read/write counts.  A hierarchy's further simulation reads no
    statistics, so two hierarchies in the same state go on to make the
    same accesses, detections and memory writes.
    """
    return a.memory.blocks == b.memory.blocks and all(
        x.lines == y.lines
        and x.units == y.units
        and x.orders == y.orders
        and x.rng_state == y.rng_state
        and x.access_counter == y.access_counter
        and _protection_state(x.protection) == _protection_state(y.protection)
        for x, y in zip(a.caches, b.caches)
    )
