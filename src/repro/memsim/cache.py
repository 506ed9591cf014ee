"""Set-associative write-back cache with real data storage and protection.

The cache stores actual bytes, per-unit dirty bits and per-unit check
words, so protection schemes (parity / SECDED / 2-D parity / CPPC) run for
real: fault injection flips stored bits, and a later access detects and —
scheme permitting — repairs them.

A *unit* is the protection granularity: a 64-bit word for an L1 cache, an
L1-block-sized chunk for an L2 cache (paper Section 3.5).  Dirty bits are
kept per unit, as the paper requires ("one dirty bit per word in the cache
tag array").

State lives in flat per-cache containers rather than per-line objects.
Line ``set_index * ways + way`` owns tag/valid slot ``line`` and unit
slots ``line * units_per_block`` onward in the dirty, check-word and
last-dirty-cycle lists; unit slot ``ui`` holds its data bytes at
``ui * unit_bytes`` of one data ``bytearray``.  A snapshot
copies a handful of containers and a restore is a handful of slice
assignments; no per-line object exists for the cyclic collector to scan.
A clean unit never carries a dirty-cycle stamp, and an invalid line
always holds clean units; its tag, data and check words may be stale.

Every L2 and L3 the program builds has lines of a single protection unit
(one block of the level above).  On such a cache, :meth:`Cache.flush`
drains the dirty lines inline in one pass instead of through the
per-access path, leaving exactly the state that path would.  A fault
campaign warms such an L2 on the batch engine instead
(:class:`~repro.memsim.batch.BatchReplayEngine`) and loads the snapshot
it returns.
"""

from __future__ import annotations

import collections.abc
from itertools import compress
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, SimulationError, UncorrectableError
from .address import AddressMapper
from .protection import (
    CacheProtection,
    FaultResolution,
    NoProtection,
    Resolution,
)
from .replacement import ReplacementPolicy, make_policy
from .stats import CacheStats
from .types import AccessResult, UnitLocation


class LineView(NamedTuple):
    """Copy of one line's state (tests, diagnostics, rare-path readers)."""

    valid: bool
    tag: int
    tag_check: int
    data: bytes
    dirty: List[bool]
    check: List[int]
    last_dirty_access: List[Optional[float]]

    def any_dirty(self) -> bool:
        """True when at least one unit of the line is dirty."""
        return True in self.dirty


class ResidentLocations(collections.abc.Sequence):
    """Index-only view of every valid unit's :class:`UnitLocation`, in
    :meth:`Cache.iter_units` order (fault-site sampling).

    Holds only the valid line indices, taken when the view is made; an
    element is built when it is read, so ``rng.choice`` draws a site
    without one location object per resident unit.  Integer indexes
    only (negative ones count from the end).
    """

    __slots__ = ("_lines", "_ways", "_upb")

    def __init__(self, lines: List[int], ways: int, units_per_block: int):
        self._lines = lines
        self._ways = ways
        self._upb = units_per_block

    def __len__(self) -> int:
        return len(self._lines) * self._upb

    def __getitem__(self, index: int) -> UnitLocation:
        # Floor division maps a negative index onto a negative line
        # index with a non-negative unit, which the list resolves; an
        # index past either end lands past the line list and raises.
        line, unit = divmod(index, self._upb)
        set_index, way = divmod(self._lines[line], self._ways)
        return UnitLocation(set_index, way, unit)


class Cache:
    """A single cache level.

    Args:
        name: label used in reports ("L1D", "L2", ...).
        size_bytes: total data capacity.
        ways: associativity.
        block_bytes: line size.
        unit_bytes: protection/dirty-bit granularity.
        protection: scheme instance (defaults to :class:`NoProtection`).
        next_level: object with ``read_block``/``write_block`` (another
            Cache or a :class:`~repro.memsim.mainmem.MainMemory`).
        policy: replacement policy name ("lru", "fifo", "random").
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        block_bytes: int,
        *,
        unit_bytes: int = 8,
        protection: Optional[CacheProtection] = None,
        next_level=None,
        policy: str = "lru",
        policy_seed: int = 0,
        write_through: bool = False,
        allocate_on_write: bool = True,
        tag_protection=None,
    ):
        if size_bytes % (ways * block_bytes):
            raise ConfigurationError(
                f"{name}: size {size_bytes} not divisible by ways*block "
                f"({ways}*{block_bytes})"
            )
        if write_through and next_level is None:
            raise ConfigurationError(
                f"{name}: a write-through cache needs a next level"
            )
        self.write_through = write_through
        self.allocate_on_write = allocate_on_write
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.block_bytes = block_bytes
        self.unit_bytes = unit_bytes
        self.num_sets = size_bytes // (ways * block_bytes)
        self.mapper = AddressMapper(
            block_bytes=block_bytes, num_sets=self.num_sets, unit_bytes=unit_bytes
        )
        self.units_per_block = self.mapper.units_per_block
        self.next_level = next_level
        self.stats = CacheStats()
        self.stats.configure(self.num_sets * ways * self.units_per_block)
        self.policy: ReplacementPolicy = make_policy(
            policy, self.num_sets, ways, seed=policy_seed
        )
        lines = self.num_sets * ways
        units = lines * self.units_per_block
        self._valid = bytearray(lines)
        self._tags: List[int] = [0] * lines
        self._tag_checks: Optional[List[int]] = (
            None if tag_protection is None else [0] * lines
        )
        self._data = bytearray(size_bytes)
        self._dirty: List[bool] = [False] * units
        self._check: List[int] = [0] * units
        self._last_dirty: List[Optional[float]] = [None] * units
        # Slice sources that reset one line's units on eviction/cleaning.
        self._clean_units = [False] * self.units_per_block
        self._no_stamps = [None] * self.units_per_block
        self.protection = protection or NoProtection()
        self.protection.attach(self)
        self.tag_protection = tag_protection
        if tag_protection is not None:
            tag_protection.attach(self)
        self._access_counter = 0.0
        # Trace sink + cached enabled flag: hot paths pay one branch.
        self._obs = None
        self._obs_on = False

    def set_observer(self, sink) -> None:
        """Attach a :class:`repro.obs.TraceSink` to this level (None
        detaches).  Propagates to the protection scheme."""
        self._obs = sink
        self._obs_on = bool(sink is not None and sink.enabled)
        self.protection.set_observer(sink)

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def total_units(self) -> int:
        """Capacity in protection units."""
        return self.num_sets * self.ways * self.units_per_block

    @property
    def unit_bits(self) -> int:
        """Width of one protection unit in bits."""
        return self.unit_bytes * 8

    def line(self, set_index: int, way: int) -> LineView:
        """A copy of one line's state (tests and diagnostics)."""
        line = set_index * self.ways + way
        upb = self.units_per_block
        u0 = line * upb
        off = line * self.block_bytes
        return LineView(
            valid=bool(self._valid[line]),
            tag=self._tags[line],
            tag_check=0 if self._tag_checks is None else self._tag_checks[line],
            data=bytes(self._data[off : off + self.block_bytes]),
            dirty=self._dirty[u0 : u0 + upb],
            check=self._check[u0 : u0 + upb],
            last_dirty_access=self._last_dirty[u0 : u0 + upb],
        )

    def resident_lines(self) -> Iterator[Tuple[int, int]]:
        """``(set_index, way)`` of every valid line, set by set, way by way."""
        valid = self._valid
        ways = self.ways
        line = valid.find(1)
        while line >= 0:
            yield divmod(line, ways)
            line = valid.find(1, line + 1)

    def stored_check(self, loc: UnitLocation) -> int:
        """The check word stored for the unit at ``loc``."""
        line = loc.set_index * self.ways + loc.way
        return self._check[line * self.units_per_block + loc.unit_index]

    def _line_of(self, addr: int) -> int:
        """Line index holding ``addr``, or -1 when it is not resident."""
        base = self.mapper.set_index(addr) * self.ways
        tag = self.mapper.tag(addr)
        valid = self._valid
        tags = self._tags
        for line in range(base, base + self.ways):
            if valid[line] and tags[line] == tag:
                return line
        return -1

    def locate(self, addr: int) -> Optional[UnitLocation]:
        """Location of the unit holding ``addr``, or None if not resident."""
        line = self._line_of(addr)
        if line < 0:
            return None
        set_index, way = divmod(line, self.ways)
        return UnitLocation(set_index, way, self.mapper.unit_index(addr))

    def peek_byte(self, addr: int) -> Optional[int]:
        """The byte this level holds at ``addr``, or None if not resident."""
        line = self._line_of(addr)
        if line < 0:
            return None
        return self._data[line * self.block_bytes + self.mapper.block_offset(addr)]

    def address_of(self, loc: UnitLocation) -> int:
        """Byte address of the first byte of the unit at ``loc``."""
        tag = self._tags[loc.set_index * self.ways + loc.way]
        base = self.mapper.rebuild_address(tag, loc.set_index)
        return base + loc.unit_index * self.unit_bytes

    # ------------------------------------------------------------------
    # Unit-level raw access (fault injection, schemes, tests)
    # ------------------------------------------------------------------
    def _unit_value(self, ui: int) -> int:
        off = ui * self.unit_bytes
        return int.from_bytes(self._data[off : off + self.unit_bytes], "big")

    def _set_unit_value(self, ui: int, value: int) -> None:
        off = ui * self.unit_bytes
        self._data[off : off + self.unit_bytes] = value.to_bytes(self.unit_bytes, "big")

    def _unit_values(self, line: int) -> List[int]:
        """Every unit value of a line, in unit order."""
        data = self._data
        ub = self.unit_bytes
        start = line * self.block_bytes
        return [
            int.from_bytes(data[off : off + ub], "big")
            for off in range(start, start + self.block_bytes, ub)
        ]

    def _valid_unit(self, loc: UnitLocation, action: str) -> int:
        """Unit slot of ``loc``; raises when its line is invalid."""
        line = loc.set_index * self.ways + loc.way
        if not self._valid[line]:
            raise SimulationError(f"{self.name}: {action} invalid line {loc}")
        return line * self.units_per_block + loc.unit_index

    def peek_unit(self, loc: UnitLocation) -> Tuple[int, int, bool]:
        """(value, check, dirty) of the unit at ``loc`` without an access."""
        line = loc.set_index * self.ways + loc.way
        if not self._valid[line]:
            raise SimulationError(f"{self.name}: no valid line at {loc}")
        ui = line * self.units_per_block + loc.unit_index
        return self._unit_value(ui), self._check[ui], self._dirty[ui]

    def corrupt_data(self, loc: UnitLocation, xor_mask: int) -> None:
        """Flip data bits of a resident unit without touching check bits."""
        ui = self._valid_unit(loc, "cannot corrupt")
        self._set_unit_value(ui, self._unit_value(ui) ^ xor_mask)

    def corrupt_check(self, loc: UnitLocation, xor_mask: int) -> None:
        """Flip stored check bits of a resident unit."""
        self._check[self._valid_unit(loc, "cannot corrupt")] ^= xor_mask

    def reset_stats(self) -> None:
        """Zero the statistics while keeping cache contents (post-warmup).

        Dirty-occupancy integration restarts from the current dirty-unit
        count and clock, so time-averaged metrics reflect only the
        measurement window.  The stats clock can legitimately sit ahead
        of the access counter — drivers close an integration window with
        ``stats.advance_to(end_cycle)`` — so the restart point is the
        later of the two; rewinding to the access counter would silently
        re-integrate (or drop) part of the warmup window and skew
        ``dirty_fraction``/``tavg_cycles``.
        """
        last = max(self._access_counter, self.stats._last_event_cycle)
        self._access_counter = last
        fresh = CacheStats()
        fresh.configure(self.total_units)
        fresh._last_event_cycle = last
        fresh._current_dirty_units = self.dirty_unit_count()
        self.stats = fresh

    def corrupt_tag(self, set_index: int, way: int, xor_mask: int) -> None:
        """Flip bits of a stored tag (tag-array fault injection)."""
        line = set_index * self.ways + way
        if not self._valid[line]:
            raise SimulationError(
                f"{self.name}: cannot corrupt the tag of an invalid line"
            )
        self._tags[line] ^= xor_mask

    def repair_unit(self, loc: UnitLocation, value: int) -> None:
        """Overwrite a unit with its recovered value and fresh check bits.

        Used by protection schemes that repair units *other than* the one
        whose access triggered recovery (e.g. CPPC spatial multi-bit
        correction fixes several words in one recovery pass).
        """
        ui = self._valid_unit(loc, "cannot repair")
        self._set_unit_value(ui, value)
        self._check[ui] = self.protection.encode(value)
        self.stats.corrected_faults += 1

    def iter_units(self) -> Iterator[Tuple[UnitLocation, int, bool]]:
        """Yield ``(location, value, dirty)`` for every valid unit, set by
        set, way by way, unit by unit."""
        valid = self._valid
        data = self._data
        dirty = self._dirty
        ways = self.ways
        upb = self.units_per_block
        ub = self.unit_bytes
        bb = self.block_bytes
        line = valid.find(1)
        while line >= 0:
            set_index, way = divmod(line, ways)
            ui = line * upb
            off = line * bb
            for u in range(upb):
                yield (
                    UnitLocation(set_index, way, u),
                    int.from_bytes(data[off : off + ub], "big"),
                    dirty[ui + u],
                )
                off += ub
            line = valid.find(1, line + 1)

    def iter_dirty_units(self) -> Iterator[Tuple[UnitLocation, int]]:
        """Yield ``(location, value)`` for every dirty unit, in
        :meth:`iter_units` order.

        ``itertools.compress`` filters the flat dirty list, so the
        Python-level work is per dirty unit, not per resident unit
        (invalid lines hold only clean units).  Fault injection and the
        fuzz oracles pick dirty sites from it; CPPC's recovery scan reads
        the same units in bulk through :meth:`dirty_unit_arrays`.
        """
        ways = self.ways
        upb = self.units_per_block
        ub = self.unit_bytes
        data = self._data
        for ui in compress(range(len(self._dirty)), self._dirty):
            line, u = divmod(ui, upb)
            set_index, way = divmod(line, ways)
            off = ui * ub
            yield (
                UnitLocation(set_index, way, u),
                int.from_bytes(data[off : off + ub], "big"),
            )

    def dirty_unit_arrays(self) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """The dirty units in :meth:`iter_dirty_units` order, in bulk.

        Returns their unit slots (an ``int64`` array), their bytes (an
        ``(n, unit_bytes)`` ``uint8`` matrix, each row MSB first) and
        their stored check words.  :meth:`slot_location` names a slot.
        """
        dirty = self._dirty
        slots = np.flatnonzero(np.frombuffer(bytearray(dirty), dtype=np.uint8))
        units = np.frombuffer(self._data, dtype=np.uint8).reshape(-1, self.unit_bytes)
        return slots, units[slots], list(compress(self._check, dirty))

    def slot_location(self, ui: int) -> UnitLocation:
        """Location of the unit in slot ``ui``."""
        line, u = divmod(ui, self.units_per_block)
        set_index, way = divmod(line, self.ways)
        return UnitLocation(set_index, way, u)

    def resident_locations(self) -> Sequence[UnitLocation]:
        """Locations of all valid units (fault-site sampling), in
        :meth:`iter_units` order, as a :class:`ResidentLocations` view
        that builds a location only when it is read."""
        lines = list(compress(range(len(self._valid)), self._valid))
        return ResidentLocations(lines, self.ways, self.units_per_block)

    def resident_unit_count(self) -> int:
        """Number of units in valid lines."""
        return self._valid.count(1) * self.units_per_block

    def dirty_unit_count(self) -> int:
        """Number of currently dirty units."""
        # Invalid lines hold only clean units.
        return self._dirty.count(True)

    # ------------------------------------------------------------------
    # Verification plumbing
    # ------------------------------------------------------------------
    def _verify_unit(self, ui: int, set_index: int, way: int, unit_index: int) -> bool:
        """Check the unit in slot ``ui``; repair or refetch on detection.

        Returns True when a fault was detected (and handled).  Raises
        :class:`UncorrectableError` on a DUE.
        """
        ub = self.unit_bytes
        off = ui * ub
        value = int.from_bytes(self._data[off : off + ub], "big")
        check = self._check[ui]
        inspection = self.protection.inspect(value, check)
        if not inspection.detected:
            return False
        loc = UnitLocation(set_index, way, unit_index)
        self.stats.detected_faults += 1
        dirty = self._dirty[ui]
        if self._obs_on:
            self._obs.emit(
                "cache",
                "fault-detected",
                {"level": self.name, "loc": list(loc), "dirty": dirty},
            )
        resolution = self.protection.handle_fault(loc, value, check, inspection, dirty)
        self._apply_resolution(ui, loc, resolution)
        return True

    def _apply_resolution(
        self, ui: int, loc: UnitLocation, resolution: FaultResolution
    ) -> None:
        if resolution.kind is Resolution.CORRECTED:
            if resolution.value is None:
                raise SimulationError("corrected resolution without a value")
            self._set_unit_value(ui, resolution.value)
            self._check[ui] = self.protection.encode(resolution.value)
            self.stats.corrected_faults += 1
            if self._obs_on:
                self._obs.emit(
                    "cache",
                    "corrected",
                    {"level": self.name, "loc": list(loc)},
                )
            return
        if resolution.kind is Resolution.REFETCH:
            if self._dirty[ui]:
                raise SimulationError(
                    f"{self.name}: refetch resolution for dirty unit {loc}"
                )
            if self.next_level is None:
                raise UncorrectableError(
                    f"{self.name}: clean fault at {loc} but no next level to refetch"
                )
            tag = self._tags[ui // self.units_per_block]
            base = self.mapper.rebuild_address(tag, loc.set_index)
            block = self.next_level.read_block(base, cycle=self._access_counter)
            off = loc.unit_index * self.unit_bytes
            fresh = int.from_bytes(block[off : off + self.unit_bytes], "big")
            self._set_unit_value(ui, fresh)
            self._check[ui] = self.protection.encode(fresh)
            self.stats.corrected_faults += 1
            self.stats.refetch_corrections += 1
            if self._obs_on:
                self._obs.emit(
                    "cache",
                    "refetch",
                    {"level": self.name, "loc": list(loc)},
                )
            return
        raise SimulationError(f"unknown resolution {resolution.kind}")

    # ------------------------------------------------------------------
    # Lookup / fill / evict
    # ------------------------------------------------------------------
    def _find(self, set_index: int, tag: int) -> Optional[int]:
        base = set_index * self.ways
        tags = self._tags
        tag_protection = self.tag_protection
        if tag_protection is None:
            for line in range(base, base + self.ways):
                if tags[line] == tag and self._valid[line]:
                    return line - base
            return None
        # Every valid way's tag is checked, in way order, up to the match.
        for line in range(base, base + self.ways):
            if not self._valid[line]:
                continue
            recovered = tag_protection.verify(
                set_index, line - base, tags[line], self._tag_checks[line]
            )
            if recovered is not None:
                tags[line] = recovered
                self.stats.corrected_faults += 1
                self.stats.detected_faults += 1
            if tags[line] == tag:
                return line - base
        return None

    def _pick_victim(self, set_index: int) -> int:
        base = set_index * self.ways
        empty = self._valid.find(0, base, base + self.ways)
        if empty >= 0:
            return empty - base
        return self.policy.victim(set_index)

    def _evict(self, set_index: int, way: int) -> bool:
        """Remove the line at (set, way).  Returns True on a dirty writeback."""
        line = set_index * self.ways + way
        if not self._valid[line]:
            return False
        upb = self.units_per_block
        u0 = line * upb
        # Checking units on the way out repairs data, never dirty bits.
        dirty_units = self._dirty[u0 : u0 + upb]
        dirty_count = dirty_units.count(True)
        wrote_back = dirty_count > 0
        if wrote_back:
            # The whole block is read for write-back; every unit is
            # therefore checked on the way out.
            for u in range(upb):
                self._verify_unit(u0 + u, set_index, way, u)
            if self.next_level is None:
                raise SimulationError(f"{self.name}: dirty eviction with no next level")
            base = self.mapper.rebuild_address(self._tags[line], set_index)
            off = line * self.block_bytes
            self.next_level.write_block(
                base,
                bytes(self._data[off : off + self.block_bytes]),
                cycle=self._access_counter,
            )
            self.stats.writebacks += 1
            self.stats.evictions_dirty += 1
        else:
            self.stats.evictions_clean += 1
        if wrote_back or self.protection.tracks_clean_lines:
            self.protection.on_evict(
                set_index, way, self._unit_values(line), dirty_units
            )
        if dirty_count:
            self.stats.dirty_units_changed(-dirty_count)
        if self._obs_on:
            self._obs.emit(
                "cache",
                "evict",
                {
                    "level": self.name,
                    "set": set_index,
                    "way": way,
                    "writeback": wrote_back,
                    "dirty_units": dirty_count,
                },
            )
        if self.tag_protection is not None:
            self.tag_protection.on_remove(self._tags[line])
        self._valid[line] = 0
        self._dirty[u0 : u0 + upb] = self._clean_units
        self._last_dirty[u0 : u0 + upb] = self._no_stamps
        return wrote_back

    def _evict_dirty_unit_line(self, line: int, set_index: int, way: int) -> None:
        """:meth:`_evict` of the dirty line ``line`` of a single-unit-line
        cache with no observer, no tag protection and a scheme that does
        not track clean lines.

        Its unit is checked first, and a detection goes through
        :meth:`_verify_unit` (recovery, refetch or DUE).
        """
        bb = self.block_bytes
        off = line * bb
        data = self._data
        value = int.from_bytes(data[off : off + bb], "big")
        if self.protection.inspect(value, self._check[line]).detected:
            self._verify_unit(line, set_index, way, 0)
            value = int.from_bytes(data[off : off + bb], "big")
        if self.next_level is None:
            raise SimulationError(f"{self.name}: dirty eviction with no next level")
        self.next_level.write_block(
            self.mapper.rebuild_address(self._tags[line], set_index),
            bytes(data[off : off + bb]),
            cycle=self._access_counter,
        )
        stats = self.stats
        stats.writebacks += 1
        stats.evictions_dirty += 1
        self.protection.on_evict(set_index, way, [value], [True])
        stats.dirty_units_changed(-1)
        self._valid[line] = 0
        self._dirty[line] = False
        self._last_dirty[line] = None

    def _fill(self, set_index: int, tag: int, block: bytes) -> int:
        if len(block) != self.block_bytes:
            raise SimulationError(
                f"{self.name}: fill of {len(block)}B into a "
                f"{self.block_bytes}B line"
            )
        way = self._pick_victim(set_index)
        self._evict(set_index, way)
        line = set_index * self.ways + way
        self._valid[line] = 1
        self._tags[line] = tag
        if self.tag_protection is not None:
            self._tag_checks[line] = self.tag_protection.encode(tag)
            self.tag_protection.on_insert(tag)
        off = line * self.block_bytes
        self._data[off : off + self.block_bytes] = block
        values = self._unit_values(line)
        encode = self.protection.encode
        u0 = line * self.units_per_block
        self._check[u0 : u0 + self.units_per_block] = [encode(v) for v in values]
        self.protection.on_fill(set_index, way, values)
        self.stats.fills += 1
        self.policy.fill(set_index, way)
        return way

    # ------------------------------------------------------------------
    # Public access API
    # ------------------------------------------------------------------
    def _advance(self, cycle: Optional[float]) -> float:
        if cycle is None:
            self._access_counter += 1.0
            cycle = self._access_counter
        else:
            self._access_counter = max(self._access_counter, cycle)
            cycle = self._access_counter
        self.stats.advance_to(cycle)
        return cycle

    def _touch_dirty_interval(self, ui: int, cycle: float) -> None:
        last = self._last_dirty[ui]
        if last is not None:
            self.stats.record_dirty_interval(cycle - last)
        self._last_dirty[ui] = cycle

    def load(self, addr: int, size: int, cycle: Optional[float] = None) -> AccessResult:
        """Read ``size`` bytes at ``addr`` (naturally aligned, one line)."""
        now = self._advance(cycle)
        mapper = self.mapper
        mapper.check_access(addr, size)
        set_index = mapper.set_index(addr)
        tag = mapper.tag(addr)
        way = self._find(set_index, tag)
        hit = way is not None
        wrote_back = False
        if self._obs_on:
            self._obs.emit(
                "cache",
                "load",
                {"level": self.name, "addr": addr, "size": size, "hit": hit},
            )
        if hit:
            self.stats.read_hits += 1
        else:
            self.stats.read_misses += 1
            if self.next_level is None:
                raise SimulationError(f"{self.name}: miss with no next level")
            block = self.next_level.read_block(
                self.mapper.block_address(addr), cycle=now
            )
            writebacks_before = self.stats.writebacks
            way = self._fill(set_index, tag, block)
            wrote_back = self.stats.writebacks > writebacks_before
        u0 = (set_index * self.ways + way) * self.units_per_block
        dirty = self._dirty
        detected = False
        off = mapper.block_offset(addr)
        ub = self.unit_bytes
        for u in range(off // ub, (off + size - 1) // ub + 1):
            ui = u0 + u
            if self._verify_unit(ui, set_index, way, u):
                detected = True
            if dirty[ui]:
                self._touch_dirty_interval(ui, now)
        self.policy.touch(set_index, way)
        start = u0 * ub + off
        return AccessResult(
            hit=hit,
            data=bytes(self._data[start : start + size]),
            writeback=wrote_back,
            detected_fault=detected,
        )

    def store(
        self, addr: int, data: bytes, cycle: Optional[float] = None
    ) -> AccessResult:
        """Write ``data`` at ``addr`` (write-allocate, write-back)."""
        size = len(data)
        now = self._advance(cycle)
        mapper = self.mapper
        mapper.check_access(addr, size)
        set_index = mapper.set_index(addr)
        tag = mapper.tag(addr)
        way = self._find(set_index, tag)
        hit = way is not None
        wrote_back = False
        if self._obs_on:
            self._obs.emit(
                "cache",
                "store",
                {"level": self.name, "addr": addr, "size": size, "hit": hit},
            )
        if hit:
            self.stats.write_hits += 1
        else:
            self.stats.write_misses += 1
            if self.next_level is None:
                raise SimulationError(f"{self.name}: miss with no next level")
            if not self.allocate_on_write:
                # Write-no-allocate: merge the bytes straight into the
                # next level without disturbing this cache.
                base = self.mapper.block_address(addr)
                block = bytearray(self.next_level.read_block(base, cycle=now))
                off = self.mapper.block_offset(addr)
                block[off : off + size] = data
                self.next_level.write_block(base, bytes(block), cycle=now)
                return AccessResult(hit=False)
            block = self.next_level.read_block(
                self.mapper.block_address(addr), cycle=now
            )
            writebacks_before = self.stats.writebacks
            way = self._fill(set_index, tag, block)
            wrote_back = self.stats.writebacks > writebacks_before
        u0 = (set_index * self.ways + way) * self.units_per_block
        stored = self._data
        dirty = self._dirty
        check = self._check
        protection = self.protection
        detected = False
        off = mapper.block_offset(addr)
        ub = self.unit_bytes
        for u in range(off // ub, (off + size - 1) // ub + 1):
            ui = u0 + u
            loc = UnitLocation(set_index, way, u)
            was_dirty = dirty[ui]
            if was_dirty:
                self.stats.stores_to_dirty_units += 1
            unit_off = u * ub
            unit_end = unit_off + ub
            lo = max(off, unit_off)
            hi = min(off + size, unit_end)
            full_overwrite = lo == unit_off and hi == unit_end
            if protection.verify_on_store(was_dirty, not full_overwrite):
                # The old value is read (read-before-write); its parity is
                # checked so a latent fault cannot silently pollute the
                # scheme's correction state.
                if self._verify_unit(ui, set_index, way, u):
                    detected = True
            uoff = ui * ub
            unit = stored[uoff : uoff + ub]
            old = int.from_bytes(unit, "big")
            unit[lo - unit_off : hi - unit_off] = data[lo - off : hi - off]
            new = int.from_bytes(unit, "big")
            protection.on_unit_write(loc, old, new, was_dirty)
            stored[uoff : uoff + ub] = unit
            if full_overwrite:
                check[ui] = protection.encode(new)
            else:
                # A partial store updates the check bits by the delta of
                # the written bytes (the codes are linear), exactly like
                # hardware's parity read-modify-write.  A latent fault in
                # the unwritten bytes therefore stays detectable instead
                # of being silently re-encoded as valid.
                check[ui] ^= protection.encode(old ^ new)
            if not was_dirty:
                dirty[ui] = True
                self.stats.dirty_units_changed(+1)
            self._touch_dirty_interval(ui, now)
        self.policy.touch(set_index, way)
        if self.write_through:
            self._write_through_line(set_index, way, now)
        return AccessResult(hit=hit, writeback=wrote_back, detected_fault=detected)

    def _clean_in_place(self, set_index: int, way: int) -> None:
        """Hand a resident line's dirty units to the scheme and mark them
        clean; the line stays valid."""
        line = set_index * self.ways + way
        upb = self.units_per_block
        u0 = line * upb
        dirty_units = self._dirty[u0 : u0 + upb]
        dirty_count = sum(dirty_units)
        if not dirty_count:
            return
        self.protection.on_cleaned(set_index, way, self._unit_values(line), dirty_units)
        self.stats.dirty_units_changed(-dirty_count)
        self._dirty[u0 : u0 + upb] = self._clean_units
        self._last_dirty[u0 : u0 + upb] = self._no_stamps

    def _write_through_line(self, set_index: int, way: int, now: float) -> None:
        """Propagate a just-written line to the next level and clean it.

        Write-through keeps no dirty data (the reason parity alone is
        adequate for write-through L1 caches, paper Section 1).
        """
        line = set_index * self.ways + way
        base = self.mapper.rebuild_address(self._tags[line], set_index)
        off = line * self.block_bytes
        self.next_level.write_block(
            base, bytes(self._data[off : off + self.block_bytes]), cycle=now
        )
        self.stats.write_throughs += 1
        if self._obs_on:
            self._obs.emit(
                "cache",
                "writeback",
                {"level": self.name, "set": set_index, "way": way, "through": True},
            )
        self._clean_in_place(set_index, way)

    # ------------------------------------------------------------------
    # Next-level interface (used by an upper cache)
    # ------------------------------------------------------------------
    def read_block(self, block_addr: int, cycle: Optional[float] = None) -> bytes:
        """Serve a block read from the level above."""
        return self.load(block_addr, self.block_bytes, cycle=cycle).data

    def write_block(
        self, block_addr: int, data: bytes, cycle: Optional[float] = None
    ) -> None:
        """Absorb a write-back from the level above."""
        self.store(block_addr, data, cycle=cycle)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clean_line(self, set_index: int, way: int) -> bool:
        """Write a dirty line back but keep it resident and clean.

        The mechanism behind early write-back schemes ([2, 15] in the
        paper) and coherence downgrades.  Returns True when data moved.
        """
        line = set_index * self.ways + way
        upb = self.units_per_block
        u0 = line * upb
        if not self._valid[line] or True not in self._dirty[u0 : u0 + upb]:
            return False
        # The line is read for the write-back, so every unit is checked.
        for u in range(upb):
            self._verify_unit(u0 + u, set_index, way, u)
        if self.next_level is None:
            raise SimulationError(f"{self.name}: cannot clean with no next level")
        base = self.mapper.rebuild_address(self._tags[line], set_index)
        off = line * self.block_bytes
        self.next_level.write_block(
            base,
            bytes(self._data[off : off + self.block_bytes]),
            cycle=self._access_counter,
        )
        self.stats.writebacks += 1
        self._clean_in_place(set_index, way)
        return True

    def invalidate_address(self, addr: int) -> bool:
        """Remove the line holding ``addr`` (coherence invalidation).

        A dirty line is written back first.  Returns True when a line was
        actually removed.
        """
        set_index = self.mapper.set_index(addr)
        way = self._find(set_index, self.mapper.tag(addr))
        if way is None:
            return False
        self._evict(set_index, way)
        return True

    def downgrade_address(self, addr: int) -> bool:
        """Clean (but keep) the line holding ``addr`` — a shared-read
        coherence downgrade.  Returns True when dirty data was flushed."""
        set_index = self.mapper.set_index(addr)
        way = self._find(set_index, self.mapper.tag(addr))
        if way is None:
            return False
        return self.clean_line(set_index, way)

    def flush(self) -> int:
        """Write back and invalidate everything.  Returns write-back count.

        Only lines holding a dirty unit go through :meth:`_evict`, in line
        order, so every unit of each is still checked (and recovered) on
        its way out.  The clean lines ahead of each dirty line are
        dropped first, in one slice of the valid bytes counted into
        ``evictions_clean``, so a recovery inside the flush sees the same
        valid lines a line-by-line walk would.  Clean lines still go
        through :meth:`_evict` one by one when a trace observer or tag
        protection is attached, or when the scheme
        :attr:`~CacheProtection.tracks_clean_lines`: each of those has
        per-line work to do on a clean removal.  Otherwise, on a cache
        whose lines are one unit each (every L2 and L3), each dirty line
        is evicted inline on the same walk: its unit is inspected, a
        detection goes through :meth:`_verify_unit` exactly as in
        :meth:`_evict`, and the line is written back.  Each dirty line
        leaves through :meth:`_flush_line`, the per-line routine
        :meth:`flush_lines` shares.
        """
        one_by_one = self._flush_one_by_one()
        upb = self.units_per_block
        whole_lines = upb == 1 and not one_by_one
        count = 0
        done = 0  # lines below this one are already removed
        # ``compress`` reads each dirty bit as the walk reaches it, so the
        # later units of a line, cleaned by its eviction, are not visited.
        for ui in compress(range(len(self._dirty)), self._dirty):
            line = ui // upb
            if line > done:
                self._drop_clean_lines(done, line, one_by_one)
            count += self._flush_line(line, whole_lines)
            done = line + 1
        self._drop_clean_lines(done, len(self._valid), one_by_one)
        return count

    def flush_lines(self, lines: Iterable[int]) -> Dict[int, bytes]:
        """Evict, in line order, those of ``lines`` that :meth:`flush`
        reads, each exactly as its walk would, and return the block each
        one wrote back, by line.

        :meth:`flush` reads the valid lines holding a dirty unit, or
        every valid line when the scheme
        :attr:`~CacheProtection.tracks_clean_lines`.  Every other line
        stays as it is, so the result is a flush's only where the
        evictions left out cannot change what these lines read: a fault
        campaign settles a trial's flush at its struck lines this way
        (:func:`~repro.faults.campaign._flush_struck_lines`).
        Raises :class:`UncorrectableError` on a DUE, as :meth:`flush`
        would.
        """
        whole_lines = self.units_per_block == 1 and not self._flush_one_by_one()
        every_valid = self.protection.tracks_clean_lines
        upb = self.units_per_block
        bb = self.block_bytes
        written: Dict[int, bytes] = {}
        for line in sorted(lines):
            u0 = line * upb
            reads = every_valid or True in self._dirty[u0 : u0 + upb]
            if self._valid[line] and reads and self._flush_line(line, whole_lines):
                written[line] = bytes(self._data[line * bb : (line + 1) * bb])
        return written

    def _flush_one_by_one(self) -> bool:
        """Whether :meth:`flush` evicts clean lines one by one."""
        return (
            self._obs_on
            or self.tag_protection is not None
            or self.protection.tracks_clean_lines
        )

    def _flush_line(self, line: int, whole_lines: bool) -> bool:
        """Evict valid line ``line`` as :meth:`flush`'s walk does; True on
        a write-back.  ``whole_lines`` takes the inline single-unit kernel,
        which only a dirty line may."""
        set_index, way = divmod(line, self.ways)
        if whole_lines:
            self._evict_dirty_unit_line(line, set_index, way)
            return True
        return self._evict(set_index, way)

    def _drop_clean_lines(self, start: int, stop: int, one_by_one: bool) -> None:
        """Remove the valid lines in ``[start, stop)``, which are all clean."""
        valid = self._valid
        if one_by_one:
            line = valid.find(1, start, stop)
            while line >= 0:
                self._evict(*divmod(line, self.ways))
                line = valid.find(1, line + 1, stop)
            return
        # A clean line holds no dirty bit or dirty-cycle stamp to reset.
        dropped = valid.count(1, start, stop)
        if dropped:
            valid[start:stop] = bytes(stop - start)
            self.stats.evictions_clean += dropped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Cache {self.name} {self.size_bytes}B {self.ways}-way "
            f"{self.block_bytes}B-lines {self.protection.name}>"
        )
