"""Set-associative write-back cache with real data storage and protection.

The cache stores actual bytes, per-unit dirty bits and per-unit check
words, so protection schemes (parity / SECDED / 2-D parity / CPPC) run for
real: fault injection flips stored bits, and a later access detects and —
scheme permitting — repairs them.

A *unit* is the protection granularity: a 64-bit word for an L1 cache, an
L1-block-sized chunk for an L2 cache (paper Section 3.5).  Dirty bits are
kept per unit, as the paper requires ("one dirty bit per word in the cache
tag array").
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

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


class CacheLine:
    """One cache line: tag, data bytes, per-unit dirty bits and check words."""

    __slots__ = (
        "tag", "valid", "data", "dirty", "check", "last_dirty_access",
        "tag_check",
    )

    def __init__(self, block_bytes: int, units: int):
        self.tag = 0
        self.tag_check = 0
        self.valid = False
        self.data = bytearray(block_bytes)
        self.dirty: List[bool] = [False] * units
        self.check: List[int] = [0] * units
        self.last_dirty_access: List[Optional[float]] = [None] * units

    @classmethod
    def resident(
        cls,
        tag: int,
        tag_check: int,
        data: bytes,
        dirty: Sequence[bool],
        check: Sequence[int],
        last_dirty_access: Sequence[Optional[float]],
    ) -> "CacheLine":
        """A valid line holding copies of the given state."""
        ln = cls.__new__(cls)
        ln.tag = tag
        ln.tag_check = tag_check
        ln.valid = True
        ln.data = bytearray(data)
        ln.dirty = list(dirty)
        ln.check = list(check)
        ln.last_dirty_access = list(last_dirty_access)
        return ln

    def any_dirty(self) -> bool:
        """True when at least one unit of the line is dirty."""
        return any(self.dirty)


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
        # Line rows are materialized on first touch: a trace only visits
        # a fraction of a large cache's sets, so eager allocation of
        # num_sets * ways CacheLine objects would dominate construction
        # (and snapshot-fork) cost for short-lived hierarchies.
        self._lines: List[Optional[List[CacheLine]]] = [None] * self.num_sets
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

    def _row(self, set_index: int) -> List[CacheLine]:
        """The (lazily materialized) lines of one set."""
        row = self._lines[set_index]
        if row is None:
            row = self._lines[set_index] = [
                CacheLine(self.block_bytes, self.units_per_block)
                for _ in range(self.ways)
            ]
        return row

    def line(self, set_index: int, way: int) -> CacheLine:
        """Direct access to one line (fault injection and tests)."""
        return self._row(set_index)[way]

    def locate(self, addr: int) -> Optional[UnitLocation]:
        """Location of the unit holding ``addr``, or None if not resident."""
        set_index = self.mapper.set_index(addr)
        row = self._lines[set_index]
        if row is None:
            return None
        tag = self.mapper.tag(addr)
        for way in range(self.ways):
            ln = row[way]
            if ln.valid and ln.tag == tag:
                return UnitLocation(set_index, way, self.mapper.unit_index(addr))
        return None

    def address_of(self, loc: UnitLocation) -> int:
        """Byte address of the first byte of the unit at ``loc``."""
        ln = self._row(loc.set_index)[loc.way]
        base = self.mapper.rebuild_address(ln.tag, loc.set_index)
        return base + loc.unit_index * self.unit_bytes

    # ------------------------------------------------------------------
    # Unit-level raw access (fault injection, schemes, tests)
    # ------------------------------------------------------------------
    def _unit_value(self, ln: CacheLine, unit_index: int) -> int:
        off = unit_index * self.unit_bytes
        return int.from_bytes(ln.data[off : off + self.unit_bytes], "big")

    def _set_unit_value(self, ln: CacheLine, unit_index: int, value: int) -> None:
        off = unit_index * self.unit_bytes
        ln.data[off : off + self.unit_bytes] = value.to_bytes(self.unit_bytes, "big")

    def _unit_values(self, ln: CacheLine) -> List[int]:
        """Every unit value of a line, in unit order."""
        data = ln.data
        ub = self.unit_bytes
        return [
            int.from_bytes(data[off : off + ub], "big")
            for off in range(0, self.block_bytes, ub)
        ]

    def peek_unit(self, loc: UnitLocation) -> Tuple[int, int, bool]:
        """(value, check, dirty) of the unit at ``loc`` without an access."""
        ln = self._row(loc.set_index)[loc.way]
        if not ln.valid:
            raise SimulationError(f"{self.name}: no valid line at {loc}")
        return (
            self._unit_value(ln, loc.unit_index),
            ln.check[loc.unit_index],
            ln.dirty[loc.unit_index],
        )

    def corrupt_data(self, loc: UnitLocation, xor_mask: int) -> None:
        """Flip data bits of a resident unit without touching check bits."""
        ln = self._row(loc.set_index)[loc.way]
        if not ln.valid:
            raise SimulationError(f"{self.name}: cannot corrupt invalid line {loc}")
        self._set_unit_value(ln, loc.unit_index, self._unit_value(ln, loc.unit_index) ^ xor_mask)

    def corrupt_check(self, loc: UnitLocation, xor_mask: int) -> None:
        """Flip stored check bits of a resident unit."""
        ln = self._row(loc.set_index)[loc.way]
        if not ln.valid:
            raise SimulationError(f"{self.name}: cannot corrupt invalid line {loc}")
        ln.check[loc.unit_index] ^= xor_mask

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
        ln = self._row(set_index)[way]
        if not ln.valid:
            raise SimulationError(
                f"{self.name}: cannot corrupt the tag of an invalid line"
            )
        ln.tag ^= xor_mask

    def repair_unit(self, loc: UnitLocation, value: int) -> None:
        """Overwrite a unit with its recovered value and fresh check bits.

        Used by protection schemes that repair units *other than* the one
        whose access triggered recovery (e.g. CPPC spatial multi-bit
        correction fixes several words in one recovery pass).
        """
        ln = self._row(loc.set_index)[loc.way]
        if not ln.valid:
            raise SimulationError(f"{self.name}: cannot repair invalid line {loc}")
        self._set_unit_value(ln, loc.unit_index, value)
        ln.check[loc.unit_index] = self.protection.encode(value)
        self.stats.corrected_faults += 1

    def iter_units(self) -> Iterator[Tuple[UnitLocation, int, bool]]:
        """Yield ``(location, value, dirty)`` for every valid unit."""
        for set_index, row in enumerate(self._lines):
            if row is None:
                continue
            for way in range(self.ways):
                ln = row[way]
                if not ln.valid:
                    continue
                for u in range(self.units_per_block):
                    yield (
                        UnitLocation(set_index, way, u),
                        self._unit_value(ln, u),
                        ln.dirty[u],
                    )

    def iter_dirty_units(self) -> Iterator[Tuple[UnitLocation, int]]:
        """Yield ``(location, value)`` for every dirty unit."""
        for loc, value, dirty in self.iter_units():
            if dirty:
                yield loc, value

    def resident_locations(self) -> List[UnitLocation]:
        """Locations of all valid units (fault-site sampling), in
        :meth:`iter_units` order."""
        units = range(self.units_per_block)
        return [
            UnitLocation(set_index, way, u)
            for set_index, row in enumerate(self._lines)
            if row is not None
            for way, ln in enumerate(row)
            if ln.valid
            for u in units
        ]

    def dirty_unit_count(self) -> int:
        """Number of currently dirty units."""
        return sum(1 for _ in self.iter_dirty_units())

    # ------------------------------------------------------------------
    # Verification plumbing
    # ------------------------------------------------------------------
    def _verify_unit(
        self, ln: CacheLine, set_index: int, way: int, unit_index: int
    ) -> bool:
        """Check one unit; repair or refetch on detection.

        Returns True when a fault was detected (and handled).  Raises
        :class:`UncorrectableError` on a DUE.
        """
        value = self._unit_value(ln, unit_index)
        check = ln.check[unit_index]
        inspection = self.protection.inspect(value, check)
        if not inspection.detected:
            return False
        loc = UnitLocation(set_index, way, unit_index)
        self.stats.detected_faults += 1
        dirty = ln.dirty[unit_index]
        if self._obs_on:
            self._obs.emit(
                "cache",
                "fault-detected",
                {"level": self.name, "loc": list(loc), "dirty": dirty},
            )
        resolution = self.protection.handle_fault(loc, value, check, inspection, dirty)
        self._apply_resolution(ln, loc, resolution)
        return True

    def _apply_resolution(
        self, ln: CacheLine, loc: UnitLocation, resolution: FaultResolution
    ) -> None:
        if resolution.kind is Resolution.CORRECTED:
            if resolution.value is None:
                raise SimulationError("corrected resolution without a value")
            self._set_unit_value(ln, loc.unit_index, resolution.value)
            ln.check[loc.unit_index] = self.protection.encode(resolution.value)
            self.stats.corrected_faults += 1
            if self._obs_on:
                self._obs.emit(
                    "cache",
                    "corrected",
                    {"level": self.name, "loc": list(loc)},
                )
            return
        if resolution.kind is Resolution.REFETCH:
            if ln.dirty[loc.unit_index]:
                raise SimulationError(
                    f"{self.name}: refetch resolution for dirty unit {loc}"
                )
            if self.next_level is None:
                raise UncorrectableError(
                    f"{self.name}: clean fault at {loc} but no next level to refetch"
                )
            base = self.mapper.rebuild_address(ln.tag, loc.set_index)
            block = self.next_level.read_block(base, cycle=self._access_counter)
            off = loc.unit_index * self.unit_bytes
            fresh = int.from_bytes(block[off : off + self.unit_bytes], "big")
            self._set_unit_value(ln, loc.unit_index, fresh)
            ln.check[loc.unit_index] = self.protection.encode(fresh)
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
        row = self._lines[set_index]
        if row is None:
            return None
        for way in range(self.ways):
            ln = row[way]
            if not ln.valid:
                continue
            if self.tag_protection is not None:
                recovered = self.tag_protection.verify(
                    set_index, way, ln.tag, ln.tag_check
                )
                if recovered is not None:
                    ln.tag = recovered
                    self.stats.corrected_faults += 1
                    self.stats.detected_faults += 1
            if ln.tag == tag:
                return way
        return None

    def _pick_victim(self, set_index: int) -> int:
        row = self._row(set_index)
        for way in range(self.ways):
            if not row[way].valid:
                return way
        return self.policy.victim(set_index)

    def _evict(self, set_index: int, way: int) -> bool:
        """Remove the line at (set, way).  Returns True on a dirty writeback."""
        ln = self._row(set_index)[way]
        if not ln.valid:
            return False
        wrote_back = False
        if ln.any_dirty():
            # The whole block is read for write-back; every unit is
            # therefore checked on the way out.
            for u in range(self.units_per_block):
                self._verify_unit(ln, set_index, way, u)
            if self.next_level is None:
                raise SimulationError(
                    f"{self.name}: dirty eviction with no next level"
                )
            base = self.mapper.rebuild_address(ln.tag, set_index)
            self.next_level.write_block(
                base, bytes(ln.data), cycle=self._access_counter
            )
            self.stats.writebacks += 1
            self.stats.evictions_dirty += 1
            wrote_back = True
        else:
            self.stats.evictions_clean += 1
        self.protection.on_evict(
            set_index, way, self._unit_values(ln), list(ln.dirty)
        )
        dirty_count = sum(ln.dirty)
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
            self.tag_protection.on_remove(ln.tag)
        ln.valid = False
        ln.dirty = [False] * self.units_per_block
        ln.last_dirty_access = [None] * self.units_per_block
        self.policy.invalidate(set_index, way)
        return wrote_back

    def _fill(self, set_index: int, tag: int, block: bytes) -> int:
        way = self._pick_victim(set_index)
        self._evict(set_index, way)
        ln = self._row(set_index)[way]
        ln.valid = True
        ln.tag = tag
        if self.tag_protection is not None:
            ln.tag_check = self.tag_protection.encode(tag)
            self.tag_protection.on_insert(tag)
        ln.data[:] = block
        values = self._unit_values(ln)
        encode = self.protection.encode
        ln.check[:] = [encode(v) for v in values]
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

    def _touch_dirty_interval(
        self, ln: CacheLine, unit_index: int, cycle: float
    ) -> None:
        last = ln.last_dirty_access[unit_index]
        if last is not None:
            self.stats.record_dirty_interval(cycle - last)
        ln.last_dirty_access[unit_index] = cycle

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
                {"level": self.name, "addr": addr, "hit": hit},
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
        ln = self._row(set_index)[way]
        detected = False
        off = mapper.block_offset(addr)
        ub = self.unit_bytes
        for u in range(off // ub, (off + size - 1) // ub + 1):
            if self._verify_unit(ln, set_index, way, u):
                detected = True
            if ln.dirty[u]:
                self._touch_dirty_interval(ln, u, now)
        self.policy.touch(set_index, way)
        return AccessResult(
            hit=hit,
            data=bytes(ln.data[off : off + size]),
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
                {"level": self.name, "addr": addr, "hit": hit},
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
        ln = self._row(set_index)[way]
        detected = False
        off = mapper.block_offset(addr)
        ub = self.unit_bytes
        for u in range(off // ub, (off + size - 1) // ub + 1):
            loc = UnitLocation(set_index, way, u)
            was_dirty = ln.dirty[u]
            if was_dirty:
                self.stats.stores_to_dirty_units += 1
            unit_off = u * ub
            unit_end = unit_off + ub
            lo = max(off, unit_off)
            hi = min(off + size, unit_end)
            full_overwrite = lo == unit_off and hi == unit_end
            if self.protection.verify_on_store(was_dirty, not full_overwrite):
                # The old value is read (read-before-write); its parity is
                # checked so a latent fault cannot silently pollute the
                # scheme's correction state.
                if self._verify_unit(ln, set_index, way, u):
                    detected = True
            unit = ln.data[unit_off:unit_end]
            old = int.from_bytes(unit, "big")
            unit[lo - unit_off : hi - unit_off] = data[lo - off : hi - off]
            new = int.from_bytes(unit, "big")
            self.protection.on_unit_write(loc, old, new, was_dirty)
            ln.data[unit_off:unit_end] = unit
            if full_overwrite:
                ln.check[u] = self.protection.encode(new)
            else:
                # A partial store updates the check bits by the delta of
                # the written bytes (the codes are linear), exactly like
                # hardware's parity read-modify-write.  A latent fault in
                # the unwritten bytes therefore stays detectable instead
                # of being silently re-encoded as valid.
                ln.check[u] ^= self.protection.encode(old ^ new)
            if not was_dirty:
                ln.dirty[u] = True
                self.stats.dirty_units_changed(+1)
            self._touch_dirty_interval(ln, u, now)
        self.policy.touch(set_index, way)
        if self.write_through:
            self._write_through_line(set_index, way, now)
        return AccessResult(hit=hit, writeback=wrote_back, detected_fault=detected)

    def _write_through_line(self, set_index: int, way: int, now: float) -> None:
        """Propagate a just-written line to the next level and clean it.

        Write-through keeps no dirty data (the reason parity alone is
        adequate for write-through L1 caches, paper Section 1).
        """
        ln = self._row(set_index)[way]
        base = self.mapper.rebuild_address(ln.tag, set_index)
        self.next_level.write_block(base, bytes(ln.data), cycle=now)
        self.stats.write_throughs += 1
        if self._obs_on:
            self._obs.emit(
                "cache",
                "writeback",
                {"level": self.name, "set": set_index, "way": way,
                 "through": True},
            )
        dirty_count = sum(ln.dirty)
        if dirty_count:
            self.protection.on_cleaned(
                set_index, way, self._unit_values(ln), list(ln.dirty)
            )
            self.stats.dirty_units_changed(-dirty_count)
            ln.dirty = [False] * self.units_per_block
            ln.last_dirty_access = [None] * self.units_per_block

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
        ln = self._row(set_index)[way]
        if not ln.valid or not ln.any_dirty():
            return False
        # The line is read for the write-back, so every unit is checked.
        for u in range(self.units_per_block):
            self._verify_unit(ln, set_index, way, u)
        if self.next_level is None:
            raise SimulationError(f"{self.name}: cannot clean with no next level")
        base = self.mapper.rebuild_address(ln.tag, set_index)
        self.next_level.write_block(base, bytes(ln.data), cycle=self._access_counter)
        self.stats.writebacks += 1
        self.protection.on_cleaned(
            set_index, way, self._unit_values(ln), list(ln.dirty)
        )
        self.stats.dirty_units_changed(-sum(ln.dirty))
        ln.dirty = [False] * self.units_per_block
        ln.last_dirty_access = [None] * self.units_per_block
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
        """Write back and invalidate everything.  Returns write-back count."""
        count = 0
        for set_index, row in enumerate(self._lines):
            if row is None:
                continue
            for way, ln in enumerate(row):
                if ln.valid and self._evict(set_index, way):
                    count += 1
        return count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Cache {self.name} {self.size_bytes}B {self.ways}-way "
            f"{self.block_bytes}B-lines {self.protection.name}>"
        )
