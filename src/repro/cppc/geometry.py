"""Physical data-array geometry: cache locations <-> array rows.

Spatial multi-bit errors are defined over the *physical* layout: a particle
strike flips bits inside an N x N square of adjacent cells.  This module
fixes a concrete, simple layout:

* each way of the cache is a separate subarray (strikes never span ways);
* inside a way, protection units are stacked one per row, ordered by
  ``set_index * units_per_block + unit_index``;
* columns within a row are the MSB-first bit positions of the unit.

Rotation classes are assigned per row (``row mod num_classes``), matching
paper Figures 6/7 where eight consecutive rows form the eight classes.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List

from ..errors import ConfigurationError
from ..memsim.types import UnitLocation

if TYPE_CHECKING:  # pragma: no cover
    from ..memsim.cache import Cache


@dataclasses.dataclass(frozen=True)
class PhysicalGeometry:
    """Row/column layout of one cache's data arrays."""

    num_sets: int
    ways: int
    units_per_block: int
    unit_bits: int

    def __post_init__(self):
        if min(self.num_sets, self.ways, self.units_per_block, self.unit_bits) < 1:
            raise ConfigurationError("geometry dimensions must be positive")

    @classmethod
    def of_cache(cls, cache: "Cache") -> "PhysicalGeometry":
        """Geometry matching ``cache``'s shape."""
        return cls(
            num_sets=cache.num_sets,
            ways=cache.ways,
            units_per_block=cache.units_per_block,
            unit_bits=cache.unit_bytes * 8,
        )

    @property
    def rows_per_way(self) -> int:
        """Rows in one way's subarray."""
        return self.num_sets * self.units_per_block

    @property
    def total_rows(self) -> int:
        """Rows across all ways."""
        return self.rows_per_way * self.ways

    def row_of(self, loc: UnitLocation) -> int:
        """Physical row (within its way) of the unit at ``loc``."""
        if not 0 <= loc.set_index < self.num_sets:
            raise ConfigurationError(f"set index {loc.set_index} out of range")
        if not 0 <= loc.unit_index < self.units_per_block:
            raise ConfigurationError(f"unit index {loc.unit_index} out of range")
        return loc.set_index * self.units_per_block + loc.unit_index

    def rows_of_slots(self, slots):
        """:meth:`row_of` for unit slots as :class:`~repro.memsim.Cache`
        numbers them (``(set_index * ways + way) * units_per_block +
        unit_index``), elementwise over an integer array."""
        upb = self.units_per_block
        return slots // (self.ways * upb) * upb + slots % upb

    def loc_of(self, way: int, row: int) -> UnitLocation:
        """Inverse of :meth:`row_of` for a given way."""
        if not 0 <= way < self.ways:
            raise ConfigurationError(f"way {way} out of range")
        if not 0 <= row < self.rows_per_way:
            raise ConfigurationError(f"row {row} out of range")
        return UnitLocation(
            set_index=row // self.units_per_block,
            way=way,
            unit_index=row % self.units_per_block,
        )

    def rows_in_square(self, way: int, top_row: int, height: int) -> List[UnitLocation]:
        """Locations of the rows a ``height``-row strike touches."""
        rows = range(top_row, min(top_row + height, self.rows_per_way))
        return [self.loc_of(way, r) for r in rows]

    def row_distance(self, a: UnitLocation, b: UnitLocation) -> int:
        """Vertical distance in rows; ways are distinct subarrays.

        Returns a large sentinel (``rows_per_way``) for cross-way pairs so
        callers treating "distance > coverage" as non-spatial do the right
        thing.
        """
        if a.way != b.way:
            return self.rows_per_way
        return abs(self.row_of(a) - self.row_of(b))
