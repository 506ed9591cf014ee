"""Fault injection into a live cache.

The injector flips bits of the *stored* data without touching the stored
check bits — exactly what a particle strike does — so the next access that
reads the unit sees a parity/ECC mismatch and the protection scheme reacts.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..coding import BitInterleaving
from ..cppc.geometry import PhysicalGeometry
from ..errors import SimulationError
from ..memsim.cache import Cache
from ..memsim.types import UnitLocation
from ..util import Seed, make_rng, popcount
from .models import BitFlip, SpatialFault, TemporalFault


@dataclasses.dataclass(frozen=True)
class InjectionRecord:
    """What an injection actually changed (some strike rows may miss
    invalid lines or clean-only regions and flip nothing)."""

    flips: List[BitFlip]

    @property
    def touched_units(self) -> List[UnitLocation]:
        """Units whose stored data changed."""
        return [f.loc for f in self.flips]

    @property
    def total_bits(self) -> int:
        """Total bits flipped."""
        return sum(popcount(f.mask) for f in self.flips)


class FaultInjector:
    """Injects temporal and spatial faults into one cache."""

    def __init__(self, cache: Cache, seed: Seed = 0):
        self.cache = cache
        self.geometry = PhysicalGeometry.of_cache(cache)
        self._rng = make_rng((seed, cache.name, "faults"))

    # ------------------------------------------------------------------
    # Deterministic injections
    # ------------------------------------------------------------------
    def inject_temporal(self, fault: TemporalFault) -> InjectionRecord:
        """Apply one single-bit fault."""
        flips = fault.flips(self.cache.unit_bits)
        for flip in flips:
            self.cache.corrupt_data(flip.loc, flip.mask)
        return InjectionRecord(flips=flips)

    @property
    def interleaving_degree(self) -> int:
        """Physical bit-interleaving degree of the target cache's arrays.

        Schemes that interleave (the paper's SECDED configuration) expose
        ``interleaving_degree``; everyone else stores words contiguously.
        """
        return getattr(self.cache.protection, "interleaving_degree", 1)

    def inject_spatial(self, fault: SpatialFault) -> InjectionRecord:
        """Apply one spatial strike; rows over invalid lines flip nothing.

        With physical bit interleaving (degree k) one physical row holds k
        logical units woven bit-by-bit, so the strike's columns map to at
        most one bit per unit for bursts up to k wide — the mechanism that
        lets interleaved SECDED ride out spatial MBEs.
        """
        degree = self.interleaving_degree
        if degree == 1:
            return self._inject_contiguous(fault)
        return self._inject_interleaved(fault, degree)

    def _inject_contiguous(self, fault: SpatialFault) -> InjectionRecord:
        flips: List[BitFlip] = []
        for row, mask in fault.row_masks(self.cache.unit_bits).items():
            if row >= self.geometry.rows_per_way:
                continue
            loc = self.geometry.loc_of(fault.way, row)
            line = self.cache.line(loc.set_index, loc.way)
            if not line.valid:
                continue
            self.cache.corrupt_data(loc, mask)
            flips.append(BitFlip(loc, mask))
        return InjectionRecord(flips=flips)

    def _inject_interleaved(self, fault: SpatialFault, degree: int) -> InjectionRecord:
        layout = BitInterleaving(degree=degree, word_bits=self.cache.unit_bits)
        physical_rows = self.geometry.rows_per_way // degree
        flips: List[BitFlip] = []
        for physical_row in range(fault.top_row, fault.top_row + fault.height):
            if physical_row >= physical_rows:
                continue
            width = min(fault.width, layout.row_bits - fault.left_col)
            if width <= 0:
                continue
            hits = layout.burst_to_word_bits(fault.left_col, width)
            for word_offset, bits in hits.items():
                row = physical_row * degree + word_offset
                loc = self.geometry.loc_of(fault.way, row)
                line = self.cache.line(loc.set_index, loc.way)
                if not line.valid:
                    continue
                mask = 0
                for bit in bits:
                    mask |= 1 << (self.cache.unit_bits - 1 - bit)
                self.cache.corrupt_data(loc, mask)
                flips.append(BitFlip(loc, mask))
        return InjectionRecord(flips=flips)

    # ------------------------------------------------------------------
    # Random injections
    # ------------------------------------------------------------------
    def random_temporal(self, dirty_only: bool = False) -> Optional[InjectionRecord]:
        """Flip a random bit of a random resident unit.

        Returns None when nothing qualifies (e.g. empty cache).
        """
        if dirty_only:
            candidates = [loc for loc, _v in self.cache.iter_dirty_units()]
        else:
            candidates = self.cache.resident_locations()
        if not candidates:
            return None
        loc = self._rng.choice(candidates)
        bit = self._rng.randrange(self.cache.unit_bits)
        return self.inject_temporal(TemporalFault(loc, bit))

    def random_spatial(
        self, height: int = 8, width: int = 8
    ) -> Optional[InjectionRecord]:
        """Strike a random position with a ``height x width`` fault.

        The anchor is drawn uniformly over the physical array; the record
        reports which resident units actually lost bits (possibly none).
        """
        if height < 1 or width < 1:
            raise SimulationError("strike extents must be positive")
        degree = self.interleaving_degree
        way = self._rng.randrange(self.cache.ways)
        physical_rows = self.geometry.rows_per_way // degree
        top_row = self._rng.randrange(max(1, physical_rows - height + 1))
        row_bits = self.cache.unit_bits * degree
        left_col = self._rng.randrange(max(1, row_bits - width + 1))
        return self.inject_spatial(
            SpatialFault(
                way=way, top_row=top_row, left_col=left_col, height=height, width=width
            )
        )
