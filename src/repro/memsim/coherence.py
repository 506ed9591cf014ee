"""Multi-core write-invalidate coherence over private L1s (paper Sec 7).

The paper's future work asks how CPPC behaves in multiprocessors: under a
write-invalidate protocol, dirty blocks are often *invalidated* out of a
remote L1 before their owner ever stores to them again, which removes
dirty words (into R2) and can reduce the number of read-before-write
operations.  This module builds that substrate: ``num_cores`` private L1
caches over one shared L2, kept coherent by a snooping bus with an
MSI-style write-invalidate policy at block granularity:

* a **store** first invalidates every remote copy (remote dirty data is
  written back to the shared L2 first, which also moves it into the remote
  CPPC's R2);
* a **load** downgrades a remote *dirty* copy to clean (write-back, copy
  retained shared).

Every CPPC register invariant holds per-cache throughout, because
invalidations and downgrades route through the cache's eviction/clean
paths and their protection hooks.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from ..errors import ConfigurationError
from ..util import KB
from .cache import Cache
from .hierarchy import CacheGeometry, HierarchyConfig, PAPER_CONFIG
from .mainmem import MainMemory
from .protection import CacheProtection, NoProtection
from .types import AccessResult

#: Factory: (core index, level name, unit bits) -> protection scheme.
CoreProtectionFactory = Callable[[int, str, int], CacheProtection]


def _no_protection(_core: int, _level: str, _unit_bits: int) -> CacheProtection:
    return NoProtection()


@dataclasses.dataclass
class BusStats:
    """Coherence traffic counters."""

    invalidations: int = 0
    dirty_invalidations: int = 0
    downgrades: int = 0
    bus_reads: int = 0
    bus_writes: int = 0


class CoherentSystem:
    """``num_cores`` private L1 data caches over one shared L2."""

    def __init__(
        self,
        num_cores: int = 2,
        config: HierarchyConfig = PAPER_CONFIG,
        *,
        protection_factory: CoreProtectionFactory = _no_protection,
        policy: str = "lru",
    ):
        if num_cores < 1:
            raise ConfigurationError("need at least one core")
        config.check_geometry()
        self.config = config
        self.memory = MainMemory(block_bytes=config.l2.block_bytes)
        self.l2 = Cache(
            "L2",
            config.l2.size_bytes,
            config.l2.ways,
            config.l2.block_bytes,
            unit_bytes=config.l2.unit_bytes,
            protection=protection_factory(-1, "L2", config.l2.unit_bytes * 8),
            next_level=self.memory,
            policy=policy,
        )
        self.l1s: List[Cache] = [
            Cache(
                f"L1D.{core}",
                config.l1d.size_bytes,
                config.l1d.ways,
                config.l1d.block_bytes,
                unit_bytes=config.l1d.unit_bytes,
                protection=protection_factory(
                    core, "L1D", config.l1d.unit_bytes * 8
                ),
                next_level=self.l2,
                policy=policy,
            )
            for core in range(num_cores)
        ]
        self.bus = BusStats()

    @property
    def num_cores(self) -> int:
        """Number of private L1 caches."""
        return len(self.l1s)

    def _check_core(self, core: int) -> None:
        if not 0 <= core < len(self.l1s):
            raise ConfigurationError(f"core {core} out of range")

    # ------------------------------------------------------------------
    # Coherence actions
    # ------------------------------------------------------------------
    def _invalidate_remote(self, core: int, addr: int) -> None:
        for other, l1 in enumerate(self.l1s):
            if other == core:
                continue
            loc = l1.locate(addr)
            if loc is None:
                continue
            line = l1.line(loc.set_index, loc.way)
            was_dirty = line.any_dirty()
            if l1.invalidate_address(addr):
                self.bus.invalidations += 1
                if was_dirty:
                    self.bus.dirty_invalidations += 1

    def _downgrade_remote(self, core: int, addr: int) -> None:
        for other, l1 in enumerate(self.l1s):
            if other == core:
                continue
            if l1.downgrade_address(addr):
                self.bus.downgrades += 1

    # ------------------------------------------------------------------
    # Processor interface
    # ------------------------------------------------------------------
    def load(
        self, core: int, addr: int, size: int = 8, cycle: Optional[float] = None
    ) -> AccessResult:
        """Load on ``core``; remote dirty copies are downgraded first."""
        self._check_core(core)
        self.bus.bus_reads += 1
        self._downgrade_remote(core, addr)
        return self.l1s[core].load(addr, size, cycle=cycle)

    def store(
        self, core: int, addr: int, data: bytes, cycle: Optional[float] = None
    ) -> AccessResult:
        """Store on ``core``; remote copies are invalidated first."""
        self._check_core(core)
        self.bus.bus_writes += 1
        self._invalidate_remote(core, addr)
        return self.l1s[core].store(addr, data, cycle=cycle)

    def flush(self) -> None:
        """Drain all cores and the shared L2 to memory."""
        for l1 in self.l1s:
            l1.flush()
        self.l2.flush()

    def total_read_before_writes(self) -> int:
        """Sum of L1 read-before-writes across cores (Section 7 metric)."""
        return sum(l1.stats.read_before_writes for l1 in self.l1s)


def small_coherent_config() -> HierarchyConfig:
    """A compact configuration for multi-core experiments and tests."""
    return HierarchyConfig(
        l1d=CacheGeometry(
            size_bytes=8 * KB, ways=2, block_bytes=32, unit_bytes=8,
            latency_cycles=2,
        ),
        l2=CacheGeometry(
            size_bytes=128 * KB, ways=4, block_bytes=32, unit_bytes=32,
            latency_cycles=8,
        ),
    )
