"""Trace-driven cache simulator: caches, hierarchy, protection plumbing."""

from .address import AddressMapper
from .cache import Cache, LineView
from .coherence import BusStats, CoherentSystem, small_coherent_config
from .hierarchy import (
    PAPER_CONFIG,
    PAPER_CONFIG_WITH_L3,
    CacheGeometry,
    HierarchyConfig,
    MemoryHierarchy,
)
from .mainmem import MainMemory
from .protection import (
    CacheProtection,
    FaultResolution,
    NoProtection,
    ParityProtection,
    Resolution,
    SecdedProtection,
    TwoDParityProtection,
)
from .replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    available_policies,
    make_policy,
)
from .scrub import EarlyWritebackScrubber, ScrubberStats
from .snapshot import (
    CacheSnapshot,
    HierarchySnapshot,
    MemorySnapshot,
    PolicySnapshot,
    restore_cache,
    restore_hierarchy,
    restore_memory,
    snapshot_cache,
    snapshot_hierarchy,
    snapshot_memory,
)
from .stats import CacheStats
from .types import AccessResult, AccessType, UnitLocation

# Imported last: repro.cppc (needed for register bookkeeping) itself
# imports this package's submodules.
from .batch import (  # noqa: E402
    BatchReplayEngine,
    BatchReplayResult,
    BatchTrace,
    LineTraffic,
)

__all__ = [
    "AddressMapper",
    "BatchReplayEngine",
    "BatchReplayResult",
    "BatchTrace",
    "LineTraffic",
    "CacheSnapshot",
    "HierarchySnapshot",
    "MemorySnapshot",
    "PolicySnapshot",
    "restore_cache",
    "restore_hierarchy",
    "restore_memory",
    "snapshot_cache",
    "snapshot_hierarchy",
    "snapshot_memory",
    "Cache",
    "LineView",
    "BusStats",
    "CoherentSystem",
    "small_coherent_config",
    "EarlyWritebackScrubber",
    "ScrubberStats",
    "PAPER_CONFIG",
    "PAPER_CONFIG_WITH_L3",
    "CacheGeometry",
    "HierarchyConfig",
    "MemoryHierarchy",
    "MainMemory",
    "CacheProtection",
    "FaultResolution",
    "NoProtection",
    "ParityProtection",
    "Resolution",
    "SecdedProtection",
    "TwoDParityProtection",
    "FIFOPolicy",
    "LRUPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "available_policies",
    "make_policy",
    "CacheStats",
    "AccessResult",
    "AccessType",
    "UnitLocation",
]
