"""Contract between the cache and its protection scheme.

The cache owns data, tags, dirty bits and one check word per protection
unit.  The scheme decides how check words are computed, reacts to data
movement (fills, stores, evictions) and resolves detected faults.  Four
schemes implement this contract:

* :class:`NoProtection` — raw cache (useful for golden runs),
* :class:`ParityProtection` — 1-D / interleaved parity, detection only
  (a fault in a dirty unit is fatal, as in the PowerQUICC example of the
  paper's introduction),
* :class:`SecdedProtection` — per-unit SECDED, corrects single-bit errors,
* :class:`TwoDParityProtection` — horizontal parity + one vertical parity
  register over the whole cache,
* :class:`repro.cppc.CppcProtection` — the paper's contribution.
"""

from __future__ import annotations

import abc
import dataclasses
import enum
import weakref
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..coding import (
    DetectionOutcome,
    Inspection,
    InterleavedParity,
    SecdedCode,
    VerticalParity,
    WordCode,
)
from ..errors import ConfigurationError, UncorrectableError
from .types import UnitLocation

if TYPE_CHECKING:  # pragma: no cover
    from .cache import Cache


class Resolution(enum.Enum):
    """How a detected fault was resolved."""

    #: The scheme produced the repaired unit value.
    CORRECTED = "corrected"
    #: The unit is clean; the cache should re-fetch the block.
    REFETCH = "refetch"


@dataclasses.dataclass(frozen=True)
class FaultResolution:
    """Outcome of :meth:`CacheProtection.handle_fault`."""

    kind: Resolution
    value: Optional[int] = None


class CacheProtection(abc.ABC):
    """Base class for cache protection schemes."""

    #: Human-readable scheme name (used in reports).
    name: str = "abstract"
    #: Whether :meth:`on_evict` must see clean lines too.  When False the
    #: cache calls it only for lines holding a dirty unit, and a flush
    #: may drop clean lines in bulk without calling it at all.
    tracks_clean_lines: bool = False

    def __init__(self):
        self.cache: Optional["Cache"] = None
        #: Attached trace sink and its cached enabled flag.  Hot paths
        #: test ``_obs_on`` so a disabled/absent sink costs one branch.
        self._obs = None
        self._obs_on = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, cache: "Cache") -> None:
        """Bind to ``cache``; called once by the cache constructor.

        The scheme keeps a weak proxy: the cache owns the scheme, so a
        strong back-reference would make a reference cycle and leave a
        dropped cache to the cyclic collector.
        """
        if self.cache is not None:
            raise ConfigurationError(
                f"{self.name} protection is already attached to a cache"
            )
        self.cache = weakref.proxy(cache)

    def set_observer(self, sink) -> None:
        """Attach a :class:`repro.obs.TraceSink` (None detaches)."""
        self._obs = sink
        self._obs_on = bool(sink is not None and sink.enabled)

    @property
    @abc.abstractmethod
    def check_bits_per_unit(self) -> int:
        """Redundant bits stored per protection unit."""

    # ------------------------------------------------------------------
    # Check-bit computation and verification
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def encode(self, value: int) -> int:
        """Check word for a unit ``value``."""

    @abc.abstractmethod
    def inspect(self, value: int, check: int) -> Inspection:
        """Check a unit value against its stored check word."""

    def handle_fault(
        self,
        loc: UnitLocation,
        value: int,
        check: int,
        inspection: Inspection,
        dirty: bool,
    ) -> FaultResolution:
        """Resolve a detected fault; raise UncorrectableError for a DUE.

        The default policy is the detection-only one: clean data is
        re-fetched, a fault in dirty data halts the machine.
        """
        if not dirty:
            return FaultResolution(kind=Resolution.REFETCH)
        raise UncorrectableError(
            f"{self.name}: fault detected in dirty unit {loc}", detail=loc
        )

    # ------------------------------------------------------------------
    # Event hooks (default: no state to maintain)
    # ------------------------------------------------------------------
    def verify_on_store(self, was_dirty: bool, partial: bool = False) -> bool:
        """Whether the old value must be read-and-checked before a store.

        Only schemes that actually read the old data on a store (2-D parity
        on every store, CPPC on stores to dirty units and on partial stores
        that turn a clean unit dirty) can observe a latent fault there;
        detection-only schemes overwrite blindly.
        """
        return False

    def on_unit_write(
        self, loc: UnitLocation, old: int, new: int, was_dirty: bool
    ) -> None:
        """A store is overwriting a unit (old value already verified)."""

    def on_fill(self, set_index: int, way: int, values: Sequence[int]) -> None:
        """A block was just filled into (set, way) with clean ``values``."""

    def on_evict(
        self,
        set_index: int,
        way: int,
        values: Sequence[int],
        dirty_flags: Sequence[bool],
    ) -> None:
        """The valid block at (set, way) is being removed.

        Called for every removed line when :attr:`tracks_clean_lines` is
        set, otherwise only for lines holding at least one dirty unit.
        """

    def on_cleaned(
        self,
        set_index: int,
        way: int,
        values: Sequence[int],
        dirty_flags: Sequence[bool],
    ) -> None:
        """Dirty units at (set, way) became clean in place (write-through
        propagation, early write-back, coherence downgrade); the line
        stays resident."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class NoProtection(CacheProtection):
    """No check bits, no detection — the golden/raw configuration."""

    name = "none"

    @property
    def check_bits_per_unit(self) -> int:
        return 0

    def encode(self, value: int) -> int:
        return 0

    def inspect(self, value: int, check: int) -> Inspection:
        return Inspection(outcome=DetectionOutcome.CLEAN)


class CodedProtection(CacheProtection):
    """Shared plumbing for schemes built on a :class:`WordCode`."""

    def __init__(self, code: WordCode):
        super().__init__()
        self.code = code

    def attach(self, cache: "Cache") -> None:
        super().attach(cache)
        if self.code.data_bits != cache.unit_bytes * 8:
            raise ConfigurationError(
                f"{self.name}: code protects {self.code.data_bits} bits but the "
                f"cache unit is {cache.unit_bytes * 8} bits"
            )

    @property
    def check_bits_per_unit(self) -> int:
        return self.code.check_bits

    def encode(self, value: int) -> int:
        return self.code.encode(value)

    def inspect(self, value: int, check: int) -> Inspection:
        return self.code.inspect(value, check)


class ParityProtection(CodedProtection):
    """Detection-only parity (1-D or interleaved).

    Clean faults become misses and are re-fetched; dirty faults are fatal —
    the behaviour the paper ascribes to parity-protected write-back caches.
    """

    name = "parity"

    def __init__(self, code: Optional[InterleavedParity] = None, data_bits: int = 64):
        super().__init__(code or InterleavedParity(data_bits=data_bits, ways=8))


class SecdedProtection(CodedProtection):
    """Per-unit SECDED; single-bit faults are corrected in place."""

    name = "secded"

    def __init__(
        self,
        code: Optional[SecdedCode] = None,
        data_bits: int = 64,
        interleaving_degree: int = 8,
    ):
        super().__init__(code or SecdedCode(data_bits=data_bits))
        #: Physical bit-interleaving degree (energy model input; with
        #: degree k, a spatial burst of <= k bits is split into single-bit
        #: errors in k different units).
        self.interleaving_degree = interleaving_degree

    def verify_on_store(self, was_dirty: bool, partial: bool = False) -> bool:
        # ECC cannot update check bits for a partial write without a
        # read-modify-write (paper Section 1); the RMW read corrects any
        # latent fault before the merge, so no stale syndrome survives.
        return partial

    def handle_fault(
        self,
        loc: UnitLocation,
        value: int,
        check: int,
        inspection: Inspection,
        dirty: bool,
    ) -> FaultResolution:
        if inspection.outcome is DetectionOutcome.CORRECTED:
            return FaultResolution(
                kind=Resolution.CORRECTED, value=inspection.corrected_data
            )
        if not dirty:
            return FaultResolution(kind=Resolution.REFETCH)
        raise UncorrectableError(
            f"secded: uncorrectable fault in dirty unit {loc}", detail=loc
        )


class TwoDParityProtection(CodedProtection):
    """Two-dimensional parity: horizontal interleaved parity per unit plus
    one vertical parity register spanning the whole cache.

    The vertical register is kept current with read-before-write updates on
    every store and whole-line updates on every fill and eviction — the
    energy costs quantified in Figures 11/12.
    """

    name = "2d-parity"
    # The vertical parity reads every removed line, clean or dirty.
    tracks_clean_lines = True

    def __init__(self, code: Optional[InterleavedParity] = None, data_bits: int = 64):
        super().__init__(code or InterleavedParity(data_bits=data_bits, ways=8))
        self._vertical = VerticalParity(row_bits=self.code.data_bits)

    def verify_on_store(self, was_dirty: bool, partial: bool = False) -> bool:
        # Every store does a read-before-write to update the vertical row.
        return True

    @property
    def vertical_register(self) -> VerticalParity:
        """The single vertical parity row protecting the array."""
        return self._vertical

    def on_unit_write(
        self, loc: UnitLocation, old: int, new: int, was_dirty: bool
    ) -> None:
        # Read-before-write on EVERY store: old data must leave the
        # vertical parity.
        self._vertical.update(old, new)
        self.cache.stats.read_before_writes += 1

    def on_fill(self, set_index: int, way: int, values: Sequence[int]) -> None:
        for v in values:
            self._vertical.insert(v)

    def on_evict(
        self,
        set_index: int,
        way: int,
        values: Sequence[int],
        dirty_flags: Sequence[bool],
    ) -> None:
        # The whole replaced line is read so it can be XORed out — the
        # per-miss read-before-write the paper charges to this scheme.
        for v in values:
            self._vertical.remove(v)
        self.cache.stats.read_before_writes += 1

    def handle_fault(
        self,
        loc: UnitLocation,
        value: int,
        check: int,
        inspection: Inspection,
        dirty: bool,
    ) -> FaultResolution:
        if not dirty:
            return FaultResolution(kind=Resolution.REFETCH)
        other_rows: List[int] = []
        for other_loc, other_value, _dirty in self.cache.iter_units():
            if other_loc != loc:
                other_rows.append(other_value)
        repaired = self._vertical.reconstruct(other_rows)
        if self.inspect(repaired, check).detected:
            raise UncorrectableError(
                f"2d-parity: reconstruction of {loc} failed its horizontal parity",
                detail=loc,
            )
        return FaultResolution(kind=Resolution.CORRECTED, value=repaired)
