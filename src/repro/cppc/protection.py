"""CPPC as a cache protection scheme — the paper's contribution.

``CppcProtection`` plugs into :class:`repro.memsim.Cache` and implements
the full design:

* interleaved parity per unit for detection (8 parity bits per word in the
  paper's L1, 8 per block in its L2),
* one or more (R1, R2) XOR register pairs tracking dirty data
  (Sections 3.1, 3.4, 4.11),
* byte shifting through the barrel-shifter rotation classes (Section 4.3),
* clean faults converted to misses and re-fetched (Section 3.2),
* dirty faults repaired by the recovery procedure + fault locator
  (Sections 4.4-4.5).

Factory helpers :func:`l1_cppc` and :func:`l2_cppc` return the exact
configurations evaluated in the paper's Section 6.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

from ..coding import Inspection, InterleavedParity
from ..errors import ConfigurationError, UncorrectableError
from ..memsim.cache import Cache
from ..memsim.protection import CodedProtection, FaultResolution, Resolution
from ..memsim.types import UnitLocation
from ..obs.trail import audit_payload
from ..util import parity
from .geometry import PhysicalGeometry
from .recovery import DirtyScan, RecoveryReport, recover
from .registers import RegisterFile
from .shifting import RotationScheme


class CppcProtection(CodedProtection):
    """Correctable Parity Protected Cache protection scheme.

    Args:
        data_bits: protection unit width (64 for an L1 word; the L1 block
            size in bits for an L2, per Section 3.5).
        parity_ways: interleaved parity bits per unit (8 in the paper; the
            locator requires 8).
        num_pairs: (R1, R2) register pairs — 1, 2, 4 or 8 (Sections
            4.6/4.11).
        byte_shifting: rotate values by their row's class before XORing
            into the registers.  Disable only with ``num_pairs == 8``
            (Section 4.11's all-registers variant) or when spatial faults
            are out of scope.
        num_classes: rotation classes / spatial row coverage (8 = the
            paper's 8x8 squares).
        audit_maxlen: recovery reports retained in ``recovery_log``
            (at least 1); the ``recoveries`` counter stays exact
            regardless, and an attached trace sink receives every
            pass's audit record (:meth:`audits`).
    """

    name = "cppc"

    def __init__(
        self,
        data_bits: int = 64,
        *,
        parity_ways: int = 8,
        num_pairs: int = 1,
        byte_shifting: bool = True,
        num_classes: int = 8,
        audit_maxlen: int = 64,
    ):
        super().__init__(InterleavedParity(data_bits=data_bits, ways=parity_ways))
        if audit_maxlen < 1:
            raise ConfigurationError("audit_maxlen must be >= 1")
        if byte_shifting and self.code.ways != 8:
            raise ConfigurationError(
                "byte shifting requires 8-way interleaved parity "
                f"(one bit per byte), got {self.code.ways}-way"
            )
        self.rotation = RotationScheme(
            unit_bytes=self.code.data_bits // 8,
            num_classes=num_classes,
            enabled=byte_shifting,
        )
        self.registers = RegisterFile(
            width_bits=self.code.data_bits,
            num_pairs=num_pairs,
            num_classes=num_classes,
        )
        self.geometry: Optional[PhysicalGeometry] = None
        #: Completed recovery passes (each may repair several units).
        self.recoveries = 0
        #: The newest ``audit_maxlen`` recovery reports.  Bounded here —
        #: not by callers — so unattended campaigns hold O(1) memory no
        #: matter how many faults they inject.
        self.recovery_log: Deque[RecoveryReport] = deque(maxlen=audit_maxlen)
        #: Registers rebuilt after their own parity failed (Section 4.9).
        self.register_repairs = 0

    # ------------------------------------------------------------------
    def attach(self, cache: Cache) -> None:
        super().attach(cache)
        self.geometry = PhysicalGeometry.of_cache(cache)

    def class_of(self, loc: UnitLocation) -> int:
        """Rotation class of the unit at ``loc``."""
        return self.rotation.class_of_row(self.geometry.row_of(loc))

    def verify_on_store(self, was_dirty: bool, partial: bool = False) -> bool:
        # Stores to already-dirty units read the old data (read-before-
        # write into R2); partial stores to clean units read it to build
        # the full word entering R1.  Both reads check parity, so a latent
        # clean fault is re-fetched before it could be recorded in R1 as
        # if it were the true value.
        return was_dirty or partial

    # ------------------------------------------------------------------
    # Register maintenance
    # ------------------------------------------------------------------
    def on_unit_write(
        self, loc: UnitLocation, old: int, new: int, was_dirty: bool
    ) -> None:
        cls = self.class_of(loc)
        pair = self.registers.pair_of_class(cls)
        if was_dirty:
            # Read-before-write: the displaced dirty value enters R2.
            pair.on_dirty_removed(self.rotation.rotate_in(old, cls))
            self.cache.stats.read_before_writes += 1
        pair.on_written(self.rotation.rotate_in(new, cls))
        if self._obs_on:
            self._obs.emit(
                "cppc.registers",
                "update",
                {
                    "loc": list(loc),
                    "class": cls,
                    "pair": self.registers.pair_index_of_class(cls),
                    "r1": True,
                    "r2": was_dirty,
                },
            )

    def on_evict(
        self,
        set_index: int,
        way: int,
        values: Sequence[int],
        dirty_flags: Sequence[bool],
    ) -> None:
        # Write-back: every dirty unit of the victim enters R2 (done from
        # the victim buffer in hardware, off the critical path).
        for unit_index, (value, dirty) in enumerate(zip(values, dirty_flags)):
            if not dirty:
                continue
            loc = UnitLocation(set_index, way, unit_index)
            cls = self.class_of(loc)
            self.registers.pair_of_class(cls).on_dirty_removed(
                self.rotation.rotate_in(value, cls)
            )
            if self._obs_on:
                self._obs.emit(
                    "cppc.registers",
                    "update",
                    {
                        "loc": list(loc),
                        "class": cls,
                        "pair": self.registers.pair_index_of_class(cls),
                        "r1": False,
                        "r2": True,
                    },
                )

    def on_cleaned(
        self,
        set_index: int,
        way: int,
        values: Sequence[int],
        dirty_flags: Sequence[bool],
    ) -> None:
        # A dirty unit leaving the *dirty population* (write-through
        # propagation, early write-back, coherence downgrade) is exactly a
        # dirty removal: its value moves into R2.
        self.on_evict(set_index, way, values, dirty_flags)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def handle_fault(
        self,
        loc: UnitLocation,
        value: int,
        check: int,
        inspection: Inspection,
        dirty: bool,
    ) -> FaultResolution:
        if not dirty:
            # Clean data: convert to a miss and re-fetch (Section 3.2).
            return FaultResolution(kind=Resolution.REFETCH)
        report: RecoveryReport = recover(self, loc)
        self.recoveries += 1
        self.recovery_log.append(report)
        if self._obs_on:
            # The pass's one trace event: past ``audit_maxlen`` the
            # stream still holds every pass the log has dropped.
            self._obs.emit("cppc.recovery", "audit", audit_payload(report, self))
        return FaultResolution(
            kind=Resolution.CORRECTED, value=report.corrected_value(loc)
        )

    # ------------------------------------------------------------------
    # Register self-protection (paper Section 4.9)
    # ------------------------------------------------------------------
    def verify_registers(self) -> None:
        """Check every register's parity; repair any that fail.

        Called at the start of recovery — the point where the registers
        are read.  A faulty register is rebuilt from its partner plus the
        XOR of the cache's dirty words, which requires those words to be
        fault-free (otherwise: machine check), exactly the caveat the
        paper states.
        """
        for pair_index, pair in enumerate(self.registers.pairs):
            if not pair.r1_intact():
                self.repair_register(pair_index, "r1")
            if not pair.r2_intact():
                self.repair_register(pair_index, "r2")

    def repair_register(self, pair_index: int, which: str) -> None:
        """Rebuild one register from the cache (Section 4.9).

        ``XOR(dirty words) == R1 ^ R2``, so the broken register equals
        that XOR combined with its intact partner.
        """
        if which not in ("r1", "r2"):
            raise ConfigurationError(f"register must be 'r1' or 'r2', not {which}")
        pair = self.registers.pairs[pair_index]
        scan = DirtyScan(self)
        for loc, value, check in scan.flagged():
            cls = self.class_of(loc)
            if self.registers.pair_index_of_class(cls) != pair_index:
                continue
            if self.inspect(value, check).detected:
                raise UncorrectableError(
                    "cppc: cannot rebuild a faulty register while dirty "
                    f"word {loc} is itself faulty (Section 4.9 caveat)",
                    detail=loc,
                )
        dirty_xor = scan.rotated_xor(pair_index)
        if which == "r1":
            pair.r1 = dirty_xor ^ pair.r2
            pair.r1_parity = parity(pair.r1)
        else:
            pair.r2 = dirty_xor ^ pair.r1
            pair.r2_parity = parity(pair.r2)
        self.register_repairs += 1
        if self._obs_on:
            self._obs.emit(
                "cppc.registers",
                "repair",
                {"pair": pair_index, "register": which},
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def audits(self) -> List[dict]:
        """JSON-safe audit record of each logged recovery pass, oldest
        first (:func:`repro.obs.audit_payload`)."""
        return [audit_payload(report, self) for report in self.recovery_log]

    def dirty_xor_expected(self, pair_index: int) -> int:
        """XOR of rotated dirty values the pair *should* hold (testing)."""
        return DirtyScan(self).rotated_xor(pair_index)

    @property
    def storage_overhead_bits(self) -> int:
        """Check bits across the array plus register storage."""
        array_bits = self.cache.total_units * self.code.check_bits
        return array_bits + self.registers.storage_bits


def l1_cppc(
    *, num_pairs: int = 1, byte_shifting: bool = True, parity_ways: int = 8
) -> CppcProtection:
    """The paper's L1 CPPC: 64-bit words, 8 parity bits, byte shifting."""
    return CppcProtection(
        data_bits=64,
        parity_ways=parity_ways,
        num_pairs=num_pairs,
        byte_shifting=byte_shifting,
    )


def l2_cppc(
    l1_block_bytes: int = 32,
    *,
    num_pairs: int = 1,
    byte_shifting: bool = True,
    parity_ways: int = 8,
) -> CppcProtection:
    """The paper's L2 CPPC: units and registers sized to an L1 block."""
    return CppcProtection(
        data_bits=l1_block_bytes * 8,
        parity_ways=parity_ways,
        num_pairs=num_pairs,
        byte_shifting=byte_shifting,
    )
