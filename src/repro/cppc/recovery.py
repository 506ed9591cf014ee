"""CPPC dirty-data error recovery (paper Sections 3.2 and 4.4).

Entry point: :func:`recover`, invoked by the CPPC protection scheme when a
parity check fails on a *dirty* unit.  The procedure follows the paper:

1. Check the parity of every dirty unit in the cache to find all
   concurrently faulty dirty units (step 1 / step 3 of Section 4.4).
   :class:`DirtyScan` does this in one NumPy pass over the cache's dirty
   units, and only the units it flags are inspected one by one.
2. Per register pair, compute the residue
   ``R3 = R1 ^ R2 ^ XOR(rotated dirty values)`` — the XOR of the rotated
   error patterns of the faulty units in that pair's domain.  The same
   scan folds each rotation class's dirty units and rotates the fold
   once.
3. Resolve each pair's faults:

   * exactly one faulty unit  → its error is ``rotate_out(R3)`` (steps
     1-2 of Section 4.4);
   * several faulty units with pairwise-disjoint faulty parity groups →
     each unit's error is ``rotate_out(R3)`` masked to its own groups
     (step 4: byte rotation never moves a bit out of its parity group, so
     disjoint groups cannot mix);
   * shared parity groups → a presumed spatial strike: check the rows lie
     in one way within the rotation period (step 5), then run the fault
     locator (step 6).

4. Every corrected value must pass its parity check; any inconsistency or
   ambiguity raises :class:`~repro.errors.UncorrectableError` (step 7's
   machine-check DUE).

Recovery repairs *all* faulty units it finds, not just the one whose
access triggered it, and returns the corrected value of the triggering
unit to the cache.
"""

from __future__ import annotations

import dataclasses
from itertools import repeat
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

import numpy as np

from ..errors import FaultLocatorError, SimulationError, UncorrectableError
from ..memsim.types import UnitLocation
from ..util import mask
from .locator import FaultLocator, FaultyUnit

if TYPE_CHECKING:  # pragma: no cover
    from .protection import CppcProtection


@dataclasses.dataclass
class PairAudit:
    """One register pair's slice of a recovery pass.

    Captures everything :func:`repro.obs.verify_audit` needs to re-derive
    the pair's corrections offline: the register contents as read, the
    residue ``R3``, the resolution method and the faulty units with their
    parity syndromes.
    """

    pair_index: int
    r1: int
    r2: int
    residue: int
    method: str
    faulty: List[FaultyUnit] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class RecoveryReport:
    """What one recovery pass found and fixed (for tests and logging)."""

    trigger: UnitLocation
    faulty_units: List[UnitLocation] = dataclasses.field(default_factory=list)
    corrections: Dict[UnitLocation, Tuple[int, int]] = dataclasses.field(
        default_factory=dict
    )
    methods: List[str] = dataclasses.field(default_factory=list)
    #: Cost-model count of the units a hardware recovery reads: every
    #: valid unit, the dominant cost of the Section 4.4 procedure.  It
    #: is computed from the resident-unit count; the simulated scan
    #: reads only the dirty units, in bulk (:class:`DirtyScan`).
    units_scanned: int = 0
    #: Per-pair audit slices, in resolution order.
    pair_audits: List[PairAudit] = dataclasses.field(default_factory=list)
    #: Registers rebuilt (Section 4.9) before this pass could read them.
    register_repairs: int = 0

    def corrected_value(self, loc: UnitLocation) -> int:
        """The repaired value recovery produced for ``loc``."""
        return self.corrections[loc][1]

    def estimated_cycles(self, per_unit_cycles: int = 4) -> int:
        """Rough cost of this recovery in cycles.

        The paper (Sections 3.2, 5) argues recovery cost is irrelevant
        because the event is extremely rare — whether implemented by a
        micro-engine or a Reliability-Aware Exception handler [7].  The
        estimate charges a read + XOR + bookkeeping per scanned unit.
        """
        return self.units_scanned * per_unit_cycles


def recover(scheme: "CppcProtection", trigger: UnitLocation) -> RecoveryReport:
    """Run full CPPC recovery; see module docstring."""
    cache = scheme.cache
    if cache is None:
        raise SimulationError("CPPC recovery invoked before attach()")
    # The registers are about to be read: check their own parity first
    # and rebuild any that took a hit (paper Section 4.9).
    repairs_before = scheme.register_repairs
    scheme.verify_registers()
    report = RecoveryReport(
        trigger=trigger,
        units_scanned=cache.resident_unit_count(),
        register_repairs=scheme.register_repairs - repairs_before,
    )

    # Step 1/3: check every dirty unit, collecting the faulty ones by
    # register pair.
    scan = DirtyScan(scheme)
    faulty_by_pair: Dict[int, List[FaultyUnit]] = {}
    for loc, value, check in scan.flagged():
        cls = scheme.class_of(loc)
        pair_index = scheme.registers.pair_index_of_class(cls)
        inspection = scheme.inspect(value, check)
        if inspection.detected:
            faulty_by_pair.setdefault(pair_index, []).append(
                FaultyUnit(
                    loc=loc,
                    rotation_class=cls,
                    row=scheme.geometry.row_of(loc),
                    stored_value=value,
                    faulty_parities=inspection.faulty_parities,
                )
            )
            report.faulty_units.append(loc)

    if not any(u.loc == trigger for units in faulty_by_pair.values() for u in units):
        raise SimulationError(
            f"recovery triggered by {trigger} but the scan does not see it "
            "as a faulty dirty unit"
        )

    # Step 2: per-pair residues, then resolution.
    stored_check = cache.stored_check
    for pair_index, faulty in faulty_by_pair.items():
        pair = scheme.registers.pairs[pair_index]
        r3 = pair.dirty_xor ^ scan.rotated_xor(pair_index)
        deltas = _resolve_pair(scheme, faulty, r3, report)
        report.pair_audits.append(
            PairAudit(
                pair_index=pair_index,
                r1=pair.r1,
                r2=pair.r2,
                residue=r3,
                method=report.methods[-1],
                faulty=list(faulty),
            )
        )
        for unit in faulty:
            corrected = unit.stored_value ^ deltas[unit.loc]
            # Sanity-check the reconstruction.  Any parity group still
            # mismatching must be one that flagged originally — that case
            # is a fault in the *check bits* themselves (the data was
            # intact and reconstruction returns it unchanged; parity is
            # regenerated on repair).  A mismatch in a group that never
            # flagged means the registers disagree with the evidence: the
            # fault exceeded correction capability.
            residual = scheme.inspect(corrected, stored_check(unit.loc))
            if residual.detected and not (
                residual.faulty_parities <= unit.faulty_parities
            ):
                raise UncorrectableError(
                    f"cppc: recovered value for {unit.loc} fails parity in "
                    "unflagged groups — fault exceeds correction capability",
                    detail=unit.loc,
                )
            report.corrections[unit.loc] = (unit.stored_value, corrected)

    # Apply every repair except the trigger's (the cache applies that one
    # through the normal resolution path).
    for loc, (_old, new) in report.corrections.items():
        if loc != trigger:
            cache.repair_unit(loc, new)
    return report


class DirtyScan:
    """Every dirty unit of a CPPC cache, read once and checked in bulk.

    Section 4.4 reads the dirty units twice: step 1 checks each one's
    parity, and step 2 XORs each pair's rotated dirty values against
    ``R1 ^ R2``.  Both are XOR-linear.  A unit's parity syndrome is the
    XOR of its ``ways``-bit chunks against its check word, and a byte
    rotation distributes over XOR, so a pair's rotated XOR is the XOR,
    over its rotation classes, of one rotation of each class's XOR.  So
    both run as NumPy passes over :meth:`Cache.dirty_unit_arrays
    <repro.memsim.Cache.dirty_unit_arrays>`, and only the units the
    parity pass flags come back as Python values, for
    :meth:`CppcProtection.inspect` to judge.  Recovery, register repair
    (Section 4.9) and :meth:`CppcProtection.dirty_xor_expected` all read
    the cache through it.
    """

    def __init__(self, scheme: "CppcProtection"):
        self.scheme = scheme
        self.slots, self.data, self.checks = scheme.cache.dirty_unit_arrays()
        rows = scheme.geometry.rows_of_slots(self.slots)
        self.classes = rows % scheme.rotation.num_classes

    def flagged(self) -> Iterator[Tuple[UnitLocation, int, int]]:
        """``(location, value, stored check)`` of every dirty unit whose
        check word disagrees with its data, in
        :meth:`~repro.memsim.Cache.iter_dirty_units` order.

        A stored check word outside the code's range is flagged too, so
        that ``inspect`` raises for it at the same unit as a
        unit-by-unit walk would.
        """
        ways = self.scheme.code.ways
        width = max(1, ways // 8)
        checks = self.checks
        wild: List[int] = []
        try:
            stored = _word_bytes(checks, width)
        except (ValueError, OverflowError):
            top = mask(ways)
            wild = [i for i, c in enumerate(checks) if not 0 <= c <= top]
            stored = _word_bytes([c if 0 <= c <= top else 0 for c in checks], width)
        stored_words = np.frombuffer(stored, dtype=np.uint8).reshape(-1, width)
        syndromes = _check_words(self.data, ways) ^ stored_words
        hits = np.flatnonzero(syndromes.any(axis=1)).tolist()
        if wild:
            hits = sorted(set(hits).union(wild))
        slot_location = self.scheme.cache.slot_location
        for i in hits:
            yield (
                slot_location(int(self.slots[i])),
                int.from_bytes(self.data[i].tobytes(), "big"),
                checks[i],
            )

    def rotated_xor(self, pair_index: int) -> int:
        """XOR of the rotated values of the pair's dirty units: what the
        pair's ``R1 ^ R2`` holds when no dirty unit is faulty."""
        scheme = self.scheme
        rotation = scheme.rotation
        acc = np.zeros(self.data.shape[1], dtype=np.uint8)
        for cls in range(rotation.num_classes):
            if scheme.registers.pair_index_of_class(cls) != pair_index:
                continue
            fold = np.bitwise_xor.reduce(self.data[self.classes == cls], axis=0)
            acc ^= _rotl_row(fold, cls) if rotation.enabled else fold
        return int.from_bytes(acc.tobytes(), "big")


def _word_bytes(words: List[int], width: int) -> bytes:
    """``width``-byte MSB-first encodings of ``words``, concatenated;
    raises ``ValueError`` or ``OverflowError`` for a word that does not
    fit."""
    if width == 1:
        return bytes(words)
    return b"".join(map(int.to_bytes, words, repeat(width), repeat("big")))


def _check_words(data: np.ndarray, ways: int) -> np.ndarray:
    """``InterleavedParity(ways).encode`` of every row of ``data``, as
    MSB-first bytes: ``(n, ways // 8)`` for ``ways >= 8``, else ``(n, 1)``.

    A check word is the XOR of its unit's ``ways``-bit chunks (see
    :mod:`repro.coding.parity`).  From eight ways up the chunks are
    ``ways // 8``-byte columns; below, the XOR of the bytes is folded on
    down to ``ways`` bits, as ``fastmc._fold_parity_words`` does.
    """
    rows, unit_bytes = data.shape
    width = max(1, ways // 8)
    folded = np.bitwise_xor.reduce(
        data.reshape(rows, unit_bytes // width, width), axis=1
    )
    bits = 8
    while bits > ways:
        bits //= 2
        folded = (folded ^ folded >> bits) & mask(bits)
    return folded


def _rotl_row(row: np.ndarray, count: int) -> np.ndarray:
    """``rotl_bytes`` of one MSB-first byte row: byte ``j`` takes byte
    ``(j + count) mod len(row)``."""
    return np.roll(row, -count)


def _resolve_pair(
    scheme: "CppcProtection",
    faulty: List[FaultyUnit],
    r3: int,
    report: RecoveryReport,
) -> Dict[UnitLocation, int]:
    """Error mask per faulty unit within one register pair's domain."""
    if len(faulty) == 1:
        unit = faulty[0]
        report.methods.append("single")
        return {unit.loc: scheme.rotation.rotate_out(r3, unit.rotation_class)}

    if _parity_groups_disjoint(faulty):
        # Step 4: disjoint groups never mix under byte rotation, so each
        # unit's pattern is the residue masked to its own groups.
        report.methods.append("disjoint-parity")
        deltas = {}
        for unit in faulty:
            residue = scheme.rotation.rotate_out(r3, unit.rotation_class)
            deltas[unit.loc] = residue & _groups_mask(scheme, unit.faulty_parities)
        return deltas

    # Steps 5-6: presumed spatial strike.
    ways = {u.loc.way for u in faulty}
    if len(ways) > 1:
        raise UncorrectableError(
            "cppc: concurrent faults in different subarrays share parity "
            "groups — not a spatial strike, not separable",
            detail=[u.loc for u in faulty],
        )
    rows = [u.row for u in faulty]
    if max(rows) - min(rows) >= scheme.rotation.num_classes:
        raise UncorrectableError(
            "cppc: faulty rows span more than the rotation period "
            f"({scheme.rotation.num_classes} rows) — beyond spatial "
            "correction capability",
            detail=[u.loc for u in faulty],
        )
    locator = FaultLocator(scheme.rotation)
    try:
        deltas = locator.locate(faulty, r3)
    except FaultLocatorError as exc:
        raise UncorrectableError(
            f"cppc: fault locator failed: {exc}", detail=[u.loc for u in faulty]
        ) from exc
    report.methods.append("spatial-locator")
    return deltas


def _parity_groups_disjoint(faulty: List[FaultyUnit]) -> bool:
    seen: set = set()
    for unit in faulty:
        if seen & unit.faulty_parities:
            return False
        seen |= unit.faulty_parities
    return True


def _groups_mask(scheme: "CppcProtection", groups) -> int:
    """Unit-wide mask of all bits belonging to the given parity groups."""
    out = 0
    for g in groups:
        out |= scheme.code.group_mask(g)
    return out


def amortized_recovery_overhead(
    fault_rate_per_hour: float,
    recovery_cycles: float,
    frequency_hz: float = 3.0e9,
) -> float:
    """Fraction of machine cycles spent in recovery, long-run average.

    Quantifies the paper's Section 5 claim that recovery complexity does
    not matter: even charging a full-cache software scan per fault, the
    expected overhead at realistic SEU rates is far below measurement
    noise.
    """
    if fault_rate_per_hour < 0 or recovery_cycles < 0:
        raise SimulationError("rates and costs must be non-negative")
    cycles_per_hour = frequency_hz * 3600.0
    return fault_rate_per_hour * recovery_cycles / cycles_per_hour
