"""CPPC dirty-data error recovery (paper Sections 3.2 and 4.4).

Entry point: :func:`recover`, invoked by the CPPC protection scheme when a
parity check fails on a *dirty* unit.  The procedure follows the paper:

1. Scan every dirty unit in the cache, checking parity, to find all
   concurrently faulty dirty units (step 1 / step 3 of Section 4.4).
2. Per register pair, compute the residue
   ``R3 = R1 ^ R2 ^ XOR(rotated dirty values)`` — the XOR of the rotated
   error patterns of the faulty units in that pair's domain.
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
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..errors import FaultLocatorError, SimulationError, UncorrectableError
from ..memsim.types import UnitLocation
from ..util import xor_reduce
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
    #: itself visits only the dirty units.
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
    obs = scheme._obs if scheme._obs_on else None
    # The registers are about to be read: check their own parity first
    # and rebuild any that took a hit (paper Section 4.9).
    repairs_before = scheme.register_repairs
    scheme.verify_registers()
    report = RecoveryReport(
        trigger=trigger,
        units_scanned=cache.resident_unit_count(),
        register_repairs=scheme.register_repairs - repairs_before,
    )

    # Step 1/3: scan all dirty units, grouping by register pair and
    # collecting the ones whose parity check fails.
    dirty_by_pair: Dict[int, List[Tuple[UnitLocation, int, int]]] = {}
    faulty_by_pair: Dict[int, List[FaultyUnit]] = {}
    stored_check = cache.stored_check
    for loc, value in cache.iter_dirty_units():
        cls = scheme.class_of(loc)
        pair_index = scheme.registers.pair_index_of_class(cls)
        dirty_by_pair.setdefault(pair_index, []).append((loc, value, cls))
        inspection = scheme.inspect(value, stored_check(loc))
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
    if obs is not None:
        obs.emit(
            "cppc.recovery",
            "scan",
            {
                "trigger": list(trigger),
                "units_scanned": report.units_scanned,
                "faulty": [list(loc) for loc in report.faulty_units],
                "register_repairs": report.register_repairs,
            },
        )

    # Step 2: per-pair residues, then resolution.
    for pair_index, faulty in faulty_by_pair.items():
        pair = scheme.registers.pairs[pair_index]
        rotated_dirty = (
            scheme.rotation.rotate_in(value, cls)
            for _loc, value, cls in dirty_by_pair.get(pair_index, [])
        )
        r3 = pair.dirty_xor ^ xor_reduce(rotated_dirty)
        if obs is not None:
            obs.emit(
                "cppc.recovery",
                "residue",
                {
                    "pair": pair_index,
                    "r1": pair.r1,
                    "r2": pair.r2,
                    "residue": r3,
                    "faulty": [
                        {
                            "loc": list(u.loc),
                            "parities": sorted(u.faulty_parities),
                        }
                        for u in faulty
                    ],
                },
            )
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
            if obs is not None:
                obs.emit(
                    "cppc.recovery",
                    "reconstruct",
                    {
                        "loc": list(unit.loc),
                        "method": report.methods[-1],
                        "old": unit.stored_value,
                        "new": corrected,
                        "delta": unit.stored_value ^ corrected,
                    },
                )

    # Apply every repair except the trigger's (the cache applies that one
    # through the normal resolution path).
    for loc, (_old, new) in report.corrections.items():
        if loc != trigger:
            cache.repair_unit(loc, new)
    return report


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
