"""The recovery audit record: a replayable account of one CPPC recovery.

Every recovery pass leaves one :class:`~repro.cppc.recovery.RecoveryReport`
in :attr:`CppcProtection.recovery_log
<repro.cppc.CppcProtection.recovery_log>`, a deque bounded by
``audit_maxlen``.  :func:`audit_payload` renders a report as a JSON-safe
**audit record** capturing the full detect → locate → reconstruct chain:

* the triggering unit and how many units the scan walked,
* per register pair: the R1/R2 contents read, the residue
  ``R3 = R1 ^ R2 ^ XOR(rotated dirty values)``, the resolution method
  (``single`` / ``disjoint-parity`` / ``spatial-locator``), and the
  parity syndrome of every faulty unit,
* per repaired unit: stored (corrupt) value, reconstructed value, and
  the error mask between them,
* any registers that had to be rebuilt first (Section 4.9).

:meth:`CppcProtection.audits <repro.cppc.CppcProtection.audits>` returns
the record of every logged pass, and with a trace sink attached each
pass streams its record as its one ``cppc.recovery`` / ``audit`` event,
so the stream keeps every pass the bounded log has dropped.

Because the record is self-describing (unit width, rotation classes,
byte shifting), :func:`verify_audit` can re-derive every correction
offline — from a ``trace.jsonl`` file on another machine — and check it
against the recorded residues, exactly the discipline the R1^R2
invariant enforces live via
:meth:`~repro.cppc.CppcProtection.dirty_xor_expected`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def audit_payload(report, scheme) -> dict:
    """JSON-safe audit record of one recovery pass.

    Args:
        report: the :class:`~repro.cppc.recovery.RecoveryReport`.
        scheme: the :class:`~repro.cppc.CppcProtection` that ran it.
    """
    pairs = []
    for pair_audit in report.pair_audits:
        corrections = []
        for unit in pair_audit.faulty:
            old, new = report.corrections[unit.loc]
            corrections.append(
                {
                    "loc": list(unit.loc),
                    "class": unit.rotation_class,
                    "old": old,
                    "new": new,
                    "delta": old ^ new,
                }
            )
        pairs.append(
            {
                "pair": pair_audit.pair_index,
                "r1": pair_audit.r1,
                "r2": pair_audit.r2,
                "residue": pair_audit.residue,
                "method": pair_audit.method,
                "faulty": [
                    {
                        "loc": list(u.loc),
                        "class": u.rotation_class,
                        "row": u.row,
                        "stored": u.stored_value,
                        "parities": sorted(u.faulty_parities),
                    }
                    for u in pair_audit.faulty
                ],
                "corrections": corrections,
            }
        )
    return {
        "trigger": list(report.trigger),
        "units_scanned": report.units_scanned,
        "register_repairs": report.register_repairs,
        "unit_bits": scheme.code.data_bits,
        "parity_ways": scheme.code.ways,
        "num_classes": scheme.rotation.num_classes,
        "byte_shifting": scheme.rotation.enabled,
        "pairs": pairs,
    }


def reconstruct_corrections(payload: dict) -> Dict[Tuple[int, int, int], int]:
    """Replay one audit payload: ``{(set, way, unit): corrected value}``.

    Values are rebuilt from the recorded stored value and error mask
    (``stored ^ delta``), *not* read from the ``new`` field, so a test
    comparing the result against the repaired cache genuinely re-derives
    every word.
    """
    out: Dict[Tuple[int, int, int], int] = {}
    for pair in payload["pairs"]:
        stored = {tuple(u["loc"]): u["stored"] for u in pair["faulty"]}
        for correction in pair["corrections"]:
            loc = tuple(correction["loc"])
            out[loc] = stored[loc] ^ correction["delta"]
    return out


def verify_audit(payload: dict) -> List[str]:
    """Check one audit payload's internal consistency; returns problems.

    Three properties must hold for a trustworthy audit record:

    1. every correction's reconstructed value equals ``old ^ delta`` and
       matches the faulty unit it claims to repair;
    2. per register pair, the recorded residue equals the XOR of the
       *rotated* error masks of that pair's corrections — the defining
       equation of CPPC recovery (``R3`` is the XOR of the rotated error
       patterns);
    3. each correction's error mask only disturbs parity groups that the
       unit's recorded syndrome flagged.
    """
    # Imported here: repro.cppc imports this module at load time.
    from ..cppc.shifting import RotationScheme
    from ..coding import InterleavedParity

    problems: List[str] = []
    rotation = RotationScheme(
        unit_bytes=payload["unit_bits"] // 8,
        num_classes=payload["num_classes"],
        enabled=payload["byte_shifting"],
    )
    code = InterleavedParity(
        data_bits=payload["unit_bits"], ways=payload["parity_ways"]
    )
    for pair in payload["pairs"]:
        syndromes = {tuple(u["loc"]): frozenset(u["parities"]) for u in pair["faulty"]}
        stored = {tuple(u["loc"]): u["stored"] for u in pair["faulty"]}
        rotated_deltas = 0
        for correction in pair["corrections"]:
            loc = tuple(correction["loc"])
            if correction["new"] != correction["old"] ^ correction["delta"]:
                problems.append(f"{loc}: new != old ^ delta")
            if loc not in stored:
                problems.append(f"{loc}: corrected but never flagged faulty")
                continue
            if correction["old"] != stored[loc]:
                problems.append(f"{loc}: old value disagrees with the scan")
            # The delta must be explainable by the recorded syndrome: a
            # group the error pattern disturbs must have flagged.
            disturbed = code.inspect(correction["delta"], 0).faulty_parities
            if not disturbed <= syndromes[loc]:
                problems.append(
                    f"{loc}: delta touches unflagged parity groups "
                    f"{sorted(disturbed - syndromes[loc])}"
                )
            rotated_deltas ^= rotation.rotate_in(
                correction["delta"], correction["class"]
            )
        if rotated_deltas != pair["residue"]:
            problems.append(
                f"pair {pair['pair']}: residue {pair['residue']:#x} is not "
                f"the XOR of the rotated error masks ({rotated_deltas:#x})"
            )
    return problems
