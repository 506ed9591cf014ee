"""Memory-access trace format and (de)serialisation.

A trace is a sequence of :class:`TraceRecord`; each record carries the
instruction gap since the previous memory operation so the timing model
and the Tavg bookkeeping can reconstruct time without simulating every
non-memory instruction.
"""

from __future__ import annotations

import dataclasses
from typing import IO, Iterable, Iterator, List

from ..errors import TraceFormatError
from ..memsim.types import AccessType


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One memory reference.

    Attributes:
        op: load or store.
        addr: byte address (naturally aligned to ``size``).
        size: access size in bytes.
        gap: non-memory instructions executed since the previous record.
        value: bytes stored (stores only; length == size).
    """

    op: AccessType
    addr: int
    size: int
    gap: int = 0
    value: bytes = b""

    def __post_init__(self):
        if self.size < 1:
            raise TraceFormatError(f"record size must be positive, got {self.size}")
        if self.addr < 0:
            raise TraceFormatError("record address must be non-negative")
        if self.gap < 0:
            raise TraceFormatError("record gap must be non-negative")
        if self.op is AccessType.STORE and len(self.value) != self.size:
            raise TraceFormatError(
                f"store record carries {len(self.value)} bytes for size {self.size}"
            )

    @property
    def instructions(self) -> int:
        """Instructions this record accounts for (the gap plus itself)."""
        return self.gap + 1


def save_trace(records: Iterable[TraceRecord], fh: IO[str]) -> int:
    """Write records in the one-line-per-record text format.

    Format: ``L addr size gap`` or ``S addr size gap hexvalue``.
    Returns the number of records written.
    """
    count = 0
    for r in records:
        if r.op is AccessType.LOAD:
            fh.write(f"L {r.addr:x} {r.size} {r.gap}\n")
        else:
            fh.write(f"S {r.addr:x} {r.size} {r.gap} {r.value.hex()}\n")
        count += 1
    return count


def load_trace(fh: IO[str]) -> Iterator[TraceRecord]:
    """Parse the format written by :func:`save_trace`."""
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            kind = fields[0].upper()
            addr = int(fields[1], 16)
            size = int(fields[2])
            gap = int(fields[3])
            if kind == "L":
                yield TraceRecord(AccessType.LOAD, addr, size, gap)
            elif kind == "S":
                yield TraceRecord(
                    AccessType.STORE, addr, size, gap, bytes.fromhex(fields[4])
                )
            else:
                raise TraceFormatError(f"line {lineno}: unknown op {kind!r}")
        except (IndexError, ValueError) as exc:
            raise TraceFormatError(f"line {lineno}: {line!r}: {exc}") from exc


def materialize(records: Iterable[TraceRecord]) -> List[TraceRecord]:
    """Force a generator trace into a list (for multi-pass experiments)."""
    return list(records)
