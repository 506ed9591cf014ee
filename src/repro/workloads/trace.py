"""Memory-access trace format and (de)serialisation.

A trace is a sequence of :class:`TraceRecord`; each record carries the
instruction gap since the previous memory operation so the timing model
and the Tavg bookkeeping can reconstruct time without simulating every
non-memory instruction.
"""

from __future__ import annotations

from typing import IO, Iterable, Iterator, List, NamedTuple

from ..errors import TraceFormatError
from ..memsim.types import AccessType


class _TraceRecordFields(NamedTuple):
    """The fields of :class:`TraceRecord`, in order."""

    op: AccessType
    addr: int
    size: int
    gap: int = 0
    value: bytes = b""


class TraceRecord(_TraceRecordFields):
    """One memory reference.

    A record is a tuple of its five fields.  Calling the class checks
    them; :meth:`~repro.memsim.batch.BatchTrace.to_records` checks its
    columns in bulk instead and builds each row with ``tuple.__new__``.

    Attributes:
        op: load or store.
        addr: byte address (naturally aligned to ``size``).
        size: access size in bytes.
        gap: non-memory instructions executed since the previous record.
        value: bytes stored (stores only; length == size).
    """

    __slots__ = ()

    def __new__(
        cls,
        op: AccessType,
        addr: int,
        size: int,
        gap: int = 0,
        value: bytes = b"",
    ):
        if size < 1:
            raise TraceFormatError(f"record size must be positive, got {size}")
        if addr < 0:
            raise TraceFormatError("record address must be non-negative")
        if gap < 0:
            raise TraceFormatError("record gap must be non-negative")
        if op is AccessType.STORE and len(value) != size:
            raise TraceFormatError(
                f"store record carries {len(value)} bytes for size {size}"
            )
        return tuple.__new__(cls, (op, addr, size, gap, value))

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
    """Parse the format written by :func:`save_trace`.

    Every error names its line: one that does not parse, an unknown op
    and a record that :class:`TraceRecord`'s own checks reject all
    raise :class:`~repro.errors.TraceFormatError` with the line number.
    """
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0].upper()
        if kind not in ("L", "S"):
            raise TraceFormatError(f"line {lineno}: unknown op {kind!r}")
        try:
            addr = int(fields[1], 16)
            size = int(fields[2])
            gap = int(fields[3])
            if kind == "L":
                record = TraceRecord(AccessType.LOAD, addr, size, gap)
            else:
                record = TraceRecord(
                    AccessType.STORE, addr, size, gap, bytes.fromhex(fields[4])
                )
        except (IndexError, ValueError, TraceFormatError) as exc:
            raise TraceFormatError(f"line {lineno}: {line!r}: {exc}") from exc
        yield record


def materialize(records: Iterable[TraceRecord]) -> List[TraceRecord]:
    """Force a generator trace into a list (for multi-pass experiments)."""
    return list(records)
